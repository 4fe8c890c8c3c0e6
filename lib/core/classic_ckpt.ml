(** The paper's checkpoint backend (Algorithm 2), the first
    implementation of [Checkpoint.kit]: two persistent replicas, the
    active one caught up inside the persistent heap; a checkpoint writes
    back the heap, then swaps active and stable and persists the switch.
    Each replica is reached through a meta block in NVM, word 0 its tail
    and word 1 its root, named by a root slot of its own. *)

open Nvm
open Checkpoint

let slot_meta0 = 2 (* address of persistent replica 0's meta block *)
let slot_meta1 = 3 (* address of persistent replica 1's meta block *)

module Make (Ds : Seqds.Ds_intf.S) = struct
  let backend env : Ds.handle backend =
    let mem = env.mem and roots = env.roots and cfg = env.cfg in
    let active = cfg.Config.root_base + slot_active in
    {
      prepare = (fun _ _ ~op:_ ~args:_ -> ());
      needs_write = (fun _ ~op:_ ~args:_ -> false);
      catch_up =
        (fun pds ~op ~args ->
          Context.with_persistent (fun () -> ignore (Ds.execute pds ~op ~args)));
      poll = ignore;
      checkpoint =
        (fun () ->
          (match cfg.Config.flush with
           | Config.Wbinvd -> Memory.wbinvd ~site:Persist.Prep_checkpoint mem
           | Config.Flush_heap ->
             (* walk the persistent heap and write back whatever is dirty;
                pays per line instead of the WBINVD stall — the
                small-structure alternative of §6 *)
             List.iter
               (fun aid ->
                 Memory.flush_arena ~site:Persist.Prep_checkpoint mem aid)
               (Alloc.arenas (Option.get env.pa)));
          Memory.sfence ~site:Persist.Prep_checkpoint mem;
          (* swap active/stable and persist the switch before opening the
             next window (see [Prep_uc]'s module comment on ordering) *)
          Roots.set roots active (1 - Roots.get roots active));
      span = (fun pt -> pt.Phases.persist);
      background = None;
      counters = (fun () -> Lsm_ckpt.idle_counters);
      ghost = (fun () -> 0);
      snapshot = Ds.snapshot;
    }

  (* A persistent replica in [pa], cloned by [src] with the persistent
     allocator enabled, and its meta block. *)
  let make_prep mem pa src =
    Context.with_persistent (fun () ->
        let pds = src () in
        let meta = Alloc.alloc pa 8 in
        Memory.write mem meta 0;
        Memory.write mem (meta + 1) (Ds.root_addr pds);
        { meta; pds })

  (* Checkpoint zero: two copies of volatile replica 0, written back. *)
  let create env ~master:_ ~first =
    match env.pa with
    | None -> ([||], backend env)
    | Some pa ->
      let make_prep () = make_prep env.mem pa (fun () -> Ds.copy first) in
      let p0 = make_prep () and p1 = make_prep () in
      (* checkpoint zero: both replicas durable before any op *)
      Alloc.persist_heap pa;
      let set s v = Roots.set env.roots (env.cfg.Config.root_base + s) v in
      set slot_active 0;
      set slot_meta0 p0.meta;
      set slot_meta1 p1.meta;
      ([| p0; p1 |], backend env)

  (* Recovery's persistence side: each copy allocates from a sub-heap of
     its own and writes back only that once its replay is done, its
     helpers splitting the write-back one arena each; the commit adopts
     the sub-heaps and names the copies. The planted
     [Commit_before_copies_persist] fault skips a background copy's
     write-back. *)
  let recover env =
    let mem = env.mem and cfg = env.cfg in
    let pa = Option.get env.pa in
    let per = Array.make 2 None in
    let copy ~background ~helpers i clone =
      let sub = Alloc.sub pa in
      Context.set_persistent sub;
      let prep = make_prep mem sub clone in
      if (not background) || cfg.Config.fault <> Config.Commit_before_copies_persist
      then
        Context.with_helpers helpers (fun () ->
            Alloc.persist_heap ~split:Context.spread sub);
      per.(i) <- Some (prep, sub)
    in
    let commit ~defer =
      let (p0, s0), (p1, s1) = (Option.get per.(0), Option.get per.(1)) in
      Alloc.adopt pa s0;
      Alloc.adopt pa s1;
      let set s v =
        defer (fun () -> Roots.set env.roots (cfg.Config.root_base + s) v)
      in
      (* both meta blocks, then [p0] active: the gap record is set
         meanwhile, so recovery reads none of the three *)
      set slot_meta0 p0.meta;
      set slot_meta1 p1.meta;
      set slot_active 0;
      [| p0; p1 |]
    in
    (backend env, { copy; commit })

  (* The stable replica of the pair: the one [slot_active] does not name,
     or the one whose meta block a gap record names. *)
  let mount mem roots cfg ~stamp =
    let rb = cfg.Config.root_base in
    let meta =
      match stamp with
      | Some meta -> meta
      | None ->
        let active = Roots.get roots (rb + slot_active) in
        Roots.get roots (rb + if active = 1 then slot_meta0 else slot_meta1)
    in
    let lt = Memory.read mem meta in
    let root = Memory.read mem (meta + 1) in
    (* a meta block that never reached media names no replica: fail
       recovery here, as torn media does, rather than attach garbage
       ([is_nvm] raises [Invalid_argument] past the last arena) *)
    if root = Memory.null || not (Memory.is_nvm mem root) then
      failwith
        (Printf.sprintf
           "Prep_uc.mount: stable meta block %d names no NVM replica (%d)"
           meta root);
    { covered = lt; stamp = meta; master = Some (Ds.attach mem root); recover }

  let kit = { copies = 2; mount; create }
end
