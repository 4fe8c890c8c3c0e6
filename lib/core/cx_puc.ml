(** CX-PUC of Correia et al. (paper §2.3, the PUC the evaluation compares
    against), reimplemented from its description:

    - a shared global queue of update operations establishes the
      linearization order (kept in DRAM: durability comes from the
      replicas, not the queue);
    - 2n replicas of the sequential object, each in its own persistent
      heap, each protected by a strong try reader-writer lock;
    - an updater appends its op to the queue, write-locks *some* replica,
      brings it up to date (applying its own op along the way), then
      **persists the entire replica** — the dominating cost the paper
      highlights — and publishes it as the most up-to-date replica with a
      CAS (+ CLFLUSH);
    - readers read-lock the currently published replica.

    Replicas other than replica 0 are instantiated lazily by copying the
    published replica under its read lock; the copy inherits the source's
    applied index. *)

open Nvm

let slot_cur = 6
(* root slot: packed (applied_count * 64 + rep_id) where applied_count is
   the number of queue entries the published replica reflects; persisted *)

let slot_dir = 7 (* root slot: NVM directory of replica ds roots *)

(* entries in the global op queue, which is never reclaimed *)
let queue_capacity = 1 lsl 18

let pack ~count ~rid = (count * 64) + rid
let unpack v = (v / 64, v land 63)

module Make (Ds : Seqds.Ds_intf.S) = struct
  type rep = {
    rid : int;
    alloc : Alloc.t; (* persistent heap private to this replica *)
    rw : Locks.Rwlock.t;
    mutable ds : Ds.handle option; (* None until lazily instantiated *)
    mutable applied : int; (* next queue index to apply; mirrored in NVM *)
    applied_addr : int;
    dirty_addr : int;
        (* persisted mid-update marker: recovery skips dirty replicas,
           whose heap may contain a partially-flushed update *)
  }

  type t = {
    mem : Memory.t;
    roots : Roots.t;
    queue : Log.t; (* reuse the log machinery as the global op queue *)
    qtail_addr : int;
    reps : rep array; (* 2n *)
    dir : int; (* NVM array: ds root per replica *)
    ctrl_alloc : Alloc.t;
    tel : Phases.t option;
  }

  let read_qtail t = Memory.read t.mem t.qtail_addr

  let create ?(prefill = []) mem roots ~workers =
    let ctrl_alloc = Alloc.create_volatile mem ~home:0 in
    Context.bind ~default:ctrl_alloc ();
    let topo = Sim.topology () in
    let n_reps = 2 * workers in
    if n_reps > 63 then invalid_arg "Cx_puc: too many replicas to pack";
    let queue = Log.create mem ~size:queue_capacity ~durable:false in
    let qtail_addr = Alloc.alloc ctrl_alloc 8 in
    Memory.write mem qtail_addr 0;
    let dir_alloc = Alloc.create_persistent mem ~home:0 in
    (* directory: 4 NVM words per replica: ds root, applied addr, dirty addr *)
    let dir = Alloc.alloc dir_alloc (max 8 (4 * n_reps)) in
    let make_rep rid =
      let home = rid mod topo.Sim.Topology.sockets in
      let alloc = Alloc.create_persistent mem ~home in
      let rw = Locks.Rwlock.make mem (Alloc.alloc ctrl_alloc 8) in
      let applied_addr = Alloc.alloc alloc 8 in
      let dirty_addr = Alloc.alloc alloc 8 in
      { rid; alloc; rw; ds = None; applied = 0; applied_addr; dirty_addr }
    in
    let reps = Array.init n_reps make_rep in
    (* replica 0 is instantiated eagerly with the initial state *)
    let r0 = reps.(0) in
    let ds0 =
      Context.with_allocator r0.alloc (fun () ->
          let ds = Ds.create mem in
          List.iter (fun (op, args) -> ignore (Ds.execute ds ~op ~args)) prefill;
          ds)
    in
    r0.ds <- Some ds0;
    Memory.write mem dir (Ds.root_addr ds0);
    Memory.write mem (dir + 1) r0.applied_addr;
    Memory.write mem (dir + 2) r0.dirty_addr;
    Memory.write mem r0.applied_addr 0;
    Memory.write mem r0.dirty_addr 0;
    Alloc.persist_heap r0.alloc;
    Memory.clflush ~site:Persist.Cx_dir_init mem dir;
    Roots.set roots slot_cur (pack ~count:0 ~rid:0);
    Roots.set roots slot_dir dir;
    { mem; roots; queue; qtail_addr; reps; dir; ctrl_alloc;
      tel = Phases.make () }

  let register_worker t = Context.bind ~default:t.ctrl_alloc ()

  (* Apply queue entries [rep.applied, upto] to [rep] (write lock held).
     Returns the response of entry [upto]. *)
  let catch_up t rep ~upto =
    Phases.in_span t.tel (fun pt -> pt.Phases.catchup) @@ fun () ->
    let ds = Option.get rep.ds in
    let resp = ref 0 in
    Context.with_allocator rep.alloc (fun () ->
        for idx = rep.applied to upto do
          let op, args = Log.wait_and_read t.queue idx in
          let r = Ds.execute ds ~op ~args in
          if idx = upto then resp := r
        done);
    rep.applied <- upto + 1;
    Memory.write t.mem rep.applied_addr (upto + 1);
    !resp

  (* Lazily instantiate [rep] as a copy of the published replica. *)
  let instantiate t rep =
    let src_count, src_rid = unpack (Roots.get t.roots slot_cur) in
    let src = t.reps.(src_rid) in
    Locks.Rwlock.read_acquire src.rw;
    let ds =
      Context.with_allocator rep.alloc (fun () -> Ds.copy (Option.get src.ds))
    in
    let applied = max src.applied src_count in
    Locks.Rwlock.read_release src.rw;
    rep.ds <- Some ds;
    rep.applied <- applied;
    Memory.write t.mem rep.applied_addr applied;
    let d = t.dir + (4 * rep.rid) in
    Memory.write t.mem d (Ds.root_addr ds);
    Memory.write t.mem (d + 1) rep.applied_addr;
    Memory.write t.mem (d + 2) rep.dirty_addr;
    Memory.clwb ~site:Persist.Cx_replica_dir t.mem d;
    Memory.sfence ~site:Persist.Cx_replica_dir t.mem

  let publish t ~count ~rid =
    Phases.in_span t.tel (fun pt -> pt.Phases.publish) @@ fun () ->
    let rec loop () =
      let cur = Roots.get t.roots slot_cur in
      let cur_count, _ = unpack cur in
      if cur_count >= count then ()
      else if
        Memory.cas t.mem (Roots.addr t.roots slot_cur) ~expected:cur
          ~desired:(pack ~count ~rid)
      then Memory.clflush ~site:Persist.Cx_publish t.mem (Roots.addr t.roots slot_cur)
      else loop ()
    in
    loop ()

  let execute_update t ~op ~args =
    (* append to the global queue *)
    let rec reserve () =
      let tail = read_qtail t in
      if tail >= queue_capacity then failwith "Cx_puc: op queue exhausted";
      if Memory.cas t.mem t.qtail_addr ~expected:tail ~desired:(tail + 1) then tail
      else reserve ()
    in
    let idx = reserve () in
    Phases.in_span t.tel (fun pt -> pt.Phases.publish) (fun () ->
        Log.write_payload t.queue idx ~op ~args;
        Log.publish t.queue idx);
    (* lock some replica, scanning from replica 0 so that uncontended runs
       keep reusing (and re-flushing) a small working set of replicas *)
    let n = Array.length t.reps in
    let rec grab k =
      let rep = t.reps.(k mod n) in
      if Locks.Rwlock.try_write_acquire rep.rw then rep
      else begin
        if k + 1 >= n then Sim.spin ();
        grab (k + 1)
      end
    in
    let rep = grab 0 in
    if rep.ds = None then instantiate t rep;
    (* mark the replica mid-update so recovery will not trust it *)
    Memory.write t.mem rep.dirty_addr 1;
    Memory.clflush ~site:Persist.Cx_dirty_flag t.mem rep.dirty_addr;
    let resp = catch_up t rep ~upto:idx in
    (* the CX persistence strategy: write back the whole replica heap *)
    Phases.in_span t.tel (fun pt -> pt.Phases.persist) (fun () ->
        Alloc.persist_heap rep.alloc;
        Memory.write t.mem rep.dirty_addr 0;
        Memory.clflush ~site:Persist.Cx_dirty_flag t.mem rep.dirty_addr);
    publish t ~count:(idx + 1) ~rid:rep.rid;
    Locks.Rwlock.write_release rep.rw;
    resp

  let execute_readonly t ~op ~args =
    let rec loop () =
      let cur_count, cur_rid = unpack (Roots.get t.roots slot_cur) in
      let rep = t.reps.(cur_rid) in
      if Locks.Rwlock.try_read_acquire rep.rw then begin
        if rep.ds <> None && rep.applied >= cur_count then begin
          let resp = Ds.execute (Option.get rep.ds) ~op ~args in
          Locks.Rwlock.read_release rep.rw;
          resp
        end
        else begin
          Locks.Rwlock.read_release rep.rw;
          Sim.spin ();
          loop ()
        end
      end
      else begin
        Sim.spin ();
        loop ()
      end
    in
    loop ()

  let execute t ~op ~args =
    if Ds.is_readonly ~op then execute_readonly t ~op ~args
    else execute_update t ~op ~args

  (** Recover after a crash: among the replicas whose persisted dirty flag
      is clear (i.e. that were not mid-update), pick the one with the
      highest persisted applied index. Returns a handle on the recovered
      sequential object plus its applied index (how many queue entries its
      state reflects). *)
  let recover t =
    let dir = Roots.get t.roots slot_dir in
    let best = ref None in
    for rid = 0 to Array.length t.reps - 1 do
      let d = dir + (4 * rid) in
      let root = Memory.read t.mem d in
      if root <> Memory.null then begin
        let applied_addr = Memory.read t.mem (d + 1) in
        let dirty_addr = Memory.read t.mem (d + 2) in
        if Memory.read t.mem dirty_addr = 0 then begin
          let applied = Memory.read t.mem applied_addr in
          match !best with
          | Some (a, _) when a >= applied -> ()
          | _ -> best := Some (applied, root)
        end
      end
    done;
    match !best with
    | Some (applied, root) -> (Ds.attach t.mem root, applied)
    | None -> failwith "Cx_puc.recover: no clean replica found"

  let snapshot t =
    let _, rid = unpack (Roots.get t.roots slot_cur) in
    match t.reps.(rid).ds with
    | Some ds -> Ds.snapshot ds
    | None -> []
end
