(** PREP-UC: the replicated persistent universal construction (paper §4–5).

    One functor implements all three variants of the paper:

    - [Config.Volatile] — PREP-V, the node-replication UC of Calciu et al.
      with all persistence code removed (used as the volatile baseline in
      Fig. 1);
    - [Config.Buffered] — PREP-Buffered (§5.1): the log and completedTail
      stay in DRAM; two dedicated persistent replicas in NVM are maintained
      by a persistence thread and checkpointed every ε operations with
      WBINVD; at most ε+β−1 completed operations are lost per crash;
    - [Config.Durable] — PREP-Durable (§5.2): additionally places the log
      and completedTail in NVM and persists log entries (CLWB+SFENCE) and
      the completedTail (CLFLUSH after CAS) before operations complete.

    Worker threads are fibers pinned one per simulated core; the replica a
    worker uses is its socket's, and its flat-combining slot is its core's.
    The persistence thread runs on the last core of the last socket, which
    the harness never assigns to a worker (the paper similarly uses at most
    95 of 96 hardware threads).

    Deviations from the paper's pseudocode, both liveness fixes:
    - the persistence thread evaluates the flush condition on every loop
      iteration, not only after applying new operations; otherwise a
      combiner that lowers the flushBoundary (Algorithm 3's helping path)
      after the persistence thread caught up would deadlock it;
    - the active/stable swap and its CLFLUSH happen *before* advancing the
      flushBoundary, so the ε+β−1 loss bound holds without assuming the
      two steps are atomic. *)

open Nvm

(* Root directory slots, relative to the instance's [Config.root_base]
   (shard [i] of a sharded construction registers its roots at [i * 8], so
   several instances share one root directory; the classic layout is
   base 0). Slot 1 is [Checkpoint.slot_active]; the checkpoint backends
   own the rest of the directory they use ([Classic_ckpt]'s meta blocks,
   [Lsm_ckpt]'s manifest). *)
let slot_ct = 4 (* address of d_completedTail (durable only) *)
let slot_log = 5 (* log base address (durable only) *)
let slot_announce = 6 (* announce/response table base (detect only) *)
let slot_pending = 7 (* gap record of a recovery not yet committed *)

(* Control-arena word offsets (one cache line apart). *)
let off_log_tail = 8
let off_log_min = 16
let off_flush_boundary = 24
let off_update_now = 32 (* one word per volatile replica *)

let slot_words = 16 (* flat-combining slot: 2 cache lines per core *)

(* How many workers each socket hosts; the last core is the persistence
   thread's. *)
let socket_workers cfg topo =
  Sim.Topology.workers_per_socket topo
    (min cfg.Config.workers (Sim.Topology.total_cores topo - 1))

(* One volatile replica per socket that hosts a worker. *)
let replica_count cfg topo =
  Array.fold_left
    (fun n w -> if w > 0 then n + 1 else n)
    0 (socket_workers cfg topo)

(* slot field offsets *)
let sl_full = 0
let sl_op = 1
let sl_argc = 2
let sl_args = 3 (* 3 words *)
let sl_resp = 6
let sl_ready = 7
let sl_ghost = 8
let sl_seq = 9 (* client seqno of the published op (detect only) *)

type recovery_report = {
  applied : int list;
      (** trace indexes recovered, in linearization order *)
  lost_completed : int;
      (** completed operations not present in the recovered state *)
  skipped_completed : int;
      (** completed operations skipped as log holes — must always be 0 *)
  contiguous_prefix : bool;
      (** whether [applied] is a gap-free prefix of the linearization *)
  reconciled : int;
      (** response slots rewritten by replay reconciliation (detect only) *)
}

(** Verdict of the recovery-side detectability query ([resolve]): what a
    client should conclude about its last announced operation. *)
type resolution =
  | Completed of { seqno : int; result : int }
      (** the op with this seqno took effect and its result is durable;
          anything the client submitted after it was never announced *)
  | Lost of { seqno : int }
      (** the announce for [seqno] is durable but no response covers it:
          the op did not survive the crash and must be re-submitted *)
  | Unannounced
      (** no trustworthy announce or response exists for this thread —
          it never submitted anything (or tore its very first announce,
          which is the same thing: nothing can have taken effect) *)

module Make (Ds : Seqds.Ds_intf.S) = struct
  module C = Classic_ckpt.Make (Ds)
  module L = Lsm_ckpt.Make (Ds)

  (* The checkpoint backend [cfg] names. *)
  let kit cfg = if cfg.Config.lsm_ckpt then L.kit else C.kit

  (* The sockets of the fibers one recovery runs at once, the recovering
     fiber's first: the suffix scan, on socket 0 where the log lives, one
     copy per other volatile replica on its socket, and the backend's
     copies on the persistence socket. *)
  let recovery_sockets cfg =
    let topo = Sim.topology () in
    let p = topo.Sim.Topology.sockets - 1 in
    (Sim.socket () :: 0 :: List.init (replica_count cfg topo - 1) succ)
    @ List.init (kit cfg).Checkpoint.copies (fun _ -> p)

  (** The fewest cores of one socket that a recovery of an instance with
      [cfg], started from the calling fiber, needs: one per fiber in
      [recovery_sockets] on its busiest socket. Its fibers take consecutive
      cores from the caller's up; the rest of its core budget (see
      [rebuild]'s [cores]) goes to the copies as helpers, so recoveries
      whose budgets start that many cores apart never share a core. *)
  let recovery_width cfg =
    let socks = recovery_sockets cfg in
    List.fold_left
      (fun w s -> max w (List.length (List.filter (( = ) s) socks)))
      0 socks

  type replica = {
    rid : int;
    socket : int;
    ds : Ds.handle;
    alloc : Alloc.t;
    lt_addr : int; (* localTail *)
    combiner : Locks.Trylock.t;
    rw : Locks.Rw.t;
    slots : int; (* base address of beta slots *)
    solo : bool;
        (* the socket hosts exactly one worker: its combiner collects only
           the caller's own slot instead of sweeping all beta *)
  }

  type t = {
    mem : Memory.t;
    roots : Roots.t;
    cfg : Config.t;
    beta : int;
    n_replicas : int;
    replicas : replica array;
    log : Log.t;
    ctrl : int; (* control arena base address *)
    ct_addr : int; (* completedTail (NVM in durable mode) *)
    p_alloc : Alloc.t option;
    p_reps : Ds.handle Checkpoint.replica array;
        (* 2 entries, or empty when volatile *)
    p_socket : int;
    trace : Trace.t;
    prefill : (int * int array) list;
        (* ops establishing the initial state, for the checkers *)
    ann : Announce.t option;
        (* persistent announce/response table ([Config.detect] only) *)
    next_seq : int array;
        (* ghost per-thread auto-seqno counters, seeded from the announce
           table at build time so recovered clients continue their own
           sequence; empty unless detect *)
    mutable stop_flag : bool;
    mutable p_thread_running : bool;
    (* detectability counters (no simulated cost) *)
    mutable detect_announces : int;
    mutable detect_responses : int;
    mutable detect_reconciled : int;
    mutable txn_gate : (op:int -> args:int array -> bool) option;
        (* Sharded-transaction hook ([Sharded_uc]): called by the
           persistence thread before applying a log entry to the active
           persistent replica. [false] means the entry is a cross-shard
           prepare whose commit decision is still pending — the catch-up
           stops in front of it (progress so far is kept) and retries on
           the next cycle, so a checkpoint can never bake in an effect
           that recovery might have to roll back. The gate must make the
           decision it approves durable before returning [true]. *)
    tel : Phases.t option;
        (* phase spans, captured from the ambient telemetry registry at
           construction; [None] on uninstrumented runs *)
    ckpt : Ds.handle Checkpoint.backend;
        (* the paper's replica pair ([Classic_ckpt]) or, under
           [Config.lsm_ckpt], the incremental store ([Lsm_ckpt]) *)
    committed : unit Sim.Once.t;
        (* filled once the checkpoint [p_reps] catch up is committed: at
           once on creation and when recovery joins its copies, by the
           background commit otherwise ([build]); the persistence thread
           starts on it *)
    (* checkpoint cost accounting, comparable across both backends
       (simulated time inside [ckpt.checkpoint]) *)
    mutable ckpt_count : int;
    mutable ckpt_cost_total : int;
    mutable ckpt_cost_last : int;
  }

  let durable t = t.cfg.Config.mode = Config.Durable
  let has_persistence t = t.cfg.Config.mode <> Config.Volatile

  (* this instance's absolute root slot for relative slot [s] *)
  let rslot t s = t.cfg.Config.root_base + s

  (* ---- control-word helpers ---- *)

  let read_log_tail t = Memory.read t.mem (t.ctrl + off_log_tail)
  let read_log_min t = Memory.read t.mem (t.ctrl + off_log_min)
  let write_log_min t v = Memory.write t.mem (t.ctrl + off_log_min) v
  let read_flush_boundary t = Memory.read t.mem (t.ctrl + off_flush_boundary)

  let write_flush_boundary t v =
    Memory.write t.mem (t.ctrl + off_flush_boundary) v

  let update_now_addr t rid = t.ctrl + off_update_now + rid
  let read_ct t = Memory.read t.mem t.ct_addr
  let read_local_tail t r = Memory.read t.mem r.lt_addr

  let read_p_local_tail t p = Memory.read t.mem t.p_reps.(p).Checkpoint.meta

  (* ---- construction ---- *)

  (* A replayed log entry: (index, op, args, (tid, seqno) tag). *)
  type entry = int * int * int array * (int * int)

  (* The log suffix as recovery's scan publishes it: a chain of
     write-once cells, each a chunk of entries in log order and the cell
     after it, ending in [Ended]. *)
  type feed = Chunk of entry array * feed Sim.Once.t | Ended

  (* Entries per [Chunk]. The scan reads an entry (one line load) faster
     than a copy replays one, so the size only sets how soon the first
     replay can start; a shorter suffix is published whole as the scan
     ends, so the checkers' small scopes replay it after the scan. *)
  let chunk_entries = 64

  (* What a recovery hands [build]: the checkpoint [mount] read;
     [scan ~emit] reads the log suffix, passing each entry to [emit] in
     log order; [on_response e resp]
     sees replica 0's response to suffix entry [e]; [prior] is the
     committed generation it recovered from, [(checkpoint stamp, log
     base, completedTail address)], or [None] when it recovered from a
     gap record; [background] lets the persistence side's copies finish
     after [build] returns. *)
  type recovery = {
    stable : Ds.handle Checkpoint.stable;
    scan : emit:(entry -> unit) -> unit;
    on_response : entry -> int -> unit;
    prior : (int * int * int) option;
    background : bool;
  }

  let apply_ops ds ops =
    List.iter (fun (op, args) -> ignore (Ds.execute ds ~op ~args)) ops

  (* Build a full UC instance. Runs inside a fiber; the caller's
     allocator binding is replaced. Without [recovery] the object is
     [prefill] applied to an empty one, and the backend's checkpoint zero
     is a copy of it. With [recovery], every replica is a copy of the
     mounted checkpoint's master with the suffix replayed into it as the
     scan reads it, and [cores] is that recovery's core budget (see
     [rebuild]).
     Returns the instance and its [install] step: recovery defers every
     root write to it, creation writes its roots as it goes. A recovery's
     [install] commits with one root word, [slot_pending]: it publishes a
     gap record there, one flushed line naming the generation recovered
     from ([prior]: the checkpoint's stamp, log base, completedTail) and
     this one (log base, completedTail), before pointing [slot_ct] and
     [slot_log] at the new log; while it is set, recovery reads the
     record and ignores every other root of the instance. The rebuilt
     checkpoint is committed by the backend's commit, then by clearing
     the record: in [install] once the persistence side's copies are
     joined, in the background commit when they run on past [install]. A
     recovery from a gap record ([prior = None]) keeps the record and
     joins its copies, so a gap is never more than one generation deep. *)
  let build ?recovery ?(cores = max_int) mem roots cfg ~prefill =
    let topo = Sim.topology () in
    let beta = topo.Sim.Topology.cores_per_socket in
    Config.validate cfg ~beta;
    (match cfg.Config.persist_policy with
     | Some p -> Memory.set_policy mem p
     | None -> ());
    if cfg.Config.flit then begin
      Memory.set_flit mem true;
      (* FliT also defers the combiner's payload fence, as [optimize-persist]
         admits, unless the configured policy sets that site. An entry is
         one cache line, so a write-back carries payload and emptyBit to
         media together: an unfenced publish-then-crash leaves only holes,
         which recovery skips as uncompleted operations (§5.2). *)
      let p = Persist.copy (Memory.policy mem) in
      if Persist.get p Persist.Log_fence_payload = Persist.Emit then begin
        Persist.set p Persist.Log_fence_payload Persist.Defer_to_next_fence;
        Memory.set_policy mem p
      end
    end;
    let kit = kit cfg in
    let workers = socket_workers cfg topo in
    let n_replicas = replica_count cfg topo in
    let p_socket = topo.Sim.Topology.sockets - 1 in
    let ctrl_aid = Memory.new_arena mem ~kind:Memory.Dram ~home:0 in
    let ctrl = Memory.addr_of ~aid:ctrl_aid ~offset:0 in
    let mode = cfg.Config.mode in
    let log =
      Log.create mem ~mirror:cfg.Config.log_mirror ~size:cfg.Config.log_size
        ~durable:(mode = Config.Durable)
    in
    Memory.write mem (ctrl + off_log_tail) 0;
    Memory.write mem (ctrl + off_log_min) (cfg.Config.log_size - 1);
    Memory.write mem (ctrl + off_flush_boundary)
      (if mode = Config.Volatile then max_int / 2 else cfg.Config.epsilon);
    (* volatile replicas, one per occupied socket *)
    let master_ds =
      match Option.bind recovery (fun r -> r.stable.Checkpoint.master) with
      | Some ds -> ds
      | None ->
        (* an empty master, built in a scratch volatile heap *)
        let scratch = Alloc.create_volatile mem ~home:0 in
        Context.set_default scratch;
        let ds = Ds.create mem in
        apply_ops ds prefill;
        ds
    in
    let tel = Phases.make ~tag:cfg.Config.tag () in
    (* two DRAM words the persistence thread's replicas may use as tails *)
    let m0 = ctrl + 48 and m1 = ctrl + 56 in
    let env pa =
      { Checkpoint.mem; roots; cfg; pa; p_socket; log; tails = (m0, m1);
        replicas = n_replicas; tel }
    in
    (* the recovery suffix, streamed by [rebuild]'s scan; [scan_clean]
       is set once the scan has read all of it without raising *)
    let feed = Sim.Once.create () and scan_clean = ref false in
    (* a copy of the master, split across [helpers], with each chunk of
       the recovery suffix replayed into it through [apply] as soon as
       the scan publishes it *)
    let clone ?(helpers = []) apply =
      let ds = Context.with_helpers helpers (fun () -> Ds.copy master_ds) in
      let rec replay cell =
        match Sim.Once.get cell with
        | Chunk (es, next) ->
          Array.iter (apply ds) es;
          replay next
        | Ended -> ()
      in
      if Option.is_some recovery then replay feed;
      ds
    in
    let make_replica ?helpers prepare rid =
      let alloc = Alloc.create_volatile mem ~home:rid in
      Context.set_default alloc;
      (* replica 0's responses to the suffix, held until the scan has
         ended cleanly: a torn suffix fails recovery, which reconciles
         nothing *)
      let held = ref [] in
      let settle () =
        if !scan_clean then begin
          Option.iter
            (fun r -> List.iter (fun (e, resp) -> r.on_response e resp) (List.rev !held))
            recovery;
          held := []
        end
      in
      let ds =
        clone ?helpers (fun ds ((_, op, args, _) as e) ->
            prepare rid ds ~op ~args;
            let resp = Ds.execute ds ~op ~args in
            if rid = 0 then begin
              held := (e, resp) :: !held;
              settle ()
            end)
      in
      settle ();
      let lt_addr = Alloc.alloc alloc 8 in
      let combiner = Locks.Trylock.make mem (Alloc.alloc alloc 8) in
      let dist = cfg.Config.dist_rw in
      let rw_words = max Memory.line_words (Locks.Rw.size_words ~dist ~ncores:beta) in
      (* over-allocate one line and round up: the distributed lock's
         per-core padding only isolates lines if its base is line-aligned,
         and the preceding Ds.copy allocations need not leave the bump
         pointer on a line boundary *)
      let rw_raw = Alloc.alloc alloc (rw_words + Memory.line_words) in
      let rw_base =
        (rw_raw + Memory.line_words - 1) / Memory.line_words * Memory.line_words
      in
      let rw = Locks.Rw.make ~dist ~ncores:beta mem rw_base in
      let slots = Alloc.alloc alloc (beta * slot_words) in
      Memory.write mem lt_addr 0;
      Memory.write mem (ctrl + off_update_now + rid) 0;
      { rid; socket = rid; ds; alloc; lt_addr; combiner; rw; slots;
        solo = workers.(rid) = 1 }
    in
    (* the built instance, once [install] has run: the background commit
       waits on it *)
    let installed = Sim.Once.create () in
    (* Recovery defers its root writes, and the backend's commit writes
       when joined, to [install]; creation makes them at once. *)
    let deferred = ref [] in
    let defer f = deferred := f :: !deferred in
    let set_root slot v =
      if Option.is_some recovery then defer (fun () -> Roots.set roots slot v)
      else Roots.set roots slot v
    in
    let rb = cfg.Config.root_base in
    (* A recovery builds all replicas at once, each a copy of the master
       on a fiber of its own socket: replica 0 here, on the recovering
       fiber, the other volatile ones on their sockets, and the backend's
       copies (classic: the persistent pair; lsm: the shadow) on the
       persistence socket, where the checkpoint is local. The log suffix
       is scanned meanwhile on socket 0, where the log lives, and streamed
       to the copies in chunks ([feed]): a copy replays each chunk once
       its own copy is done and the scan has published it, so the replay
       overlaps the scan. Each fiber takes a core of its
       own ([recovery_width]), and a socket's other cores of the [cores]
       budget are dealt evenly to the copies on it as helpers
       ([Context.with_helpers]). A large copy splits into parts up to its
       fan-out ([Context.parts]): it uses every core it is lent, its
       helpers allocating from chunks of the copy's own arenas
       ([Alloc.child]). The volatile copies and the scan are joined before
       [rebuild] returns; a helper's raise is re-raised here, the scan's
       first, so torn media fails recovery as it would on one fiber.
       No op reads the persistence side's copies, so with [background]
       they run on after [rebuild] returns, on the persistence socket's
       cores of the budget that no worker of the recovered instance is
       placed on ([Sim.Topology.place]) — the persistence core among
       them, whose thread waits for their commit — and keep those cores
       until they end: a copy on each of the first cores, the rest dealt
       to them as helpers, or all in turn on a lone core. Once every copy
       is built and [install] has run, the backend commits them, clears
       [slot_pending], and fills [committed]. Without [background], or
       with no such core, they are joined with the rest and [install]
       commits. *)
    let rebuild r =
      let pa = Alloc.create_persistent mem ~home:p_socket in
      let ckpt, side = r.stable.Checkpoint.recover (env (Some pa)) in
      let n_copies = kit.Checkpoint.copies in
      let vol = Array.make n_replicas None in
      let raised = ref [] and scan_raised = ref None in
      let guard f () =
        try f ()
        with (Invalid_argument _ | Failure _) as e -> raised := e :: !raised
      in
      (* publish the suffix into [feed] a chunk at a time, and end it
         (early, on a raise) *)
      let scan_job () =
        let cell = ref feed and chunk = ref [] and n = ref 0 in
        let publish () =
          if !n > 0 then begin
            let next = Sim.Once.create () in
            Sim.Once.fill !cell (Chunk (Array.of_list (List.rev !chunk), next));
            cell := next;
            chunk := [];
            n := 0
          end
        in
        let emit e =
          chunk := e :: !chunk;
          incr n;
          if !n = chunk_entries then publish ()
        in
        (match r.scan ~emit with
         | () ->
           scan_clean := true;
           publish ()
         | exception ((Invalid_argument _ | Failure _) as e) -> scan_raised := Some e);
        Sim.Once.fill !cell Ended
      in
      let copy ~background helpers i () =
        side.copy ~background ~helpers i (fun () ->
            clone ~helpers (fun ds (_, op, args, _) ->
                ckpt.Checkpoint.catch_up ds ~op ~args))
      in
      (* [at]: this fiber, the scan, the volatile copies, the persistence
         side's; every one but the scan is a copy *)
      let base = (Sim.self ()).Sim.core in
      let taken = Array.make topo.Sim.Topology.sockets 0 in
      let at =
        Array.of_list
          (List.map
             (fun socket ->
               taken.(socket) <- taken.(socket) + 1;
               (socket, (base + taken.(socket) - 1) mod beta))
             (recovery_sockets cfg))
      in
      let budget = min beta (max cores (recovery_width cfg)) in
      (* socket [s]'s cores of the budget past its first [from] *)
      let spare s from =
        List.init (max 0 (budget - from)) (fun c -> (s, (base + from + c) mod beta))
      in
      (* how many of the first [n] fibers of [at] are on socket [s] *)
      let on s n =
        List.length (List.filter (fun k -> fst at.(k) = s) (List.init n Fun.id))
      in
      let sync = Array.length at - n_copies in
      let bg_cores =
        if not r.background then []
        else begin
          let worker_cores =
            List.init
              (min cfg.Config.workers (Sim.Topology.total_cores topo - 1))
              (Sim.Topology.place topo)
          in
          List.filter
            (fun c -> not (List.mem c worker_cores))
            (spare p_socket (on p_socket sync))
        end
      in
      let background = bg_cores <> [] in
      let placed = if background then sync else Array.length at in
      (* [n] consecutive runs of [cores]: run [j] takes [len / n] cores,
         one more while [j < len mod n] *)
      let deal n cores =
        let len = List.length cores and rest = ref cores in
        Array.init n (fun j ->
            let mine = (len / n) + if j < len mod n then 1 else 0 in
            let run = List.filteri (fun c _ -> c < mine) !rest in
            rest := List.filteri (fun c _ -> c >= mine) !rest;
            run)
      in
      let helpers = Array.make (Array.length at) [] in
      for s = 0 to topo.Sim.Topology.sockets - 1 do
        let copies =
          List.filter
            (fun k -> k <> 1 && fst at.(k) = s)
            (List.init placed Fun.id)
        in
        let spare =
          List.filter
            (fun c -> not (List.mem c bg_cores))
            (spare s (on s placed))
        in
        if copies <> [] then
          let runs = deal (List.length copies) spare in
          List.iteri (fun j k -> helpers.(k) <- runs.(j)) copies
      done;
      let job k f = (fst at.(k), snd at.(k), f) in
      let jobs =
        List.init (n_replicas - 1) (fun i ->
            let rid = i + 1 in
            job (1 + rid)
              (guard (fun () ->
                   vol.(rid) <-
                     Some
                       (make_replica ~helpers:helpers.(1 + rid)
                          ckpt.Checkpoint.prepare rid))))
        @ (if background then []
           else
             List.init n_copies (fun i ->
                 let k = n_replicas + 1 + i in
                 job k (guard (copy ~background:false helpers.(k) i))))
        @ [ job 1 scan_job ]
      in
      if background then begin
        (* A raise here is torn media, which replica 0's copy of the same
           checkpoint raises in the recovery itself: the gap stays open. *)
        let torn = ref false in
        let copy h i () =
          try copy ~background:true h i ()
          with Invalid_argument _ | Failure _ -> torn := true
        in
        Sim.spawn_here ~socket:p_socket ~core:(snd (List.hd bg_cores)) (fun () ->
            (if List.length bg_cores < n_copies then
               List.iter (fun i -> copy [] i ()) (List.init n_copies Fun.id)
             else
               let h = deal n_copies (List.filteri (fun j _ -> j >= n_copies) bg_cores) in
               Sim.fork_join
                 (List.init (n_copies - 1) (fun j ->
                      (p_socket, snd (List.nth bg_cores (j + 1)), copy h.(j + 1) (j + 1))))
                 (copy h.(0) 0));
            if not !torn then begin
              let t = Sim.Once.get installed in
              let reps = side.commit ~defer:(fun f -> f ()) in
              Roots.set roots (rb + slot_pending) Memory.null;
              Array.blit reps 0 t.p_reps 0 (Array.length reps);
              Sim.Once.fill t.committed ()
            end)
      end;
      Sim.fork_join jobs
        (guard (fun () ->
             vol.(0) <-
               Some (make_replica ~helpers:helpers.(0) ckpt.Checkpoint.prepare 0)));
      (match (!scan_raised, List.rev !raised) with
       | Some e, _ | None, e :: _ -> raise e
       | None, [] -> ());
      let reps =
        if background then None
        else Some (side.commit ~defer)
      in
      (Array.map Option.get vol, (pa, ckpt, reps))
    in
    let replicas, rebuilt =
      match recovery with
      | None -> (Array.init n_replicas (make_replica (fun _ _ ~op:_ ~args:_ -> ())), None)
      | Some r ->
        let vols, rebuilt = rebuild r in
        (vols, Some rebuilt)
    in
    let background = match rebuilt with Some (_, _, None) -> true | _ -> false in
    (* persistent side *)
    let p_alloc =
      match rebuilt with
      | Some (pa, _, _) -> Some pa
      | None when mode = Config.Volatile -> None
      | None -> Some (Alloc.create_persistent mem ~home:p_socket)
    in
    Option.iter Context.set_persistent p_alloc;
    let ct_addr =
      if mode = Config.Durable then begin
        let a = Alloc.alloc (Option.get p_alloc) 8 in
        Memory.write mem a 0;
        Memory.clflush ~site:Persist.Prep_init mem a;
        a
      end
      else begin
        let ct = ctrl + 40 in
        Memory.write mem ct 0;
        ct
      end
    in
    let p_reps, ckpt =
      match rebuilt with
      | None -> kit.Checkpoint.create (env p_alloc) ~master:master_ds ~first:replicas.(0).ds
      | Some (_, ckpt, Some reps) -> (reps, ckpt)
      | Some (_, ckpt, None) ->
        (* stand-ins until the background commit puts the copies in: DRAM
           tails reading 0, as the copies' own do until the persistence
           thread, which starts on the commit, advances them; their handle
           is never read *)
        Memory.write mem m0 0;
        Memory.write mem m1 0;
        ( [| { Checkpoint.meta = m0; pds = master_ds }; { meta = m1; pds = master_ds } |],
          ckpt )
    in
    if mode = Config.Durable then begin
      set_root (rb + slot_ct) ct_addr;
      set_root (rb + slot_log) log.Log.base
    end;
    let gap =
      match recovery with
      | Some { prior = Some prior; _ } ->
        Some (Alloc.alloc (Option.get p_alloc) Memory.line_words, prior)
      | Some { prior = None; _ } | None -> None
    in
    let committed = Sim.Once.create () in
    if not background then Sim.Once.fill committed ();
    (* announce/response table: reattach the pre-crash one through its root
       (recovery must keep the records a crash left behind), create and
       register a fresh one on first build *)
    let n_threads = Sim.Topology.total_cores topo in
    let ann =
      if not cfg.Config.detect then None
      else begin
        let existing = Roots.get roots (rb + slot_announce) in
        if existing <> Memory.null then
          Some (Announce.attach mem ~base:existing ~threads:n_threads)
        else begin
          let a = Announce.create (Option.get p_alloc) ~threads:n_threads in
          set_root (rb + slot_announce) (Announce.base a);
          Some a
        end
      end
    in
    let next_seq =
      match ann with
      | None -> [||]
      | Some a -> Array.init n_threads (Announce.peek_seqno a)
    in
    let t =
      {
        mem;
        roots;
        cfg;
        beta;
        n_replicas;
        replicas;
        log;
        ctrl;
        ct_addr;
        p_alloc;
        p_reps;
        p_socket;
        trace = Trace.create ();
        prefill;
        ann;
        next_seq;
        stop_flag = false;
        p_thread_running = false;
        detect_announces = 0;
        detect_responses = 0;
        detect_reconciled = 0;
        txn_gate = None;
        tel;
        ckpt;
        committed;
        ckpt_count = 0;
        ckpt_cost_total = 0;
        ckpt_cost_last = 0;
      }
    in
    let pending = rb + slot_pending in
    let install () =
      Option.iter
        (fun (a, (stamp, log_base, ct)) ->
          List.iteri
            (fun i v -> Memory.write mem (a + i) v)
            [ stamp; log_base; ct; log.Log.base; ct_addr ];
          Memory.clflush ~site:Persist.Roots_set mem a;
          Roots.set roots pending a)
        gap;
      List.iter (fun f -> f ()) (List.rev !deferred);
      if background then Sim.Once.fill installed t
      else if Option.is_some recovery then Roots.set roots pending Memory.null
    in
    (t, install)

  (** Create a UC whose initial object state is [prefill] applied to an
      empty object. Must be called from inside a fiber. *)
  let create ?(prefill = []) mem roots cfg =
    (* give the creating fiber a binding so Context.alloc works *)
    Context.bind ~default:(Alloc.create_volatile mem ~home:0) ();
    fst (build mem roots cfg ~prefill)

  (* ---- worker-side machinery ---- *)

  (** Bind the calling fiber to its socket's replica. Must be called once
      at the start of every worker fiber. *)
  let register_worker t =
    let socket = Sim.socket () in
    if socket >= t.n_replicas then
      invalid_arg "Prep_uc: worker on a socket with no replica";
    Context.bind ~default:t.replicas.(socket).alloc ()

  let my_replica t = t.replicas.(Sim.socket ())

  (** Apply published log entries [localTail, upto) to replica [r]. Caller
      holds the replica's write lock and has the right allocator bound. *)
  let update_from_log t r ~upto =
    let lt = read_local_tail t r in
    if upto > lt then
      Phases.in_span t.tel (fun pt -> pt.Phases.catchup) (fun () ->
          for idx = lt to upto - 1 do
            let op, args = Log.wait_and_read t.log idx in
            t.ckpt.prepare r.rid r.ds ~op ~args;
            ignore (Ds.execute r.ds ~op ~args)
          done;
          Memory.write t.mem r.lt_addr upto)

  (** Algorithm 3's helping mechanism, worker side: while waiting, a
      combiner checks whether someone asked its replica to catch up. *)
  let help_if_asked t r =
    if Memory.read t.mem (update_now_addr t r.rid) = 1 then begin
      Locks.Rw.write_acquire r.rw;
      update_from_log t r ~upto:(read_ct t);
      Locks.Rw.write_release r.rw;
      Memory.write t.mem (update_now_addr t r.rid) 0
    end

  (** Algorithm 3: advance (or wait on) logMin so the entries we are about
      to write are safe to reuse. [old_tail, new_tail) is our reservation. *)
  let update_or_wait_on_log_min t r ~old_tail ~new_tail =
    let log_size = t.cfg.Config.log_size in
    let low_mark () = read_log_min t - t.beta in
    if new_tail <= low_mark () then ()
    else if old_tail <= low_mark () then begin
      (* we reserved the lowMark entry: we advance logMin *)
      let lm = ref (low_mark ()) in
      while !lm < new_tail do
        (* find the least up-to-date replica *)
        let lowest = ref max_int and low_rid = ref 0 in
        for rid = 0 to t.n_replicas - 1 do
          let lt = read_local_tail t t.replicas.(rid) in
          if lt < !lowest then begin
            lowest := lt;
            low_rid := rid
          end
        done;
        if has_persistence t then
          for p = 0 to 1 do
            let lt = read_p_local_tail t p in
            if lt < !lowest then begin
              lowest := lt;
              low_rid := t.n_replicas + p
            end
          done;
        if !lowest + log_size - 1 = read_log_min t then begin
          (* logMin is pinned by a laggard: ask it to catch up *)
          if !low_rid >= t.n_replicas then begin
            let p = !low_rid - t.n_replicas in
            let active = Roots.get t.roots (rslot t Checkpoint.slot_active) in
            if active <> p && read_flush_boundary t >= !lm then
              (* the stable persistent replica is the laggard: force the
                 persistence thread to checkpoint and swap early *)
              write_flush_boundary t (!lm - 1)
          end
          else Memory.write t.mem (update_now_addr t !low_rid) 1;
          let laggard_tail () =
            if !low_rid >= t.n_replicas then
              read_p_local_tail t (!low_rid - t.n_replicas)
            else read_local_tail t t.replicas.(!low_rid)
          in
          while laggard_tail () = !lowest do
            help_if_asked t r;
            (* If the laggard is a volatile replica whose own threads have
               gone quiet (e.g. they finished their work), nobody will ever
               service updateReplicaNow — so help it directly through its
               combiner lock. Without this, a replica with no active
               workers pins logMin and wedges log reuse forever. *)
            if !low_rid < t.n_replicas && !low_rid <> r.rid then begin
              let lag = t.replicas.(!low_rid) in
              if Locks.Trylock.try_acquire lag.combiner then begin
                Locks.Rw.write_acquire lag.rw;
                Context.with_allocator lag.alloc (fun () ->
                    update_from_log t lag ~upto:(read_ct t));
                Locks.Rw.write_release lag.rw;
                Locks.Trylock.release lag.combiner
              end
            end;
            Sim.spin ()
          done;
          if !low_rid < t.n_replicas then
            Memory.write t.mem (update_now_addr t !low_rid) 0
        end
        else write_log_min t (!lowest + log_size - 1);
        lm := low_mark ()
      done
    end
    else
      (* someone else owns the lowMark entry: wait for logMin to advance *)
      while low_mark () < new_tail do
        help_if_asked t r;
        Sim.spin ()
      done

  (** Algorithm 4: reserve [n] log entries, blocking while the persistence
      thread is behind the flush boundary. Returns the start index.

      The gate must be strict: a batch reserved at [tail = boundary] would
      put completed entries at indexes [boundary .. boundary + n - 1],
      i.e. up to ε+β completed ops past the last durable checkpoint — one
      more than the ε+β−1 loss bound PREP-Buffered promises. Reserving
      only while [tail < boundary] caps the straddle at β−1 entries.
      (Found by differential crash-point fuzzing of the flush-elimination
      layer: the faster variant reached a schedule where a full batch
      landed exactly on the boundary.) *)
  let reserve_log_entries t r n =
    let rec attempt () =
      let tail = read_log_tail t in
      if has_persistence t && read_flush_boundary t <= tail then begin
        (* the log has outrun the checkpoint: block until the persistence
           thread swaps, helping our own replica if asked *)
        help_if_asked t r;
        Sim.spin ();
        attempt ()
      end
      else begin
        let new_tail = tail + n in
        if Memory.cas t.mem (t.ctrl + off_log_tail) ~expected:tail ~desired:new_tail
        then begin
          update_or_wait_on_log_min t r ~old_tail:tail ~new_tail;
          tail
        end
        else attempt ()
      end
    in
    attempt ()

  (** CAS completedTail forward to at least [target]; in durable mode the
      CAS (ours or a racing combiner's that overtook [target]) is followed
      by a CLFLUSH (§5.2). The flush is issued even when another combiner
      already advanced past [target]: that combiner's own CLFLUSH may not
      have executed yet, and responding to clients on the strength of a
      completedTail that is only coherently — not durably — advanced would
      lose those completions on a crash. With FliT tracking the extra flush
      is elided whenever the completedTail line is in fact already
      persisted, which is the common case. The persistency policy
      [prep.completed_tail=elide] removes the flush altogether: the
      planted fault the explorer and fuzzer must catch. *)
  let advance_completed_tail t target =
    let rec loop () =
      let ct = read_ct t in
      if ct >= target then ()
      else if Memory.cas t.mem t.ct_addr ~expected:ct ~desired:target then ()
      else loop ()
    in
    loop ();
    if durable t then
      Phases.in_span t.tel (fun pt -> pt.Phases.persist) (fun () ->
          Memory.clflush ~site:Persist.Prep_completed_tail t.mem t.ct_addr)

  let slot_addr r core = r.slots + (core * slot_words)

  let collect_slot t r core batch =
    let s = slot_addr r core in
    if Memory.read t.mem (s + sl_full) = 1 then begin
      Memory.write t.mem (s + sl_full) 0;
      let op = Memory.read t.mem (s + sl_op) in
      let argc = Memory.read t.mem (s + sl_argc) in
      let args = Array.init argc (fun i -> Memory.read t.mem (s + sl_args + i)) in
      let seq =
        if t.cfg.Config.detect then Memory.read t.mem (s + sl_seq) else 0
      in
      batch := (core, op, args, seq) :: !batch
    end

  (* The combiner: collect the local batch, append it to the log, bring the
     replica up to date, and apply + answer the batch (paper §3). *)
  let combine t r =
    Phases.in_span t.tel (fun pt -> pt.Phases.combine) @@ fun () ->
    (* collect and claim full slots. A lone worker's replica collects only
       the caller's slot: safe whatever the real placement, since every
       publisher spins in [try_collect] and combines for itself, so a
       slot no sweep visits only waits for its own publisher's round. *)
    let batch = ref [] in
    if r.solo then collect_slot t r (Sim.self ()).Sim.core batch
    else
      for core = t.beta - 1 downto 0 do
        collect_slot t r core batch
      done;
    let batch = !batch in
    let n = List.length batch in
    if n > 0 then begin
      let detect = t.cfg.Config.detect in
      (* the planted fence-hoisting fault: leave the log entries' write-backs
         queued (no fence) while responses go straight to media below *)
      let hoist_fences =
        detect && t.cfg.Config.fault = Config.Response_before_log_persist
      in
      let tid_of core = (r.socket * t.beta) + core in
      let tail = reserve_log_entries t r n in
      let new_tail = tail + n in
      let publish_span f = Phases.in_span t.tel (fun pt -> pt.Phases.publish) f
      and persist_span f = Phases.in_span t.tel (fun pt -> pt.Phases.persist) f in
      let each f =
        for i = tail to new_tail - 1 do
          f i
        done
      in
      let persist_batch site =
        persist_span (fun () -> each (Log.persist_entry t.log));
        if not hoist_fences then
          persist_span (fun () -> Log.fence ~site t.log)
      in
      (* phase 1: payloads (arguments then op), write-backs, one fence *)
      publish_span (fun () ->
          List.iteri
            (fun i (core, op, args, seq) ->
              Log.write_payload t.log (tail + i) ~op ~args;
              if detect then
                Log.write_tag t.log (tail + i) ~tid:(tid_of core) ~seqno:seq;
              Trace.logged ~tid:(tid_of core) ~seqno:seq t.trace (tail + i)
                ~op ~args)
            batch);
      persist_batch Persist.Log_fence_payload;
      (* phase 2: publish emptyBits, write-backs, one fence *)
      publish_span (fun () -> each (Log.publish t.log));
      persist_batch Persist.Log_fence_publish;
      Locks.Rw.write_acquire r.rw;
      update_from_log t r ~upto:tail;
      Memory.write t.mem r.lt_addr new_tail;
      if not detect then begin
        advance_completed_tail t new_tail;
        (* apply own batch from the collected copies and answer *)
        List.iteri
          (fun i (core, op, args, _) ->
            t.ckpt.prepare r.rid r.ds ~op ~args;
            let resp = Ds.execute r.ds ~op ~args in
            let s = slot_addr r core in
            Memory.write t.mem (s + sl_resp) resp;
            Memory.write t.mem (s + sl_ghost) (tail + i);
            Memory.write t.mem (s + sl_ready) 1)
          batch
      end
      else begin
        (* Detectable execution reorders completion: every response must be
           durable *before* the completedTail may advance past its entry
           (exactly-once R2 — an op the checkpoint or replay recovers must
           have a recoverable response, else the client re-submits it), and
           the log fence above already made every entry durable before any
           response is written (R1 — a durable response must never outrun
           its entry). Only then are the flat-combining slots answered. *)
        let resps =
          List.map
            (fun (core, op, args, seq) ->
              t.ckpt.prepare r.rid r.ds ~op ~args;
              let resp = Ds.execute r.ds ~op ~args in
              (match t.ann with
               | Some ann ->
                 Phases.in_span t.tel (fun pt -> pt.Phases.detect) (fun () ->
                     let tid = tid_of core in
                     Announce.write_response ann ~tid ~seqno:seq ~result:resp;
                     if hoist_fences then Announce.flush_response ann ~tid
                     else Announce.persist_response ann ~tid);
                 t.detect_responses <- t.detect_responses + 1
               | None -> ());
              (core, resp))
            batch
        in
        if not hoist_fences then
          Phases.in_span t.tel (fun pt -> pt.Phases.detect) (fun () ->
              Memory.sfence ~site:Persist.Detect_response t.mem);
        advance_completed_tail t new_tail;
        List.iteri
          (fun i (core, resp) ->
            let s = slot_addr r core in
            Memory.write t.mem (s + sl_resp) resp;
            Memory.write t.mem (s + sl_ghost) (tail + i);
            Memory.write t.mem (s + sl_ready) 1)
          resps
      end;
      Locks.Rw.write_release r.rw
    end

  (** Publish an update into the calling core's flat-combining slot and
      return without waiting for a response. The caller owns exactly one
      slot per replica, so at most one update may be outstanding per
      construction; collect it with [try_collect] (or spin via
      [collect_update]) before submitting the next. Split out of
      [execute_update] so a multi-shard router can keep one update in
      flight per shard from a single worker fiber. *)
  let submit_update t r ~seq ~op ~args =
    let core = (Sim.self ()).Sim.core in
    let s = slot_addr r core in
    Memory.write t.mem (s + sl_op) op;
    Memory.write t.mem (s + sl_argc) (Array.length args);
    Array.iteri (fun i v -> Memory.write t.mem (s + sl_args + i) v) args;
    if t.cfg.Config.detect then Memory.write t.mem (s + sl_seq) seq;
    Memory.write t.mem (s + sl_ready) 0;
    Memory.write t.mem (s + sl_full) 1

  (** One non-blocking attempt to collect the outstanding update: the
      slot's response if it is ready, otherwise — after lending a hand as
      combiner if the lock is free, exactly like the spinning path of
      [execute_update] — [None]. Never sleeps; the caller decides whether
      to spin or to make progress elsewhere first. *)
  let try_collect t r =
    let core = (Sim.self ()).Sim.core in
    let s = slot_addr r core in
    let ready () = Memory.read t.mem (s + sl_ready) = 1 in
    let take () =
      let resp = Memory.read t.mem (s + sl_resp) in
      Memory.write t.mem (s + sl_ready) 0;
      Trace.completed t.trace (Memory.read t.mem (s + sl_ghost));
      Some resp
    in
    if ready () then take ()
    else if Locks.Trylock.try_acquire r.combiner then begin
      (* flat combining's double check: the response may have landed
         between the read above and the lock. Combining anyway is not just
         wasted work — a round can block at the flush boundary on this
         caller's own undecided cross-shard prepare (its decision waits for
         this very response), deadlocking the shard. *)
      if ready () then begin
        Locks.Trylock.release r.combiner;
        take ()
      end
      else begin
        combine t r;
        Locks.Trylock.release r.combiner;
        if ready () then take () else None
      end
    end
    else begin
      help_if_asked t r;
      None
    end

  let collect_update t r =
    let rec wait () =
      match try_collect t r with
      | Some resp -> resp
      | None ->
        Sim.spin ();
        wait ()
    in
    wait ()

  let execute_update t r ~seq ~op ~args =
    submit_update t r ~seq ~op ~args;
    collect_update t r

  let execute_readonly t r ~op ~args =
    let rec loop () =
      let ct = read_ct t in
      if read_local_tail t r >= ct then
        if t.ckpt.needs_write r.rid ~op ~args then begin
          (* rematerialisation mutates the replica, so a reader that still
             has unresolved keys in its footprint runs under the write
             lock for this one operation *)
          Locks.Rw.write_acquire r.rw;
          t.ckpt.prepare r.rid r.ds ~op ~args;
          let resp = Ds.execute r.ds ~op ~args in
          Locks.Rw.write_release r.rw;
          resp
        end
        else begin
          Locks.Rw.read_acquire r.rw;
          let resp = Ds.execute r.ds ~op ~args in
          Locks.Rw.read_release r.rw;
          resp
        end
      else if Locks.Trylock.try_acquire r.combiner then begin
        (* bring the replica up to date ourselves *)
        Locks.Rw.write_acquire r.rw;
        update_from_log t r ~upto:(read_ct t);
        Locks.Rw.write_release r.rw;
        Locks.Trylock.release r.combiner;
        loop ()
      end
      else begin
        (* Same obligation as [execute_update]'s spin path: while waiting
           for the combiner, service Algorithm 3's updateReplicaNow. A
           reader that only spins here can deadlock the system — if the
           current combiner is stuck in [update_or_wait_on_log_min]
           waiting for *this* replica to catch up, nobody else on the
           socket will ever service the request. *)
        help_if_asked t r;
        Sim.spin ();
        loop ()
      end
    in
    loop ()

  (** The stable global thread id of the calling worker fiber: its socket
      times β plus its core — the index into the announce/response table
      and the tag recovery reconciles against. *)
  let thread_id t =
    let f = Sim.self () in
    (f.Sim.socket * t.beta) + f.Sim.core

  (** ExecuteConcurrent (paper §3/§4.1): run [op] with [args] on the
      concurrent object and return its response. The sequential object's
      own classification ([Ds.is_readonly]) picks the read-only path.

      Under detectable execution every update is first announced: the op
      descriptor and a client seqno are written to the calling thread's
      persistent announce record and CLFLUSHed before the flat-combining
      slot is published, so the intent is on media before the system can
      act on it. [seqno] must be strictly increasing per thread; when
      omitted, an internal per-thread counter (seeded from the announce
      table itself on recovery) assigns the next one. *)
  let execute ?seqno t ~op ~args =
    let r = my_replica t in
    if Ds.is_readonly ~op then execute_readonly t r ~op ~args
    else
      match t.ann with
      | None -> execute_update t r ~seq:0 ~op ~args
      | Some ann ->
        let tid = thread_id t in
        let seq =
          match seqno with Some s -> s | None -> t.next_seq.(tid) + 1
        in
        Phases.in_span t.tel (fun pt -> pt.Phases.detect) (fun () ->
            Announce.announce ann ~tid ~seqno:seq ~op ~args);
        t.next_seq.(tid) <- seq;
        t.detect_announces <- t.detect_announces + 1;
        (match t.tel with
         | Some pt -> Telemetry.Registry.add_to pt.Phases.reg "detect.announce" 1
         | None -> ());
        execute_update t r ~seq ~op ~args

  (* ---- persistence thread (Algorithm 2) ---- *)

  (* One checkpoint at the flush boundary, whichever the backend, then the
     next ε window opens. Its simulated time is the checkpoint cost,
     comparable across both backends. *)
  let checkpoint t =
    Phases.in_span t.tel t.ckpt.span @@ fun () ->
    let t0 = Sim.now () in
    (* injected fault: opening the next window before the checkpoint is
       durable lets completed ops race two windows ahead of the stable
       state, so a crash mid-checkpoint loses up to ~2ε ops *)
    if t.cfg.Config.fault = Config.Early_boundary_advance then
      write_flush_boundary t (read_flush_boundary t + t.cfg.Config.epsilon);
    t.ckpt.checkpoint ();
    t.ckpt_count <- t.ckpt_count + 1;
    t.ckpt_cost_last <- Sim.now () - t0;
    t.ckpt_cost_total <- t.ckpt_cost_total + t.ckpt_cost_last;
    if t.cfg.Config.fault <> Config.Early_boundary_advance then
      write_flush_boundary t (read_flush_boundary t + t.cfg.Config.epsilon)

  let persistence_loop t =
    (* a recovered instance's persistent replicas may still be in the
       background: catching up needs them *)
    Sim.Once.get t.committed;
    Context.bind
      ~default:(Alloc.create_volatile t.mem ~home:t.p_socket)
      ?persistent:t.p_alloc ();
    t.p_thread_running <- true;
    let span_name = "persistence" ^ t.cfg.Config.tag in
    (* the whole loop is one root span, so a profile attributes the
       persistence thread's entire lifetime (its self-time is the
       poll/spin overhead left after the catch-up and persist children);
       the [Config.tag] suffix gives each shard's persistence fiber its
       own span and trace track *)
    (match t.tel with
     | Some pt ->
       if t.cfg.Config.tag <> "" then
         Telemetry.Registry.cur_name_track (Sim.self ()).Sim.fid span_name;
       Telemetry.Registry.span_enter pt.Phases.reg
         (Telemetry.Registry.span pt.Phases.reg span_name)
     | None -> ());
    while not t.stop_flag do
      let active = Roots.get t.roots (rslot t Checkpoint.slot_active) in
      let rep = t.p_reps.(active) in
      let tail = read_ct t in
      let lt = Memory.read t.mem rep.Checkpoint.meta in
      if tail > lt then
        (* Bring the active persistent replica up to date. With a
           [txn_gate] installed, stop in front of the first entry whose
           cross-shard commit decision is still pending — keeping the
           progress made so far — and re-poll next cycle; the checkpoint
           below must never contain an effect recovery could roll back. *)
        Phases.in_span t.tel (fun pt -> pt.Phases.catchup) (fun () ->
            let reached = ref lt in
            (try
               for idx = lt to tail - 1 do
                 let op, args = Log.wait_and_read t.log idx in
                 (match t.txn_gate with
                  | Some gate when not (gate ~op ~args) -> raise Exit
                  | _ -> ());
                 t.ckpt.catch_up rep.pds ~op ~args;
                 reached := idx + 1
               done
             with Exit -> ());
            (* under lsm the active replica is always 0 (a seal never
               swaps): its tail follows the shadow, and the stable one is
               the seal watermark ([Lsm_ckpt.Make.backend]) *)
            if !reached > lt then Memory.write t.mem rep.meta !reached);
      t.ckpt.poll ();
      if read_flush_boundary t <= Memory.read t.mem rep.meta then checkpoint t
      else Sim.spin ()
    done;
    (match t.tel with
     | Some pt ->
       Telemetry.Registry.span_exit pt.Phases.reg
         (Telemetry.Registry.span pt.Phases.reg span_name)
     | None -> ());
    t.p_thread_running <- false

  (** Spawn the persistence thread on its dedicated core — plus the
      backend's background fiber, if any, sharing that core. No-op for the
      volatile variant. *)
  let start_persistence t =
    if has_persistence t then begin
      Sim.spawn_here ~socket:t.p_socket ~core:(t.beta - 1) (fun () ->
          persistence_loop t);
      Option.iter
        (fun f ->
          Sim.spawn_here ~socket:t.p_socket ~core:(t.beta - 1) (fun () ->
              f ~stopped:(fun () -> t.stop_flag)))
        t.ckpt.background
    end

  let stop t = t.stop_flag <- true

  (* ---- observation ---- *)

  let trace t = t.trace
  let prefill_ops t = t.prefill

  (** Harness-side counters for the gated hot-path optimisations (all zero
      when the corresponding flag is off), keyed for the bench JSON. *)
  let counters t =
    let read_acquires = ref 0 and writer_sweeps = ref 0 in
    Array.iter
      (fun r ->
        read_acquires := !read_acquires + Locks.Rw.read_acquires r.rw;
        writer_sweeps := !writer_sweeps + Locks.Rw.writer_sweeps r.rw)
      t.replicas;
    [
      ("rw_read_acquires", !read_acquires);
      ("rw_writer_sweeps", !writer_sweeps);
      ("log_primary_reads", t.log.Log.primary_reads);
      ("log_mirror_reads", t.log.Log.mirror_reads);
      ("log_mirror_stores", t.log.Log.mirror_stores);
      ("detect_announces", t.detect_announces);
      ("detect_responses", t.detect_responses);
      ("detect_reconciled", t.detect_reconciled);
      ("ckpt_count", t.ckpt_count);
      ("ckpt_cost_total", t.ckpt_cost_total);
      ("ckpt_cost_last", t.ckpt_cost_last);
    ]
    @ t.ckpt.counters ()

  (** Port the instance's counters onto registry [reg], *adding* to any
      values already there — so sampling several instances into one
      registry sums them. Keys are unchanged from the pre-telemetry bench
      JSON (the counter-key compatibility guarantee). *)
  let sample t reg =
    List.iter
      (fun (k, v) -> Telemetry.Registry.add_to reg k v)
      (counters t)

  (** Bring every volatile replica up to date with the completedTail.
      Convenience for quiescent observation (tests, examples); not part of
      the paper's interface. Must run inside a bound fiber. *)
  let sync t =
    Array.iter
      (fun r ->
        Locks.Rw.write_acquire r.rw;
        Context.with_allocator r.alloc (fun () ->
            update_from_log t r ~upto:(read_ct t));
        Locks.Rw.write_release r.rw)
      t.replicas

  (** Cost-free snapshot of the abstract state (replica 0's view). *)
  let snapshot t = t.ckpt.snapshot t.replicas.(0).ds

  (** Hash of the instance's ghost (OCaml-heap) progress the memory
      fingerprints cannot see — stop flag, trace, [Config.lsm_ckpt] state,
      client seqno counters — for the explorer's state dedup and
      parked-fiber wakes. *)
  let ghost_hash t =
    Memory.h2
      (if t.stop_flag then 1 else 0)
      (Memory.h2 (Trace.hash t.trace)
         (Memory.h2 (t.ckpt.ghost ()) (Array.fold_left Memory.h2 0 t.next_seq)))

  (* ---- recovery (paper §5.1 / §5.2) ---- *)

  (* The entries of the log at [base] that replay applies, as (index, op,
     args, tag), from [from] to the recovered completedTail [ct], skipping
     holes (unpersisted entries) and entries [keep] rejects: each passed
     to [emit] as it is read, and all of them returned. An entry is one
     cache line, read with one line load. *)
  let scan_suffix ?keep ~emit old_t ~base ~ct ~from =
    let cfg = old_t.cfg in
    (* replay must read the NVM media truth, never the (volatile) DRAM
       mirror — the planted [Mirror_read_on_recovery] fault does exactly
       that wrong thing so the fuzzer can prove it notices *)
    let mirror =
      if cfg.Config.fault = Config.Mirror_read_on_recovery
         && base = old_t.log.Log.base
      then Log.mirror_base old_t.log
      else None
    in
    let log =
      Log.attach old_t.mem ~base ~size:cfg.Config.log_size ~durable:true ~mirror
    in
    (* Under detectable execution the scan continues past the recovered
       completedTail: a combiner's responses are fenced *before* its
       completedTail CLFLUSH, so a crash in between leaves durable
       responses whose entries sit beyond the media completedTail —
       skipping them would break R1 (resolve would say Completed for an op
       the recovered state lost). One log lap bounds the scan: no live
       entry can sit further ahead, and stale-lap slots read as holes (or,
       for never-reserved slots on odd laps, carry no seqno tag and are
       rejected below). Holes anywhere are uncompleted ops, which durable
       linearizability already permits dropping. *)
    let scan_to = if cfg.Config.detect then ct + cfg.Config.log_size else ct in
    let kept = ref [] in
    for idx = from to scan_to - 1 do
      match Log.read_entry log idx with
      | Some (op, args, tag)
        when (idx < ct || snd tag > 0)
             && (match keep with None -> true | Some keep -> keep ~op ~args) ->
        let e = (idx, op, args, tag) in
        emit e;
        kept := e :: !kept
      | Some _ | None -> ()
    done;
    Array.of_list (List.rev !kept)

  (* Durability accounting against the ghost trace, for a recovered state
     holding the checkpoint's trace indexes [0, base_lt) plus the replayed
     [suffix]; and the rebuilt instance's prefill — the old one plus every
     recovered op — so the checkers keep working after a later crash. *)
  let account old_t ~base_lt ~ct suffix =
    let replayed =
      Array.to_list (Array.map (fun (idx, _, _, _) -> idx) suffix)
    in
    let applied = List.init base_lt Fun.id @ replayed in
    let applied_set = Hashtbl.create 256 in
    List.iter (fun i -> Hashtbl.replace applied_set i ()) applied;
    let lost =
      List.filter
        (fun i -> not (Hashtbl.mem applied_set i))
        (Trace.completed_indexes old_t.trace)
    in
    let skipped_completed =
      (* holes are completed indexes in [base_lt, ct) missing from the
         replay *)
      if replayed = [] then 0
      else List.length (List.filter (fun i -> i >= base_lt && i < ct) lost)
    in
    let rec contiguous expect = function
      | [] -> true
      | i :: rest -> i = expect && contiguous (expect + 1) rest
    in
    let report =
      { applied; lost_completed = List.length lost; skipped_completed;
        contiguous_prefix = contiguous 0 applied; reconciled = 0 }
    in
    let checkpointed =
      List.init base_lt (fun i ->
          let e = Trace.get old_t.trace i in
          (e.Trace.op, e.Trace.args))
    in
    let replayed_ops =
      Array.to_list (Array.map (fun (_, op, args, _) -> (op, args)) suffix)
    in
    (report, old_t.prefill @ checkpointed @ replayed_ops)

  (** Rebuild after [Memory.crash]. [old_t] supplies configuration and
      the ghost trace; all simulated-memory state is read back from NVM
      media through the root directory. The log suffix past the
      checkpoint is replayed only where [keep ~op ~args] holds: sharded
      recovery answers from the post-crash decision-table media, rolling
      committed prepares forward and skipping unprepared/aborted ones like
      log holes. Returns the rebuilt UC, a report for the durability
      checkers, and [install], which writes the rebuilt UC's roots. [cores]
      is the recovery's budget of consecutive cores on every socket, from
      the calling fiber's up (default: the whole socket; never fewer than
      [recovery_width]); the cores its own fibers leave idle become the
      copies' helpers. Must run inside a fiber.

      Both checkpoint backends recover by one protocol
      ([Checkpoint]): the backend's mount reads the stable checkpoint —
      the one a gap record names while [slot_pending] is set — writing
      nothing; the durable suffix past its tail is scanned once and
      streamed to every copy, which replays it as the scan reaches it
      ([build]), writing nothing durable but reconciled response slots,
      and those only once the scan has read the whole suffix without
      raising, so a crash before [install] leaves the checkpoint
      and log recovery started from, and recovering again gives the same
      result. [install] makes the UC recoverable from that checkpoint
      through a gap record ([build]): a crash from then on recovers it,
      its log suffix and the new log's durable prefix, which [account]
      reads as the rebuilt UC's prefill plus its own suffix. With
      [background] (the default) the persistence side's copies are still
      being built when [rebuild] returns, and the backend commits them
      once they are and [install] has run; until then [slot_pending] is
      set. A sharded lane that rebuilds another shard after this one
      passes [false], so it hands the next shard no core a copy still
      holds. A recovery that starts from a gap record joins its copies,
      and its [install] commits. [account] charges nothing. A log is [(base,
      completedTail address, mine)], oldest first, [mine] when it is
      [old_t]'s own: the committed generation's, which is [old_t]'s; or,
      while a gap record is pending, the generation a recovery started
      from and the one it built, each replayed from its own durable
      prefix. *)
  let rebuild ?keep ?cores ?(background = true) old_t =
    if not (has_persistence old_t) then
      invalid_arg "Prep_uc.recover: volatile variant cannot recover";
    let mem = old_t.mem and roots = old_t.roots and cfg = old_t.cfg in
    let rb = cfg.Config.root_base in
    let gap = Roots.get roots (rb + slot_pending) in
    let record =
      if gap = Memory.null then None else Some (Memory.read_words mem gap 5)
    in
    let stable =
      (kit cfg).Checkpoint.mount mem roots cfg
        ~stamp:(Option.map (fun w -> w.(0)) record)
    in
    let logs, prior =
      match record with
      | None ->
        ( [ (Roots.get roots (rb + slot_log), Roots.get roots (rb + slot_ct), true) ],
          Some (stable.Checkpoint.stamp, old_t.log.Log.base, old_t.ct_addr) )
      | Some w ->
        ( [ (w.(1), w.(2), w.(2) = old_t.ct_addr);
            (w.(3), w.(4), w.(4) = old_t.ct_addr) ],
          None )
    in
    let base_lt = stable.Checkpoint.covered in
    let durable = cfg.Config.mode = Config.Durable in
    let logs =
      List.mapi
        (fun i (base, ct_addr, mine) ->
          ( base,
            (if durable then Memory.read mem ct_addr else 0),
            (if i = 0 then base_lt else 0),
            mine ))
        logs
    in
    let ann =
      if durable && cfg.Config.detect then
        let base = Roots.get roots (rb + slot_announce) in
        if base <> Memory.null then
          Some
            (Announce.attach mem ~base
               ~threads:(Sim.Topology.total_cores (Sim.topology ())))
        else None
      else None
    in
    let scanned = ref [] in
    let scan ~emit =
      if durable then
        List.iter
          (fun (base, ct, from, _) ->
            scanned := !scanned @ [ scan_suffix ?keep ~emit old_t ~base ~ct ~from ])
          logs
    in
    (* replay reconciliation: rewrite the submitting thread's response slot
       with the replay-computed result so resolve reflects every op the
       recovered state actually contains (R2 for replayed entries).
       Monotone: never regress a slot that already covers a later seqno. *)
    let reconciled = ref 0 in
    let reconcile (_, _, _, (tid, seqno)) resp =
      match ann with
      | Some a ->
        if seqno > 0 && Announce.response_seqno a ~tid < seqno then begin
          Announce.write_response a ~tid ~seqno ~result:resp;
          Announce.flush_response a ~tid;
          incr reconciled
        end
      | None -> ()
    in
    let t, install =
      build
        ~recovery:
          { stable; scan; on_response = reconcile; prior;
            background = background && Option.is_some prior }
        ?cores mem roots cfg ~prefill:[]
    in
    (* [old_t]'s trace covers its own log: the logs before it are in its
       prefill, and no later one holds an op of it *)
    let report, prefill =
      match List.find_index (fun (_, _, _, mine) -> mine) logs with
      | Some i ->
        let _, ct, from, _ = List.nth logs i in
        account old_t ~base_lt:from ~ct
          (if durable then List.nth !scanned i else [||])
      | None -> account old_t ~base_lt:0 ~ct:0 [||]
    in
    ( { t with prefill; detect_reconciled = !reconciled },
      { report with reconciled = !reconciled },
      install )

  (** Recover after [Memory.crash]: [rebuild], then [install]. The UC it
      returns is recoverable at once, through its gap record while its
      persistent copies still finish (see [rebuild]). Must run inside a
      fiber. *)
  let recover ?keep ?cores old_t =
    let t, report, install = rebuild ?keep ?cores old_t in
    install ();
    (t, report)

  (* ---- detectability queries ---- *)

  let require_ann t =
    match t.ann with
    | Some a -> a
    | None -> invalid_arg "Prep_uc: detectable execution is not enabled"

  (** The recovery-side detectability query (run it on the *recovered*
      instance, after [recover] has reconciled response slots from the
      log): what should thread [tid] conclude about its last announced
      operation? Clients re-submit exactly when the verdict is [Lost] —
      or [Unannounced] while they know they had something in flight,
      which can only happen if the very first announce tore before its
      flush returned, i.e. before the op could have been submitted. *)
  let resolve t ~tid =
    let a = require_ann t in
    match (Announce.response a ~tid, Announce.announced a ~tid) with
    | ( Announce.Valid { seqno; payload = result; _ },
        Announce.Valid { seqno = announced; _ } ) ->
      if announced > seqno then
        (* announced a later op than any response covers: it is lost *)
        Lost { seqno = announced }
      else Completed { seqno; result }
    | Announce.Valid { seqno; payload = result; _ },
      (Announce.Torn _ | Announce.Empty) ->
      (* the response is the latest trustworthy word: a torn announce's op
         was never submitted (its flush never returned), so the response
         still names the last op that took effect *)
      Completed { seqno; result }
    | (Announce.Torn _ | Announce.Empty), Announce.Valid { seqno; _ } ->
      (* a durable intent with no durable effect. A torn response slot
         cannot hide a completed op: responses are fenced before the
         completedTail advances and rewritten by replay reconciliation, so
         anything recovered has a valid response *)
      Lost { seqno }
    | (Announce.Torn _ | Announce.Empty), (Announce.Torn _ | Announce.Empty)
      ->
      Unannounced
end
