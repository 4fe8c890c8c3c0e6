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
   base 0). *)
let slot_active = 1 (* p_activePReplica *)
let slot_meta0 = 2 (* address of persistent replica 0's metadata block *)
let slot_meta1 = 3 (* address of persistent replica 1's metadata block *)
let slot_ct = 4 (* address of d_completedTail (durable only) *)
let slot_log = 5 (* log base address (durable only) *)
let slot_announce = 6 (* announce/response table base (detect only) *)

(* Control-arena word offsets (one cache line apart). *)
let off_log_tail = 8
let off_log_min = 16
let off_flush_boundary = 24
let off_update_now = 32 (* one word per volatile replica *)

let slot_words = 16 (* flat-combining slot: 2 cache lines per core *)

(* The incremental-checkpoint manifest registers one absolute root slot
   per instance, above every shard stride and the decision table: shard
   strides are [i*8 + 1 .. i*8 + 6] for i <= 6 plus absolute slot 7, so
   slots 56..63 are free — slot [56 + i] belongs to the instance whose
   [root_base] is [i * 8]. *)
let lsm_manifest_slot root_base = 56 + (root_base / 8)

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

(* The sockets of the fibers one recovery runs at once, the recovering
   fiber's first. Classic recovery adds the suffix scan, on socket 0 where
   the log lives, one copy per other volatile replica on its socket, and
   the two persistent copies on the persistence socket; lsm recovery runs
   on the recovering fiber alone. *)
let recovery_sockets cfg =
  let topo = Sim.topology () in
  let p = topo.Sim.Topology.sockets - 1 in
  if cfg.Config.lsm_ckpt then [ Sim.socket () ]
  else
    (Sim.socket () :: 0 :: List.init (replica_count cfg topo - 1) succ)
    @ [ p; p ]

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
  module L = Lsm_ckpt.Make (Ds)

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

  type preplica = {
    meta : int; (* NVM block: [0] localTail, [1] ds root address *)
    mutable pds : Ds.handle;
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
    p_reps : preplica array; (* 2 entries, or empty when volatile *)
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
        (* the paper's replica pair ([classic]) or, under
           [Config.lsm_ckpt], the incremental store ([Lsm_ckpt]) *)
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

  let read_p_local_tail t p = Memory.read t.mem t.p_reps.(p).meta

  (* ---- construction ---- *)

  let apply_ops ds ops =
    List.iter (fun (op, args) -> ignore (Ds.execute ds ~op ~args)) ops

  (* The paper's checkpoint backend (Algorithm 2): two persistent replicas,
     the active one caught up inside the persistent heap [pa]; a
     checkpoint writes back the heap, then swaps active/stable and
     persists the switch. *)
  let classic mem roots cfg pa : Ds.handle Checkpoint.backend =
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
               (Alloc.arenas (Option.get pa)));
          Memory.sfence ~site:Persist.Prep_checkpoint mem;
          (* swap active/stable and persist the switch before opening the
             next window (see module comment on ordering) *)
          Roots.set roots active (1 - Roots.get roots active));
      span = (fun pt -> pt.Phases.persist);
      background = None;
      counters = (fun () -> Lsm_ckpt.idle_counters);
      ghost = (fun () -> 0);
      snapshot = Ds.snapshot;
    }

  (* Build a full UC instance around [master]'s current contents. Runs
     inside a fiber; the caller's allocator binding is replaced.
     [store] is recovery's handoff under [Config.lsm_ckpt]: the mounted,
     re-sealed store and [master]'s hydration view — [master] (and every
     copy of it) is then a partial view to be hydrated lazily.
     [replay] is classic recovery's handoff [(scan, suffix, on_response)]:
     [master] is then the stable checkpoint, which the build only reads;
     [scan ()] reads the log suffix into [suffix]; every replica is a copy
     of the checkpoint with that suffix replayed into it, and
     [on_response e resp] sees replica 0's response to suffix entry [e];
     [cores] is that recovery's core budget (see [rebuild]).
     Returns the instance and its [install] step: recovery defers every
     root write to it, creation writes its roots as it goes. *)
  let build ?store ?replay ?(cores = max_int) mem roots cfg ~prefill ~master =
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
      match master with
      | Some ds -> ds
      | None ->
        (* an empty master, built in a scratch volatile heap *)
        let scratch = Alloc.create_volatile mem ~home:0 in
        Context.set_default scratch;
        let ds = Ds.create mem in
        apply_ops ds prefill;
        ds
    in
    (* a copy of the master, split across [helpers], with the recovery
       suffix replayed into it *)
    let clone ?(helpers = []) ~reconcile () =
      let ds = Context.with_helpers helpers (fun () -> Ds.copy master_ds) in
      Option.iter
        (fun (_, suffix, on_response) ->
          Array.iter
            (fun ((_, op, args, _) as e) ->
              let resp = Ds.execute ds ~op ~args in
              if reconcile then on_response e resp)
            (Sim.Once.get suffix))
        replay;
      ds
    in
    let make_replica ?helpers rid =
      let alloc = Alloc.create_volatile mem ~home:rid in
      Context.set_default alloc;
      let ds = clone ?helpers ~reconcile:(rid = 0) () in
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
    let make_prep pa src =
      Context.with_persistent (fun () ->
          let pds = src () in
          let meta = Alloc.alloc pa 8 in
          Memory.write mem meta 0;
          Memory.write mem (meta + 1) (Ds.root_addr pds);
          { meta; pds })
    in
    (* Classic recovery builds all replicas at once, each a copy of the
       stable checkpoint on a fiber of its own socket: replica 0 here, on
       the recovering fiber, the other volatile ones on their sockets, and
       the two persistent ones on the persistence socket, where the
       checkpoint is local. The log suffix is scanned meanwhile on socket
       0, where the log lives; a copy waits for the scan only before it
       replays. Each fiber takes a core of its own ([recovery_width]),
       and a socket's other cores of the [cores] budget are dealt evenly
       to the copies on it as helpers ([Context.with_helpers]). A copy of
       one arena or more splits into one part per half arena of nodes, up
       to its fan-out ([Rbtree.copy]): a large copy uses every core it is
       lent, and a part under one arena fills one arena of its sub-heap.
       A persistent copy allocates from a sub-heap of its own, persists
       only that once its replay is done, its helpers splitting the
       write-back one arena each, and hands it to the one persistent
       allocator after the join. The join comes before any root is
       written; a helper's raise is re-raised here, the scan's first, so
       torn media fails recovery as it would on one fiber. *)
    let rebuild (scan, suffix, _) =
      let pa = Alloc.create_persistent mem ~home:p_socket in
      let vol = Array.make n_replicas None and per = Array.make 2 None in
      let raised = ref [] and scan_raised = ref None in
      let guard f () =
        try f ()
        with (Invalid_argument _ | Failure _) as e -> raised := e :: !raised
      in
      let scan_job () =
        match scan () with
        | s -> Sim.Once.fill suffix s
        | exception ((Invalid_argument _ | Failure _) as e) ->
          scan_raised := Some e;
          Sim.Once.fill suffix [||]
      in
      let build_prep helpers i () =
        let sub = Alloc.sub pa in
        Context.set_persistent sub;
        let prep = make_prep sub (clone ~helpers ~reconcile:false) in
        Context.with_helpers helpers (fun () ->
            Alloc.persist_heap ~split:Context.spread sub);
        per.(i) <- Some (prep, sub)
      in
      (* [at]: this fiber, the scan, the volatile copies, the persistent
         ones; every one but the scan is a copy *)
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
      let helpers = Array.make (Array.length at) [] in
      Array.iteri
        (fun s used ->
          let copies =
            List.filter
              (fun k -> k <> 1 && fst at.(k) = s)
              (List.init (Array.length at) Fun.id)
          in
          let n = List.length copies and spare = budget - used in
          if n > 0 && spare > 0 then
            (* copy [j] of [n] takes [spare / n] consecutive cores, one
               more while [j < spare mod n] *)
            ignore
              (List.fold_left
                 (fun (j, next) k ->
                   let mine = (spare / n) + if j < spare mod n then 1 else 0 in
                   helpers.(k) <-
                     List.init mine (fun c -> (s, (base + next + c) mod beta));
                   (j + 1, next + mine))
                 (0, used) copies))
        taken;
      let job k f = (fst at.(k), snd at.(k), f) in
      let jobs =
        List.init (n_replicas - 1) (fun i ->
            let rid = i + 1 in
            job (1 + rid)
              (guard (fun () ->
                   vol.(rid) <- Some (make_replica ~helpers:helpers.(1 + rid) rid))))
        @ [ job (n_replicas + 1)
              (guard (build_prep helpers.(n_replicas + 1) 0));
            job (n_replicas + 2)
              (guard (build_prep helpers.(n_replicas + 2) 1));
            job 1 scan_job ]
      in
      Sim.fork_join jobs
        (guard (fun () -> vol.(0) <- Some (make_replica ~helpers:helpers.(0) 0)));
      (match (!scan_raised, List.rev !raised) with
       | Some e, _ | None, e :: _ -> raise e
       | None, [] -> ());
      let per = Array.map Option.get per in
      Array.iter (fun (_, sub) -> Alloc.adopt pa sub) per;
      ( Array.map Option.get vol,
        Some (pa, (fst per.(0), fst per.(1))) )
    in
    let replicas, rebuilt =
      match replay with
      | None -> (Array.init n_replicas make_replica, None)
      | Some r -> rebuild r
    in
    (* Recovery defers its root writes to [install], creation makes them
       at once. *)
    let deferred = ref [] in
    let set_root slot v =
      if Option.is_some replay || Option.is_some store then
        deferred := (slot, v) :: !deferred
      else Roots.set roots slot v
    in
    let tel = Phases.make ~tag:cfg.Config.tag () in
    (* persistent side *)
    let p_alloc, p_reps, ct_addr, ckpt =
      if mode = Config.Volatile then begin
        let ct = ctrl + 40 in
        Memory.write mem ct 0;
        (None, [||], ct, classic mem roots cfg None)
      end
      else begin
        let pa =
          match rebuilt with
          | Some (pa, _) -> pa
          | None -> Alloc.create_persistent mem ~home:p_socket
        in
        Context.set_persistent pa;
        let ct_addr =
          if mode = Config.Durable then begin
            let a = Alloc.alloc pa 8 in
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
        let rb = cfg.Config.root_base in
        let p_reps, ckpt =
          if not cfg.Config.lsm_ckpt then begin
            let p0, p1 =
              match rebuilt with
              | Some (_, preps) -> preps
              | None ->
                let make_prep () =
                  make_prep pa (fun () -> Ds.copy replicas.(0).ds)
                in
                let p0 = make_prep () and p1 = make_prep () in
                (* checkpoint zero: both replicas durable before any op *)
                Alloc.persist_heap pa;
                (p0, p1)
            in
            set_root (rb + slot_active) 0;
            set_root (rb + slot_meta0) p0.meta;
            set_root (rb + slot_meta1) p1.meta;
            ([| p0; p1 |], classic mem roots cfg (Some pa))
          end
          else begin
            (* No NVM replica: the persistence thread runs one volatile
               shadow, and both p-replica tails are DRAM words, the
               shadow's tail and the seal watermark, which keeps Algorithm
               3's laggard machinery working unchanged. *)
            let shadow =
              Context.with_allocator
                (Alloc.create_volatile mem ~home:p_socket)
                (fun () -> Ds.copy master_ds)
            in
            let m0 = ctrl + 48 and m1 = ctrl + 56 in
            Memory.write mem m0 0;
            Memory.write mem m1 0;
            set_root (rb + slot_active) 0;
            let ckpt =
              L.backend ?recovered:store mem ~pa ~p_socket ~log ~tails:(m0, m1)
                ~replicas:n_replicas ~fanout:cfg.Config.lsm_fanout
                ~publish_first:
                  (cfg.Config.fault = Config.Manifest_before_segment_seal)
                ~tel ~register:(set_root (lsm_manifest_slot rb)) master_ds
            in
            ([| { meta = m0; pds = shadow }; { meta = m1; pds = shadow } |], ckpt)
          end
        in
        if mode = Config.Durable then begin
          set_root (rb + slot_ct) ct_addr;
          set_root (rb + slot_log) log.Log.base
        end;
        (Some pa, p_reps, ct_addr, ckpt)
      end
    in
    (* announce/response table: reattach the pre-crash one through its root
       (recovery must keep the records a crash left behind), create and
       register a fresh one on first build *)
    let n_threads = Sim.Topology.total_cores topo in
    let ann =
      if not cfg.Config.detect then None
      else begin
        let rb = cfg.Config.root_base in
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
        ckpt_count = 0;
        ckpt_cost_total = 0;
        ckpt_cost_last = 0;
      }
    in
    let install () =
      List.iter (fun (slot, v) -> Roots.set roots slot v) (List.rev !deferred)
    in
    (t, install)

  (** Create a UC whose initial object state is [prefill] applied to an
      empty object. Must be called from inside a fiber. *)
  let create ?(prefill = []) mem roots cfg =
    (* give the creating fiber a binding so Context.alloc works *)
    Context.bind ~default:(Alloc.create_volatile mem ~home:0) ();
    fst (build mem roots cfg ~prefill ~master:None)

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
            let active = Roots.get t.roots (rslot t slot_active) in
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
      concurrent object and return its response. [readonly] defaults to
      the sequential object's own classification.

      Under detectable execution every update is first announced: the op
      descriptor and a client seqno are written to the calling thread's
      persistent announce record and CLFLUSHed before the flat-combining
      slot is published, so the intent is on media before the system can
      act on it. [seqno] must be strictly increasing per thread; when
      omitted, an internal per-thread counter (seeded from the announce
      table itself on recovery) assigns the next one. *)
  let execute ?readonly ?seqno t ~op ~args =
    let r = my_replica t in
    let ro = match readonly with Some b -> b | None -> Ds.is_readonly ~op in
    if ro then execute_readonly t r ~op ~args
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
      let active = Roots.get t.roots (rslot t slot_active) in
      let rep = t.p_reps.(active) in
      let tail = read_ct t in
      let lt = Memory.read t.mem rep.meta in
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
      fingerprints cannot see — stop flag, trace, [--lsm-ckpt] state,
      client seqno counters — for the explorer's state dedup and
      parked-fiber wakes. *)
  let ghost_hash t =
    Memory.h2
      (if t.stop_flag then 1 else 0)
      (Memory.h2 (Trace.hash t.trace)
         (Memory.h2 (t.ckpt.ghost ()) (Array.fold_left Memory.h2 0 t.next_seq)))

  (* ---- recovery (paper §5.1 / §5.2) ---- *)

  (* Mount the stable checkpoint through the roots, writing nothing — the
     backend is chosen here — and return the log index it covers up to
     with its replay, which builds the recovered instance: classic, from
     the stable replica ([build]'s [replay]); lsm, from the manifest's
     segments and [sealed_lt] ([Lsm_ckpt.Make.replay]). *)
  let mount old_t =
    let mem = old_t.mem and roots = old_t.roots and cfg = old_t.cfg in
    let rb = cfg.Config.root_base in
    if cfg.Config.lsm_ckpt then begin
      let l =
        Lsm_ckpt.mount mem
          ~base:(Roots.get roots (lsm_manifest_slot rb))
          ~fanout:cfg.Config.lsm_fanout
      in
      ( l.Lsm_ckpt.sealed_lt,
        fun ~scan ~suffix ~reconcile ~cores:_ ->
          Sim.Once.fill suffix (scan ());
          let master, view = L.replay l (Sim.Once.get suffix) ~reconcile in
          build ~store:(l, view) mem roots cfg ~prefill:[] ~master:(Some master) )
    end
    else begin
      let active = Roots.get roots (rb + slot_active) in
      let stable = 1 - active in
      let stable_meta =
        Roots.get roots (rb + if stable = 0 then slot_meta0 else slot_meta1)
      in
      let stable_lt = Memory.read mem stable_meta in
      let stable_root = Memory.read mem (stable_meta + 1) in
      let stable_ds = Ds.attach mem stable_root in
      ( stable_lt,
        fun ~scan ~suffix ~reconcile ~cores ->
          build ~replay:(scan, suffix, reconcile) ?cores mem roots cfg
            ~prefill:[] ~master:(Some stable_ds) )
    end

  (* The log entries replay applies, as (index, op, args, tag), from the
     checkpoint's tail [from] to the recovered completedTail [ct], skipping
     holes (unpersisted entries) and entries [keep] rejects. An entry is
     one cache line, read with one line load. *)
  let scan_suffix ?keep old_t ~ct ~from =
    let cfg = old_t.cfg in
    (* replay must read the NVM media truth, never the (volatile) DRAM
       mirror — the planted [Mirror_read_on_recovery] fault does exactly
       that wrong thing so the fuzzer can prove it notices *)
    let mirror =
      if cfg.Config.fault = Config.Mirror_read_on_recovery then
        Log.mirror_base old_t.log
      else None
    in
    let log =
      Log.attach old_t.mem
        ~base:(Roots.get old_t.roots (cfg.Config.root_base + slot_log))
        ~size:cfg.Config.log_size ~durable:true ~mirror
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
        kept := (idx, op, args, tag) :: !kept
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

  (** Rebuild after [Memory.crash], writing no root. [old_t] supplies
      configuration and the ghost trace; all simulated-memory state is
      read back from NVM media through the root directory. The log suffix
      past the checkpoint is replayed only where [keep ~op ~args] holds:
      sharded recovery answers from the post-crash decision-table media,
      rolling committed prepares forward and skipping unprepared/aborted
      ones like log holes. Returns the rebuilt UC, a report for the
      durability checkers, and [install], which writes the rebuilt UC's
      roots; the UC is not recoverable until it has run. [cores] is the
      recovery's budget of consecutive cores on every socket, from the
      calling fiber's up (default: the whole socket; never fewer than
      [recovery_width]); the cores its own fibers leave idle become the
      copies' helpers. Must run inside a fiber.

      One spine serves both checkpoint backends: [mount] the checkpoint,
      scan the durable suffix past its tail once, replay, then account
      for durability (which charges nothing). Only the replay is
      backend-specific ([mount]; classic's and lsm's recovery are
      contrasted in DESIGN.md's "Checkpoint backends"). Under classic,
      until [install] runs, recovery changes no pre-crash NVM word except
      reconciled response slots, so a crash at any point before then
      leaves the checkpoint and log it started from, and recovering again
      gives the same result. *)
  let rebuild ?keep ?cores old_t =
    if not (has_persistence old_t) then
      invalid_arg "Prep_uc.recover: volatile variant cannot recover";
    let mem = old_t.mem and roots = old_t.roots and cfg = old_t.cfg in
    let rb = cfg.Config.root_base in
    let base_lt, replay = mount old_t in
    let durable = cfg.Config.mode = Config.Durable in
    let ct =
      if durable then Memory.read mem (Roots.get roots (rb + slot_ct)) else 0
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
    let scan () =
      if durable then scan_suffix ?keep old_t ~ct ~from:base_lt else [||]
    in
    let suffix = Sim.Once.create () in
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
    let t, install = replay ~scan ~suffix ~reconcile ~cores in
    let report, prefill = account old_t ~base_lt ~ct (Sim.Once.get suffix) in
    ( { t with prefill; detect_reconciled = !reconciled },
      { report with reconciled = !reconciled },
      install )

  (** Recover after [Memory.crash]: [rebuild], then [install]. Must run
      inside a fiber. *)
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
