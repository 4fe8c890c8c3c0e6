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

(** Shared (ds-independent) state of the incremental log-structured
    checkpoint backend ([Config.lsm_ckpt]). The durable truth is the
    manifest plus the sealed segments; everything in here is a volatile
    mount of it plus the memtable, reproducible from NVM media and the
    log suffix past [sealed_lt]. *)
module Lsm = struct
  type pending_merge = {
    replaced : Segment.meta list;
        (* a contiguous same-level run of [segs], newest first *)
    merged : Segment.meta list;
        (* already built and sealed by the compaction fiber *)
  }

  type t = {
    mem : Memory.t;
    manifest : Manifest.t;
    fanout : int;
    memtable : Segment.Memtable.t;
        (* latest value per key written since the last seal *)
    mutable segs : Segment.meta list; (* mounted segment set, newest first *)
    mutable epoch : int; (* last published manifest epoch *)
    mutable sealed_lt : int;
        (* log entries [0, sealed_lt) of the current log epoch are covered
           by the sealed segments *)
    mutable pending : pending_merge option;
        (* handoff from the compaction fiber to the manifest's single
           writer (the persistence thread) *)
    (* harness-side counters (no simulated cost) *)
    mutable seals : int;
    mutable segments_built : int;
    mutable keys_sealed : int;
    mutable compactions : int;
    mutable bloom_skips : int;
    mutable range_skips : int;
    mutable seg_finds : int;
    mutable materialized : int;
  }

  let make mem manifest ~fanout ~segs ~epoch =
    {
      mem;
      manifest;
      fanout;
      memtable = Segment.Memtable.create ();
      segs;
      epoch;
      sealed_lt = 0;
      pending = None;
      seals = 0;
      segments_built = 0;
      keys_sealed = 0;
      compactions = 0;
      bloom_skips = 0;
      range_skips = 0;
      seg_finds = 0;
      materialized = 0;
    }

  (** Newest-first store lookup (charged reads). [Some v] may carry the
      tombstone; [None] means no segment knows the key. *)
  let store_find l key =
    let rec go = function
      | [] -> None
      | m :: rest ->
        if not (Segment.range_hit m key) then begin
          l.range_skips <- l.range_skips + 1;
          go rest
        end
        else if not (Segment.bloom_hit l.mem m key) then begin
          l.bloom_skips <- l.bloom_skips + 1;
          go rest
        end
        else (
          match Segment.find l.mem m key with
          | Some v ->
            l.seg_finds <- l.seg_finds + 1;
            Some v
          | None -> go rest)
    in
    go l.segs

  (** Cost-free live view of the whole store (checkers/snapshots):
      newest-first shadowing, tombstones dropped. *)
  let peek_live l =
    let seen = Hashtbl.create 64 and acc = ref [] in
    List.iter
      (fun m ->
        Array.iter
          (fun (k, v) ->
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.replace seen k ();
              if v <> Segment.tombstone then acc := (k, v) :: !acc
            end)
          (Segment.peek_array l.mem m))
      l.segs;
    List.sort (fun (a, _) (b, _) -> compare a b) !acc

  (** Publish the current segment list under a fresh epoch (persistence
      thread only — the manifest has a single writer). *)
  let publish l ~sealed_lt =
    l.epoch <- l.epoch + 1;
    Manifest.publish l.manifest ~epoch:l.epoch ~sealed_lt
      ~segs:(List.map (fun m -> m.Segment.addr) l.segs);
    l.sealed_lt <- sealed_lt

  (** Split sorted records into segment-sized chunks and allocate NVM for
      each; returns [(addr, chunk, meta)] newest-position-first metas. *)
  let plan_segments pa ~level recs =
    let n = Array.length recs in
    let rec chunks i =
      if i >= n then []
      else
        let len = min Segment.max_records (n - i) in
        Array.sub recs i len :: chunks (i + len)
    in
    List.map
      (fun chunk ->
        let count = Array.length chunk in
        let addr = Alloc.alloc_lines pa (Segment.lines_needed ~count) in
        let meta =
          {
            Segment.addr;
            count;
            level;
            min_key = fst chunk.(0);
            max_key = fst chunk.(count - 1);
            bloom_words = Segment.Bloom.words_for ~count;
          }
        in
        (addr, chunk, meta))
      (chunks 0)

  let build_planned l ~level planned =
    List.iter
      (fun (addr, chunk, _) -> ignore (Segment.build l.mem ~addr ~level chunk))
      planned;
    l.segments_built <- l.segments_built + List.length planned

  (** Seal sorted records [recs] into fresh level-0 segments, mount them
      and publish the manifest naming them with [sealed_lt] — segments
      built before the manifest names them. [publish_first] inverts that
      order: the planted [Manifest_before_segment_seal] fault. *)
  let seal ?(publish_first = false) l pa recs ~sealed_lt =
    let planned =
      if Array.length recs = 0 then [] else plan_segments pa ~level:0 recs
    in
    let metas = List.map (fun (_, _, m) -> m) planned in
    if publish_first then begin
      l.segs <- metas @ l.segs;
      publish l ~sealed_lt;
      build_planned l ~level:0 planned
    end
    else begin
      build_planned l ~level:0 planned;
      l.segs <- metas @ l.segs;
      publish l ~sealed_lt
    end

  (** Fold a finished background merge into the mounted set and republish
      the manifest (persistence thread only). *)
  let apply_pending l =
    match l.pending with
    | None -> ()
    | Some { replaced; merged } ->
      let rec splice = function
        | [] -> failwith "Lsm.apply_pending: replaced run not found"
        | m :: rest when m == List.hd replaced ->
          let rest' =
            List.fold_left (fun acc _ -> List.tl acc) (m :: rest) replaced
          in
          merged @ rest'
        | m :: rest -> m :: splice rest
      in
      l.segs <- splice l.segs;
      l.compactions <- l.compactions + 1;
      publish l ~sealed_lt:l.sealed_lt;
      l.pending <- None

  (** Pick the oldest contiguous run of [fanout] same-level segments, if
      any (compaction fiber; only when no merge is outstanding). *)
  let pick_merge l =
    if l.pending <> None then None
    else
      let rec runs acc cur = function
        | [] -> if List.length cur >= l.fanout then cur :: acc else acc
        | m :: rest -> (
          match cur with
          | c :: _ when c.Segment.level = m.Segment.level ->
            runs acc (m :: cur) rest
          | _ ->
            runs (if List.length cur >= l.fanout then cur :: acc else acc)
              [ m ] rest)
      in
      (* [runs] walks newest→oldest accumulating reversed runs, so each
         completed run is oldest-first; the first completed run pushed
         last is the newest — take the head of [acc] as the oldest. *)
      match runs [] [] l.segs with
      | [] -> None
      | run :: _ ->
        (* restore newest-first order and trim to exactly [fanout] oldest *)
        let run = List.rev run in
        let len = List.length run in
        let run =
          if len > l.fanout then
            List.filteri (fun i _ -> i >= len - l.fanout) run
          else run
        in
        Some run

  (** Order-independent hash of every volatile bit of lsm state the
      memory fingerprints cannot see (explorer state dedup). *)
  let ghost l =
    let h = ref (Memory.h2 l.epoch l.sealed_lt) in
    h := Memory.h2 !h (Segment.Memtable.hash l.memtable);
    List.iter
      (fun m -> h := Memory.h2 !h (Memory.h2 m.Segment.addr m.Segment.level))
      l.segs;
    (match l.pending with
     | None -> ()
     | Some { replaced; merged } ->
       List.iter (fun m -> h := Memory.h2 !h (m.Segment.addr lxor 0x5a5a)) replaced;
       List.iter (fun m -> h := Memory.h2 !h (m.Segment.addr lxor 0xa5a5)) merged);
    !h
end

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
  (** Per-handle hydration state under [Config.lsm_ckpt]. A handle rebuilt
      after a crash starts as the replayed suffix only; keys below the
      sealed horizon are rematerialised from the segment store on first
      touch. Invariant: every key present in the ds is in [resolved] (so a
      resolved key's ds binding — or absence — is the truth, and an
      unresolved key's truth lives in the segments). [hydrated] means
      every live store key has been resolved, after which all checks
      short-circuit — the steady state, and the only state outside
      recovery. *)
  type view = {
    resolved : (int, unit) Hashtbl.t;
    mutable hydrated : bool;
  }

  let fresh_view ~hydrated = { resolved = Hashtbl.create 16; hydrated }

  type replica = {
    rid : int;
    socket : int;
    ds : Ds.handle;
    view : view;
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
    lsm : Lsm.t option;
        (* incremental-checkpoint backend ([Config.lsm_ckpt]); [None] runs
           the paper's whole-replica checkpoint *)
    shadow_view : view;
        (* hydration state of the persistence thread's shadow replica
           (trivially hydrated when lsm is off) *)
    (* checkpoint cost accounting, comparable across both strategies
       (simulated time inside flush_and_swap / lsm_seal) *)
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

  (* a keyed map's flattened [k; v; ...] snapshot, as pairs *)
  let rec pairs = function k :: v :: rest -> (k, v) :: pairs rest | _ -> []

  (* Build a full UC instance around [master]'s current contents. Runs
     inside a fiber; the caller's allocator binding is replaced.
     [lsm] is recovery's handoff under [Config.lsm_ckpt]: the mounted,
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
  let build ?lsm ?replay ?(cores = max_int) mem roots cfg ~prefill ~master =
    let topo = Sim.topology () in
    let beta = topo.Sim.Topology.cores_per_socket in
    Config.validate cfg ~beta;
    if cfg.Config.flit then Memory.set_flit mem true;
    (match cfg.Config.persist_policy with
     | Some p -> Memory.set_policy mem p
     | None -> ());
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
    (* a copy of the master sees exactly the keys the master has resolved;
       each copy materialises independently from there *)
    let view_of_copy () =
      match lsm with
      | None -> fresh_view ~hydrated:true
      | Some (_, v) ->
        { resolved = Hashtbl.copy v.resolved; hydrated = v.hydrated }
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
      let view = view_of_copy () in
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
      { rid; socket = rid; ds; view; alloc; lt_addr; combiner; rw; slots;
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
       to the copies on it as helpers ([Context.with_helpers]), which a
       large copy splits across. A persistent copy allocates from a
       sub-heap of its own, persists only that once its replay is done,
       its helpers splitting the write-back, and hands it to the one
       persistent allocator after the join. The join comes before any
       root is written; a helper's raise is re-raised here, the scan's
       first, so torn media fails recovery as it would on one fiber. *)
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
      if Option.is_some replay || Option.is_some lsm then
        deferred := (slot, v) :: !deferred
      else Roots.set roots slot v
    in
    (* persistent side *)
    let p_alloc, p_reps, ct_addr, lsm, shadow_view =
      if mode = Config.Volatile then begin
        let ct = ctrl + 40 in
        Memory.write mem ct 0;
        (None, [||], ct, None, fresh_view ~hydrated:true)
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
        let p_reps, lsm, shadow_view =
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
            ([| p0; p1 |], None, fresh_view ~hydrated:true)
          end
          else begin
            (* Incremental backend: no NVM replica copies. The persistence
               thread runs one volatile *shadow* of the object (its
               catch-up feeds the memtable with post-image values); the
               durable truth is the manifest + sealed segments. Both
               p-replica metadata slots are DRAM words pointing at the one
               shadow — they advance together, which keeps the laggard
               machinery of Algorithm 3 working unchanged. *)
            let shadow =
              Context.with_allocator
                (Alloc.create_volatile mem ~home:p_socket)
                (fun () -> Ds.copy master_ds)
            in
            let m0 = ctrl + 48 and m1 = ctrl + 56 in
            Memory.write mem m0 0;
            Memory.write mem m1 0;
            set_root (rb + slot_active) 0;
            let lsm =
              match lsm with
              | Some (l, _) -> l
              | None ->
                (* checkpoint zero: seal the initial state (if any) and
                   publish epoch 1, so recovery always finds a manifest *)
                let manifest = Manifest.create pa in
                set_root (lsm_manifest_slot rb) (Manifest.base manifest);
                let l =
                  Lsm.make mem manifest ~fanout:cfg.Config.lsm_fanout
                    ~segs:[] ~epoch:0
                in
                Lsm.seal l pa (Array.of_list (pairs (Ds.snapshot master_ds)))
                  ~sealed_lt:0;
                l
            in
            let p0 = { meta = m0; pds = shadow }
            and p1 = { meta = m1; pds = shadow } in
            ([| p0; p1 |], Some lsm, view_of_copy ())
          end
        in
        if mode = Config.Durable then begin
          set_root (rb + slot_ct) ct_addr;
          set_root (rb + slot_log) log.Log.base
        end;
        (Some pa, p_reps, ct_addr, lsm, shadow_view)
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
        tel = Phases.make ~tag:cfg.Config.tag ();
        lsm;
        shadow_view;
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

  (* ---- lazy rematerialisation ([Config.lsm_ckpt]) ---- *)

  (** Ensure [key]'s truth is in [ds]: if [view] hasn't resolved it yet,
      look it up in the segment store and [key_put] a live hit. Charged
      reads/writes; the caller holds write access to the structure. *)
  let materialize l view ds key =
    if (not view.hydrated) && not (Hashtbl.mem view.resolved key) then begin
      (match Lsm.store_find l key with
       | Some v when v <> Segment.tombstone ->
         Ds.key_put ds key v;
         l.Lsm.materialized <- l.Lsm.materialized + 1
       | Some _ (* tombstone *) | None -> ());
      Hashtbl.replace view.resolved key ()
    end

  (** Full hydration, for [Read_all] ops (aggregates like size must see
      every live key): resolve every key of every segment, newest first.
      One-time cost after a recovery; a no-op forever after. *)
  let hydrate l view ds =
    if not view.hydrated then begin
      List.iter
        (fun m ->
          Array.iter
            (fun (k, _) -> materialize l view ds k)
            (Segment.to_array l.Lsm.mem m))
        l.Lsm.segs;
      view.hydrated <- true
    end

  (** Resolve the key footprint of [op]/[args] so it may run on a possibly
      partially-hydrated handle of store [l]. *)
  let prepare l view ds ~op ~args =
    if not view.hydrated then
      match Ds.classify ~op ~args with
      | Seqds.Ds_intf.Keyed { written; read } ->
        Array.iter (materialize l view ds) written;
        Array.iter (materialize l view ds) read
      | Seqds.Ds_intf.Read_all -> hydrate l view ds
      | Seqds.Ds_intf.Opaque ->
        invalid_arg "Prep_uc: --lsm-ckpt requires keyed-map operations"

  let lsm_prepare t view ds ~op ~args =
    match t.lsm with Some l -> prepare l view ds ~op ~args | None -> ()

  (* cost-free check: would [lsm_prepare] have any work to do? (readers use
     it to decide whether they need the write lock) *)
  let lsm_needs t view ~op ~args =
    t.lsm <> None
    && (not view.hydrated)
    && (match Ds.classify ~op ~args with
       | Seqds.Ds_intf.Keyed { written; read } ->
         let unresolved k = not (Hashtbl.mem view.resolved k) in
         Array.exists unresolved written || Array.exists unresolved read
       | Seqds.Ds_intf.Read_all | Seqds.Ds_intf.Opaque -> true)

  (** Apply published log entries [localTail, upto) to replica [r]. Caller
      holds the replica's write lock and has the right allocator bound. *)
  let update_from_log t r ~upto =
    let lt = read_local_tail t r in
    if upto > lt then
      Phases.in_span t.tel (fun pt -> pt.Phases.catchup) (fun () ->
          for idx = lt to upto - 1 do
            let op, args = Log.wait_and_read t.log idx in
            lsm_prepare t r.view r.ds ~op ~args;
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
      let log_fence site =
        if not hoist_fences then
          persist_span (fun () -> Log.fence ~site t.log)
      in
      if not t.cfg.Config.flit then begin
        (* phase 1: payloads (arguments then op), write-backs, one fence *)
        List.iteri
          (fun i (core, op, args, seq) ->
            publish_span (fun () ->
                Log.write_payload t.log (tail + i) ~op ~args;
                if detect then
                  Log.write_tag t.log (tail + i) ~tid:(tid_of core) ~seqno:seq);
            persist_span (fun () -> Log.persist_entry t.log (tail + i));
            Trace.logged ~tid:(tid_of core) ~seqno:seq t.trace (tail + i) ~op
              ~args)
          batch;
        log_fence Persist.Log_fence_payload;
        (* phase 2: publish emptyBits, write-backs, one fence *)
        List.iteri
          (fun i _ ->
            publish_span (fun () -> Log.publish t.log (tail + i));
            persist_span (fun () -> Log.persist_entry t.log (tail + i)))
          batch;
        log_fence Persist.Log_fence_publish
      end
      else begin
        (* Batched persistence: write every payload, sweep the batch's lines
           once, publish every emptyBit, re-sweep (each CLWB coalesces into
           the write-back queued by the first sweep), then a single fence.
           Dropping the intermediate fence is safe in this model because an
           entry is exactly one cache line: a write-back reaching media
           carries payload and emptyBit together, so media can never hold a
           published emptyBit with a torn payload — the invariant the
           two-fence protocol exists to protect. Unfenced publish-then-crash
           only produces holes, which recovery already skips as uncompleted
           operations (§5.2). *)
        publish_span (fun () ->
            List.iteri
              (fun i (core, op, args, seq) ->
                Log.write_payload t.log (tail + i) ~op ~args;
                if detect then
                  Log.write_tag t.log (tail + i) ~tid:(tid_of core) ~seqno:seq;
                Trace.logged ~tid:(tid_of core) ~seqno:seq t.trace (tail + i)
                  ~op ~args)
              batch);
        persist_span (fun () -> Log.persist_range t.log ~first:tail ~n);
        publish_span (fun () ->
            List.iteri (fun i _ -> Log.publish t.log (tail + i)) batch);
        persist_span (fun () ->
            Log.persist_range t.log ~first:tail ~n;
            if not hoist_fences then
              Log.fence ~site:Persist.Log_fence_publish t.log)
      end;
      Locks.Rw.write_acquire r.rw;
      update_from_log t r ~upto:tail;
      Memory.write t.mem r.lt_addr new_tail;
      if not detect then begin
        advance_completed_tail t new_tail;
        (* apply own batch from the collected copies and answer *)
        List.iteri
          (fun i (core, op, args, _) ->
            lsm_prepare t r.view r.ds ~op ~args;
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
              lsm_prepare t r.view r.ds ~op ~args;
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
        if lsm_needs t r.view ~op ~args then begin
          (* rematerialisation mutates the replica, so a reader that still
             has unresolved keys in its footprint runs under the write
             lock for this one operation *)
          Locks.Rw.write_acquire r.rw;
          lsm_prepare t r.view r.ds ~op ~args;
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

  (* The paper's whole-replica checkpoint: write back the persistent
     heap, then swap active/stable and persist the switch. *)
  let flush_and_swap t =
    (match t.cfg.Config.flush with
     | Config.Wbinvd -> Memory.wbinvd ~site:Persist.Prep_checkpoint t.mem
     | Config.Flush_heap ->
       (* walk the persistent heap and write back whatever is dirty; pays
          per line instead of the WBINVD stall — the small-structure
          alternative of §6 *)
       List.iter
         (fun aid -> Memory.flush_arena ~site:Persist.Prep_checkpoint t.mem aid)
         (Alloc.arenas (Option.get t.p_alloc)));
    Memory.sfence ~site:Persist.Prep_checkpoint t.mem;
    (* swap active/stable and persist the switch before opening the next
       window (see module comment on ordering) *)
    let active = Roots.get t.roots (rslot t slot_active) in
    Roots.set t.roots (rslot t slot_active) (1 - active)

  (** The incremental checkpoint ([Config.lsm_ckpt]'s replacement for
      [flush_and_swap]): drain the memtable — exactly the keys written
      since the last seal — into fresh level-0 segments, then publish a
      manifest naming them with [sealed_lt] advanced to the shadow's
      tail. O(dirty) instead of O(replica); there is no active/stable
      swap — the manifest epoch *is* the swap. The planted
      [Manifest_before_segment_seal] fault inverts the publish/build
      order, leaving a crash window where the durable manifest names torn
      segments whose effects [sealed_lt] claims are covered. *)
  let lsm_seal t l =
    let reached = Memory.read t.mem t.p_reps.(0).meta in
    let recs = Segment.Memtable.drain_sorted l.Lsm.memtable in
    if Array.length recs > 0 || reached > l.Lsm.sealed_lt then begin
      (* Advancing [sealed_lt] to [reached] asserts that recovery may skip
         replaying entries below it — so every entry the segments cover
         must be durable in the log *before* the manifest naming them is.
         The classic checkpoint gets this for free (WBINVD/heap walk
         flushes the log arenas too); the incremental one must sweep the
         sealed window explicitly or a crash could keep a sealed effect
         whose log entry never reached media. No-op in buffered mode
         (DRAM log), whose recovery never replays. *)
      Log.persist_range t.log ~first:l.Lsm.sealed_lt
        ~n:(reached - l.Lsm.sealed_lt);
      Log.fence t.log;
      (* [Lsm.seal] builds before the metas become visible in [l.segs]:
         the compaction fiber shares this core and yields interleave with
         [Segment.build]'s stores, so publishing an unbuilt segment to the
         mounted set would let a concurrent merge read its still-zero
         records and splice the real ones out of the store (silent loss
         that only a post-crash recovery can see). *)
      Lsm.seal l (Option.get t.p_alloc) recs ~sealed_lt:reached
        ~publish_first:
          (t.cfg.Config.fault = Config.Manifest_before_segment_seal);
      l.Lsm.seals <- l.Lsm.seals + 1;
      l.Lsm.keys_sealed <- l.Lsm.keys_sealed + Array.length recs;
      (* release the log window the seal just covered: the stable tail is
         the seal watermark (see the catch-up path), and advancing it only
         now — after the manifest publish — keeps the replayable suffix
         pinned against reuse until its effects are durable in segments *)
      Memory.write t.mem t.p_reps.(1).meta reached
    end

  (* One checkpoint at the flush boundary, whichever the backend, then the
     next ε window opens. Its simulated time is the checkpoint cost,
     comparable across both backends. *)
  let checkpoint t =
    Phases.in_span t.tel
      (fun pt -> if t.lsm = None then pt.Phases.persist else pt.Phases.seal)
    @@ fun () ->
    let t0 = Sim.now () in
    (* injected fault: opening the next window before the checkpoint is
       durable lets completed ops race two windows ahead of the stable
       state, so a crash mid-checkpoint loses up to ~2ε ops *)
    if t.cfg.Config.fault = Config.Early_boundary_advance then
      write_flush_boundary t (read_flush_boundary t + t.cfg.Config.epsilon);
    (match t.lsm with None -> flush_and_swap t | Some l -> lsm_seal t l);
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
    (* How the catch-up applies one log entry: to the NVM replica itself,
       under the persistent allocator (classic), or to the volatile shadow
       on the default allocator (lsm), after which the dirty tracker reads
       the post-image of every written key off the shadow and folds it
       into the memtable — the value a future segment will carry. *)
    let in_heap, apply =
      match t.lsm with
      | None ->
        ( Context.with_persistent,
          fun rep ~op ~args -> ignore (Ds.execute rep.pds ~op ~args) )
      | Some l ->
        ( (fun f -> f ()),
          fun rep ~op ~args ->
            prepare l t.shadow_view rep.pds ~op ~args;
            ignore (Ds.execute rep.pds ~op ~args);
            match Ds.classify ~op ~args with
            | Seqds.Ds_intf.Keyed { written; _ } ->
              Array.iter
                (fun k ->
                  match Ds.key_get rep.pds k with
                  | Some v -> Segment.Memtable.put l.Lsm.memtable k v
                  | None -> Segment.Memtable.del l.Lsm.memtable k)
                written
            | Seqds.Ds_intf.Read_all -> ()
            | Seqds.Ds_intf.Opaque ->
              invalid_arg "Prep_uc: --lsm-ckpt requires keyed-map operations"
        )
    in
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
            in_heap (fun () ->
                try
                  for idx = lt to tail - 1 do
                    let op, args = Log.wait_and_read t.log idx in
                    (match t.txn_gate with
                     | Some gate when not (gate ~op ~args) -> raise Exit
                     | _ -> ());
                    apply rep ~op ~args;
                    reached := idx + 1
                  done
                with Exit -> ());
            (* Under lsm the active replica is always replica 0 (a seal
               never swaps), and only its tail follows the shadow. The
               stable tail is repurposed as the seal watermark: it stays
               at [sealed_lt] so Algorithm 3's reuse guard keeps every
               unsealed entry in [sealed_lt, reached) pinned in the log —
               recovery replays exactly that suffix, and a writer lapping
               it would overwrite entries the durable state still depends
               on. When it pins logMin, the laggard-force path lowers the
               flush boundary, which triggers an early seal instead of an
               early swap. *)
            if !reached > lt then Memory.write t.mem rep.meta !reached);
      Option.iter Lsm.apply_pending t.lsm (* fold in a finished merge *);
      if read_flush_boundary t <= Memory.read t.mem rep.meta then checkpoint t
      else Sim.spin ()
    done;
    (match t.tel with
     | Some pt ->
       Telemetry.Registry.span_exit pt.Phases.reg
         (Telemetry.Registry.span pt.Phases.reg span_name)
     | None -> ());
    t.p_thread_running <- false

  (** Background size-tiered compaction ([Config.lsm_ckpt]): whenever a
      level accumulates [lsm_fanout] adjacent segments, merge them
      (newest-wins, tombstones dropped only when the run reaches the
      store's oldest segment) into one sealed segment at the next level.
      The fiber builds and seals the merged segments itself but never
      touches the manifest: the finished merge is handed to the
      persistence thread through [l.pending], keeping the manifest
      single-writer. Runs on the persistence core (fibers share cores). *)
  let compaction_loop t l =
    Context.bind
      ~default:(Alloc.create_volatile t.mem ~home:t.p_socket)
      ?persistent:t.p_alloc ();
    while not t.stop_flag do
      match Lsm.pick_merge l with
      | None -> Sim.spin ()
      | Some run ->
        Phases.in_span t.tel (fun pt -> pt.Phases.compact) (fun () ->
            (* a tombstone may only be dropped when nothing older could
               still hold the key it shadows *)
            let oldest_included =
              match List.rev l.Lsm.segs with
              | [] -> false
              | oldest :: _ -> List.memq oldest run
            in
            let seen = Hashtbl.create 256 and acc = ref [] in
            List.iter
              (fun m ->
                Array.iter
                  (fun (k, v) ->
                    if not (Hashtbl.mem seen k) then begin
                      Hashtbl.replace seen k ();
                      if not (oldest_included && v = Segment.tombstone) then
                        acc := (k, v) :: !acc
                    end)
                  (Segment.to_array t.mem m))
              run;
            let recs =
              Array.of_list
                (List.sort (fun (a, _) (b, _) -> compare a b) !acc)
            in
            let level = (List.hd run).Segment.level + 1 in
            let merged =
              if Array.length recs = 0 then []
              else begin
                let pa = Option.get t.p_alloc in
                let planned = Lsm.plan_segments pa ~level recs in
                Lsm.build_planned l ~level planned;
                List.map (fun (_, _, m) -> m) planned
              end
            in
            l.Lsm.pending <- Some { Lsm.replaced = run; merged });
        (* wait for the persistence thread to fold the merge into the
           manifest before scanning for the next one *)
        while l.Lsm.pending <> None && not t.stop_flag do
          Sim.spin ()
        done
    done

  (** Spawn the persistence thread on its dedicated core — plus, under
      [--lsm-ckpt], the compaction fiber sharing that core. No-op for the
      volatile variant. *)
  let start_persistence t =
    if has_persistence t then begin
      Sim.spawn_here ~socket:t.p_socket ~core:(t.beta - 1) (fun () ->
          persistence_loop t);
      Option.iter
        (fun l ->
          Sim.spawn_here ~socket:t.p_socket ~core:(t.beta - 1) (fun () ->
              compaction_loop t l))
        t.lsm
    end

  let stop t = t.stop_flag <- true

  (* ---- observation ---- *)

  let trace t = t.trace
  let prefill_ops t = t.prefill

  (** Harness-side counters for the gated hot-path optimisations (all zero
      when the corresponding flag is off), keyed for the bench JSON. *)
  let lsm_counter t f = match t.lsm with Some l -> f l | None -> 0

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
      ("lsm_seals", lsm_counter t (fun l -> l.Lsm.seals));
      ("lsm_segments_built", lsm_counter t (fun l -> l.Lsm.segments_built));
      ("lsm_keys_sealed", lsm_counter t (fun l -> l.Lsm.keys_sealed));
      ("lsm_compactions", lsm_counter t (fun l -> l.Lsm.compactions));
      ("lsm_segments_live", lsm_counter t (fun l -> List.length l.Lsm.segs));
      ("lsm_bloom_skips", lsm_counter t (fun l -> l.Lsm.bloom_skips));
      ("lsm_range_skips", lsm_counter t (fun l -> l.Lsm.range_skips));
      ("lsm_seg_finds", lsm_counter t (fun l -> l.Lsm.seg_finds));
      ("lsm_materialized", lsm_counter t (fun l -> l.Lsm.materialized));
    ]

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

  (** Cost-free snapshot of the abstract state (replica 0's view). Under
      [--lsm-ckpt] a partially-hydrated replica's snapshot is the merge of
      its ds (truth for every resolved key) over the segment store's live
      view (truth for the rest) — the flattened sorted-pair convention of
      the keyed maps. *)
  let snapshot t =
    let r = t.replicas.(0) in
    match t.lsm with
    | Some l when not r.view.hydrated ->
      let own = pairs (Ds.snapshot r.ds) in
      let store =
        List.filter
          (fun (k, _) -> not (Hashtbl.mem r.view.resolved k))
          (Lsm.peek_live l)
      in
      List.concat_map
        (fun (k, v) -> [ k; v ])
        (List.sort compare (own @ store))
    | _ -> Ds.snapshot r.ds

  (** Order-independent hash of every bit of volatile [--lsm-ckpt] state
      the memory fingerprints cannot see — memtable, mounted segment set,
      pending merges, per-replica hydration — for the explorer's state
      dedup. Zero when the backend is off. *)
  let lsm_ghost t =
    match t.lsm with
    | None -> 0
    | Some l ->
      let view_hash v =
        Hashtbl.fold
          (fun k () acc -> acc lxor Memory.mix k)
          v.resolved
          (if v.hydrated then 1 else 2)
      in
      let h = ref (Lsm.ghost l) in
      Array.iter (fun r -> h := Memory.h2 !h (view_hash r.view)) t.replicas;
      h := Memory.h2 !h (view_hash t.shadow_view);
      !h

  (** Hash of the instance's ghost (OCaml-heap) progress the memory
      fingerprints cannot see — stop flag, trace, [--lsm-ckpt] state,
      client seqno counters — for the explorer's state dedup and
      parked-fiber wakes. *)
  let ghost_hash t =
    Memory.h2
      (if t.stop_flag then 1 else 0)
      (Memory.h2 (Trace.hash t.trace)
         (Memory.h2 (lsm_ghost t) (Array.fold_left Memory.h2 0 t.next_seq)))

  (* ---- recovery (paper §5.1 / §5.2) ---- *)

  (* The stable checkpoint recovery replays into: the classic stable NVM
     replica, or the incremental backend's store — its manifest, the
     segment set that manifest names, and its [sealed_lt]. *)
  type mounted = Replica of Ds.handle | Store of Lsm.t

  (* Mount the stable checkpoint through the roots, writing nothing, and
     return it with the log index it covers up to. A torn newest manifest
     record falls back to the previous epoch inside [Manifest.load]; torn
     segments, which only the planted fault can produce, are dropped. *)
  let mount old_t =
    let mem = old_t.mem and roots = old_t.roots and cfg = old_t.cfg in
    let rb = cfg.Config.root_base in
    match old_t.lsm with
    | None ->
      let active = Roots.get roots (rb + slot_active) in
      let stable = 1 - active in
      let stable_meta =
        Roots.get roots (rb + if stable = 0 then slot_meta0 else slot_meta1)
      in
      let stable_lt = Memory.read mem stable_meta in
      let stable_root = Memory.read mem (stable_meta + 1) in
      (Replica (Ds.attach mem stable_root), stable_lt)
    | Some _ ->
      let manifest =
        Manifest.attach mem ~base:(Roots.get roots (lsm_manifest_slot rb))
      in
      let mrec =
        match Manifest.load manifest with
        | Some r -> r
        | None ->
          (* the initial publish is fenced before any op can complete *)
          failwith "Prep_uc.recover: no valid manifest record on media"
      in
      let l =
        Lsm.make mem manifest ~fanout:cfg.Config.lsm_fanout
          ~segs:(List.filter_map (Segment.mount mem) mrec.Manifest.segs)
          ~epoch:mrec.Manifest.epoch
      in
      l.Lsm.sealed_lt <- mrec.Manifest.sealed_lt;
      (Store l, l.Lsm.sealed_lt)

  (* The log entries replay applies, as (index, op, args, tag), from the
     checkpoint's tail [from] to the recovered completedTail [ct], skipping
     holes (unpersisted entries) and entries [keep] rejects. Each kept
     payload is read once, and a tag only when it decides the entry or
     [ann] needs it for reconciliation. *)
  let scan_suffix ?keep old_t ~ann ~ct ~from =
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
      if Log.is_full log idx then begin
        let tag =
          if idx >= ct || ann <> None then Log.read_tag log idx else (0, 0)
        in
        if idx < ct || snd tag > 0 then begin
          let op, args = Log.read_payload log idx in
          if match keep with None -> true | Some keep -> keep ~op ~args then
            kept := (idx, op, args, tag) :: !kept
        end
      end
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

      One spine serves both checkpoint backends: mount the checkpoint,
      scan the durable suffix past its tail once, replay, then account
      for durability (which charges nothing). Only the replay is
      backend-specific:
      - classic: [build] makes every replica a copy of the untouched
        stable replica with the suffix replayed into it, the scan running
        on a fiber of its own while the copies are made, and a large
        copy split across its helper cores. Until [install]
        runs, recovery changes no pre-crash NVM word except reconciled
        response slots, so a crash at any point before then leaves the
        checkpoint and log it started from, and recovering again gives
        the same result;
      - lsm: scan, then replay into an empty volatile master,
        rematerialising from the segments exactly the keys the replay
        touches — time to first operation is O(suffix), independent of
        the object's size — then seal the replay's dirty set and publish
        a new manifest epoch with [sealed_lt] reset, because the rebuilt
        instance starts a fresh log. *)
  let rebuild ?keep ?cores old_t =
    if not (has_persistence old_t) then
      invalid_arg "Prep_uc.recover: volatile variant cannot recover";
    let mem = old_t.mem and roots = old_t.roots and cfg = old_t.cfg in
    let rb = cfg.Config.root_base in
    let mounted, base_lt = mount old_t in
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
      if durable then scan_suffix ?keep old_t ~ann ~ct ~from:base_lt else [||]
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
    let t, install =
      match mounted with
      | Replica stable ->
        build ~replay:(scan, suffix, reconcile) ?cores mem roots cfg ~prefill:[]
          ~master:(Some stable)
      | Store l ->
        Sim.Once.fill suffix (scan ());
        Context.bind ~default:(Alloc.create_volatile mem ~home:0) ();
        let pa =
          Alloc.create_persistent mem
            ~home:((Sim.topology ()).Sim.Topology.sockets - 1)
        in
        Context.set_persistent pa;
        let master = Ds.create mem in
        let view = fresh_view ~hydrated:false in
        let dirty = Hashtbl.create 64 in
        Array.iter
          (fun ((_, op, args, _) as e) ->
            prepare l view master ~op ~args;
            (match Ds.classify ~op ~args with
             | Seqds.Ds_intf.Keyed { written; _ } ->
               Array.iter (fun k -> Hashtbl.replace dirty k ()) written
             | Seqds.Ds_intf.Read_all | Seqds.Ds_intf.Opaque -> ());
            reconcile e (Ds.execute master ~op ~args))
          (Sim.Once.get suffix);
        (* seal the replay's effects: anything dirty that stayed only in
           the volatile master would be lost by the *next* crash once
           [sealed_lt] resets *)
        let recs =
          Hashtbl.fold
            (fun k () acc ->
              match Ds.key_get master k with
              | Some v -> (k, v) :: acc
              | None -> (k, Segment.tombstone) :: acc)
            dirty []
        in
        Lsm.seal l pa
          (Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) recs))
          ~sealed_lt:0;
        build ~lsm:(l, view) mem roots cfg ~prefill:[] ~master:(Some master)
    in
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
