(** PREP-UC configuration (paper Algorithm 1 and §6). *)

type mode =
  | Volatile (** PREP-V: node replication with all persistence removed *)
  | Buffered (** PREP-Buffered: buffered durable linearizable *)
  | Durable (** PREP-Durable: durable linearizable *)

let mode_name = function
  | Volatile -> "PREP-V"
  | Buffered -> "PREP-Buffered"
  | Durable -> "PREP-Durable"

(** The [--variant] spelling of a mode on the checker subcommands. *)
let variant_name = function
  | Volatile -> "volatile"
  | Buffered -> "buffered"
  | Durable -> "durable"

(** How the persistence thread writes the active persistent replica back
    to NVM at the end of an update cycle. [Wbinvd] is the paper's default
    (write back and invalidate the whole cache); [Flush_heap] walks the
    persistent heap's address range and writes back dirty lines — the
    alternative the paper suggests for very small structures (§6,
    "Priority Queue"). *)
type flush_strategy = Wbinvd | Flush_heap

(** Deliberate protocol faults, injectable for harness validation only.
    A durability checker that cannot catch a known-broken variant proves
    nothing; the fuzz harness (lib/check/fuzz.ml) runs these to make sure
    its verdicts have teeth. *)
type fault =
  | No_fault
  | Early_boundary_advance
      (** advance the flushBoundary *before* persisting and swapping the
          replicas — the exact ordering bug the module comment of
          [Prep_uc] warns about, which widens the crash-loss window to
          about 2ε and breaks the ε+β−1 bound *)
  | Mirror_read_on_recovery
      (** serve recovery's log replay from the DRAM log mirror instead of
          the NVM copy — the obvious wrong version of this repo's
          [~log_mirror] optimisation. The mirror is volatile, so after a
          power failure it reads back zeroed; any durably completed
          operations sitting between the stable replica's tail and the
          completedTail are silently dropped from the recovered prefix *)
  | Response_before_log_persist
      (** detectability mode only: persist each response slot (CLFLUSH,
          straight to media) while *hoisting* the log-entry fences to a
          single fence after the responses — the plausible "one fence at
          the end is enough" batching bug. In the window between a
          response reaching media and the final fence draining the
          entries' write-backs, a crash leaves a durable response whose
          log entry never made it: recovery then reports the op completed
          although the recovered state lost it, breaking the exactly-once
          contract the announce/response protocol exists to provide *)
  | Commit_before_prepare_persist
      (** sharded mode only: write and flush the cross-shard commit
          decision record *before* the per-shard prepare entries are
          durably logged — the classic "decide first, log later" 2PC
          ordering bug. A crash between the decision flush and the
          prepares' fences leaves a committed transaction some of whose
          participant shards never logged their sub-op: recovery rolls
          the transaction forward on the shards that did log it and
          silently loses the rest, breaking cross-shard atomicity *)
  | Manifest_before_segment_seal
      (** lsm-ckpt mode only: publish the new manifest record (which
          names the freshly sealed segments and advances [sealed_lt])
          *before* the segment bodies are written back and fenced — the
          plausible "the manifest publish has its own fence, surely that
          orders everything" bug. In the window between the manifest
          reaching media and the segment seal fences, a crash leaves a
          durable manifest pointing at torn segments: recovery mounts the
          manifest, drops the unsealed segments, and silently loses every
          effect the advanced [sealed_lt] claims is covered — completed
          operations disappear below the replay horizon *)
  | Commit_before_copies_persist
      (** classic checkpoints only: a recovery whose persistent copies
          finish in the background commits them (clears its gap record)
          without writing their heaps back — the "the copies are done, so
          they are durable" bug. Until the recovered instance's first
          checkpoint writes everything back, a crash recovers from a
          committed checkpoint whose replicas never reached media, in
          place of the old checkpoint and logs the gap record named *)

let fault_name = function
  | No_fault -> "none"
  | Early_boundary_advance -> "early-boundary"
  | Mirror_read_on_recovery -> "mirror-read-recovery"
  | Response_before_log_persist -> "response-before-log-persist"
  | Commit_before_prepare_persist -> "commit-before-prepare"
  | Manifest_before_segment_seal -> "manifest-before-seal"
  | Commit_before_copies_persist -> "commit-before-copies-persist"

type t = {
  mode : mode;
  log_size : int; (** LOG_SIZE: entries in the circular shared log *)
  epsilon : int; (** flush-boundary advance per persistence cycle *)
  workers : int;
      (** worker threads; replicas are created only for the sockets these
          occupy, as in the paper's pinning, and a replica whose socket
          hosts exactly one worker has its combiner collect only the
          caller's own slot instead of sweeping all β *)
  flush : flush_strategy;
  flit : bool;
      (** enable FliT-style flush elimination, in two parts. The memory
          layer ([Nvm.Memory.set_flit]) tracks lines and changes only what
          a flush costs and which flushes are elided, never what reaches
          media. [Prep_uc.build] also installs
          [log.fence_payload=defer-to-next-fence] on the memory's policy,
          the weakening [optimize-persist] admits, unless [persist_policy]
          already sets that site: one log fence per combine round instead
          of two. Off by default so the baseline variant stays
          byte-for-byte the paper's protocol. *)
  dist_rw : bool;
      (** protect each replica with the distributed per-core reader-writer
          lock ([Locks.Dist_rwlock]) instead of the single-word lock:
          readers touch only their own cache line. Semantically invisible;
          off by default to keep the baseline the paper's protocol. *)
  log_mirror : bool;
      (** durable mode only: shadow every log entry into a DRAM mirror and
          serve replica catch-up / persistence-thread reads from it at DRAM
          cost. CLWB and recovery keep using the NVM copy as the sole
          durability source. No effect outside [Durable] mode. *)
  detect : bool;
      (** detectable execution (durable mode only): every update is
          announced to a per-thread persistent record (op descriptor +
          monotonic client seqno, flushed before the flat-combining slot
          is published) and its result is persisted to a per-thread
          response slot by the combiner before the completedTail may
          advance past it. After a crash, [Prep_uc.resolve] tells each
          client whether its last announced op survived, so clients
          re-submit exactly the lost ones — exactly-once end to end. *)
  shards : int;
      (** number of independent PREP-UC shards fronting the keyspace
          ([Sharded_uc]); 1 is the classic single-instance construction.
          Each shard owns its own log, replicas and combiner; multi-key
          operations commit across shards through a 2PC-style
          prepare/decision protocol. Sharding requires durable mode: the
          commit decision is only meaningful when prepare entries are
          durably logged before it. *)
  lsm_ckpt : bool;
      (** replace the whole-replica checkpoint (WBINVD / heap walk) with
          the incremental log-structured backend: the persistence thread
          classifies log entries into per-key effects, accumulates them in
          a volatile memtable, and each checkpoint seals only the dirty
          set into immutable NVM segments ([Nvm.Segment]) named by a
          fenced manifest ([Nvm.Manifest]). Recovery mounts the manifest
          and replays only the log suffix past the newest sealed index —
          O(dirty) checkpoints and O(1) recovery-to-first-op instead of
          O(replica). Requires a keyed-map structure (one whose ops
          classify as [Put]/[Del]/[Read]); refused at runtime otherwise. *)
  lsm_fanout : int;
      (** size-tiered compaction trigger: when a level accumulates this
          many segments, the compaction fiber merges them into one segment
          at the next level *)
  root_base : int;
      (** first NVM root slot this instance's six persistent roots are
          registered at (shard [i] of a sharded construction uses
          [i * 8]); 0 is the classic layout *)
  tag : string;
      (** suffix appended to this instance's telemetry track names
          (e.g. ["/shard2"]), so per-shard combiner and persistence
          fibers get separate tracks in the trace export *)
  persist_policy : Nvm.Persist.policy option;
      (** per-site persistency policy installed on the memory at build
          time ([Nvm.Memory.set_policy]); [None] leaves whatever the
          memory already has (the all-[Emit] default). Policies come from
          [optimize-persist]'s proven output ([--persist-policy]) or from
          a deliberately unsafe spec used as a planted fault; the
          construction itself never weakens anything. *)
  fault : fault;
}

(** Shard [i] owns root-directory slots [i*8 + 1 .. i*8 + 7]; slots 56..62
    hold the shards' LSM manifests and slot 63 the cross-shard decision
    table, so the 64-slot directory caps the shard count. *)
let max_shards = (Nvm.Roots.max_slots - 7) / 8

(** Validate against the constraint of §5.1: the persistence-cycle length
    must leave room for one full batch plus the lowMark slack,
    ε ≤ LOG_SIZE − β − 1. *)
let validate t ~beta =
  if t.log_size < 2 * beta then
    invalid_arg "Config: log too small for two batches";
  if t.mode <> Volatile && t.epsilon > t.log_size - beta - 1 then
    invalid_arg "Config: epsilon must be at most LOG_SIZE - beta - 1";
  if t.mode <> Volatile && t.epsilon < 1 then
    invalid_arg "Config: epsilon must be positive";
  if t.workers < 1 then invalid_arg "Config: need at least one worker";
  if t.detect && t.mode <> Durable then
    invalid_arg
      "Config: detectable execution requires durable mode (a buffered \
       checkpoint cannot be gated on response persistence)";
  if t.fault = Response_before_log_persist && not t.detect then
    invalid_arg
      "Config: response-before-log-persist fault only exists under --detect";
  if t.shards < 1 then invalid_arg "Config: need at least one shard";
  if t.shards > 1 && t.mode <> Durable then
    invalid_arg
      "Config: sharding requires durable mode (cross-shard commit \
       decisions are only meaningful over durably logged prepares)";
  if t.shards > 1 && t.detect then
    invalid_arg "Config: detectable execution is per-instance; not yet \
                 wired through the shard router";
  if t.shards > max_shards then
    invalid_arg
      (Printf.sprintf
         "Config: at most %d shards (64-slot root directory, 8 slots per \
          shard)"
         max_shards);
  if t.fault = Commit_before_prepare_persist && t.shards < 2 then
    invalid_arg
      "Config: commit-before-prepare fault only exists with --uc-shards >= 2";
  if t.lsm_ckpt && t.mode = Volatile then
    invalid_arg "Config: --lsm-ckpt is a checkpoint strategy; the volatile \
                 variant has no checkpoints";
  if t.lsm_fanout < 2 then
    invalid_arg "Config: lsm_fanout must be at least 2";
  if t.fault = Manifest_before_segment_seal && not t.lsm_ckpt then
    invalid_arg
      "Config: manifest-before-seal fault only exists under --lsm-ckpt";
  if t.fault = Commit_before_copies_persist && (t.lsm_ckpt || t.mode = Volatile)
  then
    invalid_arg
      "Config: commit-before-copies-persist fault only exists with classic \
       checkpoints";
  if t.root_base < 0 then invalid_arg "Config: root_base must be >= 0"

let make ?(mode = Buffered) ?(log_size = 65536) ?(epsilon = 1024)
    ?(flush = Wbinvd) ?(flit = false) ?(dist_rw = false)
    ?(log_mirror = false) ?(detect = false) ?(shards = 1) ?(lsm_ckpt = false)
    ?(lsm_fanout = 4) ?(root_base = 0) ?(tag = "") ?persist_policy
    ?(fault = No_fault) ~workers () =
  { mode; log_size; epsilon; workers; flush; flit; dist_rw; log_mirror;
    detect; shards; lsm_ckpt; lsm_fanout; root_base; tag; persist_policy;
    fault }

(** The checker command-line flags that rebuild [t]'s fault and feature
    set — every such field that differs from [make]'s default, in a fixed
    order — so a printed repro command replays exactly the configuration
    that failed. Not rendered: the fields the checkers set from their own
    arguments (mode, ε, log size, workers) and those the checker
    subcommands have no flag for ([flush], [root_base], [tag]). *)
let to_flags t =
  let d = make ~workers:t.workers () in
  String.concat ""
    [
      (if t.fault <> d.fault then " --fault " ^ fault_name t.fault else "");
      (if t.flit then " --flit" else "");
      (if t.dist_rw then " --dist-rw" else "");
      (if t.log_mirror then " --log-mirror" else "");
      (if t.detect then " --detect" else "");
      (if t.shards <> d.shards then
         Printf.sprintf " --uc-shards %d" t.shards
       else "");
      (if t.lsm_ckpt then " --lsm-ckpt" else "");
      (if t.lsm_ckpt && t.lsm_fanout <> d.lsm_fanout then
         Printf.sprintf " --lsm-fanout %d" t.lsm_fanout
       else "");
      (match t.persist_policy with
       | Some p when not (Nvm.Persist.is_default p) ->
         Printf.sprintf " --persist-policy \"%s\"" (Nvm.Persist.to_spec p)
       | Some _ | None -> "");
    ]
