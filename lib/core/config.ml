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
    nothing; the fuzzer and the explorer run these to make sure their
    verdicts have teeth. [Fault.all] names each one and the feature it
    needs. *)
type fault =
  | No_fault
  | Early_boundary_advance
      (** advance the flushBoundary *before* persisting and swapping the
          replicas — the ordering bug [Prep_uc]'s module comment warns
          about: the crash-loss window widens to about 2ε, past ε+β−1 *)
  | Mirror_read_on_recovery
      (** replay recovery's log from the DRAM mirror instead of the NVM
          copy, the obvious wrong version of [log_mirror]: the mirror reads
          back zeroed after a power failure, so durably completed
          operations past the stable replica's tail are dropped *)
  | Response_before_log_persist
      (** persist each response slot (CLFLUSH) but hoist the log-entry
          fences to one fence after the responses, the "one fence at the
          end is enough" bug: a crash in between leaves a durable response
          whose log entry never made it, so recovery reports a lost op
          completed and exactly-once breaks *)
  | Commit_before_prepare_persist
      (** flush the cross-shard commit decision *before* the per-shard
          prepares are durably logged, "decide first, log later": a crash
          in between commits a transaction some shards never logged, and
          recovery loses their part, breaking cross-shard atomicity *)
  | Manifest_before_segment_seal
      (** publish the new manifest (naming the fresh segments, advancing
          [sealed_lt]) *before* the segment bodies are fenced: a crash in
          between leaves a durable manifest over torn segments, and every
          effect the advanced [sealed_lt] claims is covered is lost *)
  | Commit_before_copies_persist
      (** a recovery whose persistent copies finish in the background
          commits them (clears its gap record) without writing their heaps
          back: until the first checkpoint writes everything back, a crash
          recovers from a committed checkpoint whose replicas never reached
          media *)

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
  flit : bool;  (** [Feature.flit] *)
  dist_rw : bool;  (** [Feature.dist_rw] *)
  log_mirror : bool;  (** [Feature.log_mirror] *)
  detect : bool;  (** [Feature.detect] *)
  shards : int;  (** [Feature.uc_shards]; 1 is the single instance *)
  lsm_ckpt : bool;  (** [Feature.lsm_ckpt] *)
  lsm_fanout : int;  (** [Feature.lsm_fanout] *)
  root_base : int;
      (** first NVM root slot this instance's six persistent roots are
          registered at (shard [i] of a sharded construction uses
          [i * 8]); 0 is the classic layout *)
  tag : string;
      (** suffix appended to this instance's telemetry track names
          (e.g. ["/shard2"]), so per-shard combiner and persistence
          fibers get separate tracks in the trace export *)
  persist_policy : Nvm.Persist.policy option;  (** [Feature.persist_policy] *)
  fault : fault;
}

(** Shard [i] owns root-directory slots [i*8 + 1 .. i*8 + 7]; slots 56..62
    hold the shards' LSM manifests and slot 63 the cross-shard decision
    table, so the 64-slot directory caps the shard count. *)
let max_shards = (Nvm.Roots.max_slots - 7) / 8

let make ?(mode = Buffered) ?(log_size = 65536) ?(epsilon = 1024)
    ?(flush = Wbinvd) ?(flit = false) ?(dist_rw = false)
    ?(log_mirror = false) ?(detect = false) ?(shards = 1) ?(lsm_ckpt = false)
    ?(lsm_fanout = 4) ?persist_policy ?(fault = No_fault) ~workers () =
  { mode; log_size; epsilon; workers; flush; flit; dist_rw; log_mirror;
    detect; shards; lsm_ckpt; lsm_fanout; root_base = 0; tag = "";
    persist_policy; fault }

(** [make]'s defaults, the configuration every flag starts from. *)
let default = make ~workers:1 ()

(** The optional features, each declared once: flag and help, how the flag
    reads into a [t], system-name tag, the modes that refuse it and the
    [prep_cli] subcommands that take it. The CLI's terms, [to_flags],
    [validate] and [Experiment.Systems.system_name] read this table. Every
    feature is off by default: the baseline is the paper's protocol. *)
module Feature = struct
  type config = t

  type value =
    | Flag of (config -> bool -> config)
    | Int of { docv : string; get : config -> int; set : config -> int -> config }
    | Spec of {
        docv : string;
        spec : config -> string option;  (** what [to_flags] renders *)
        load : config -> string -> (config, string) result;
      }

  type t = {
    flag : string;  (** the long flag, without its dashes *)
    doc : string;  (** its help, in cmdliner markup *)
    value : value;
    on : config -> bool;  (** rendered, tagged and mode-checked when on *)
    name_tag : string option;
    refused : mode list * string;  (** modes it may not be on in, and why *)
    subcommands : string list;  (** where a documented command or a repro passes it *)
  }

  let flag f = "--" ^ f.flag

  let feature ?name_tag ?(refused = ([], "")) ~subcommands flag value on doc =
    { flag; doc; value; on; name_tag; refused; subcommands }

  (** Installed on the memory at build time ([Nvm.Memory.set_policy]);
      off leaves the memory's all-[Emit] default. The construction itself
      never weakens anything. Before [flit], whose help names it. *)
  let persist_policy =
    feature "persist-policy" ~name_tag:"pol" ~subcommands:[ "run"; "fuzz"; "explore" ]
      (Spec
         { docv = "SPEC|FILE";
           spec =
             (fun c ->
               Option.bind c.persist_policy (fun p ->
                   if Nvm.Persist.is_default p then None
                   else Some (Nvm.Persist.to_spec p)));
           load =
             (fun c arg ->
               Nvm.Persist.load arg
               |> Result.map (fun p -> { c with persist_policy = Some p })) })
      (fun c -> c.persist_policy <> None)
      "Per-site persistency policy: a JSON file emitted by optimize-persist \
       or an inline spec like \
       'log.fence_payload=defer-to-next-fence,prep.init=elide'. Sites not \
       named stay at emit. PREP systems only."

  (** [Nvm.Memory.set_flit] changes only what a flush costs and which
      flushes are elided, never what reaches media; [Prep_uc.build]'s
      deferred payload fence (the weakening [optimize-persist] admits)
      leaves one log fence per combine round instead of two. *)
  let flit =
    feature "flit" ~name_tag:"flit" ~subcommands:[ "run"; "sweep"; "fuzz"; "explore" ]
      (Flag (fun c flit -> { c with flit })) (fun c -> c.flit)
      ("Enable the FliT flush-elimination layer (PREP systems only): \
        per-line flush tracking plus a deferred combiner payload fence \
        (log.fence_payload=defer-to-next-fence unless "
      ^ flag persist_policy ^ " sets that site).")

  (** [Locks.Dist_rwlock] in place of the single-word lock; semantically
      invisible. *)
  let dist_rw =
    feature "dist-rw" ~name_tag:"dist" ~subcommands:[ "run"; "sweep"; "fuzz"; "explore" ]
      (Flag (fun c dist_rw -> { c with dist_rw })) (fun c -> c.dist_rw)
      "Protect each replica with the distributed per-core reader-writer \
       lock (PREP systems only): readers touch only their own cache line."

  (** Catch-up and persistence-thread log reads pay DRAM cost; CLWB and
      recovery keep the NVM copy as the sole durability source. No effect
      outside durable mode. *)
  let log_mirror =
    feature "log-mirror" ~name_tag:"mir" ~subcommands:[ "run"; "sweep"; "fuzz"; "explore" ]
      (Flag (fun c log_mirror -> { c with log_mirror })) (fun c -> c.log_mirror)
      "Shadow the durable log into a DRAM mirror and serve replica catch-up \
       reads from it (PREP-Durable only; recovery still reads NVM)."

  (** Each update's announce record (op descriptor and client seqno) is
      flushed before its slot is published, and the combiner persists its
      response before the completedTail passes it; after a crash
      [Prep_uc.resolve] answers each client. *)
  let detect =
    feature "detect" ~name_tag:"det"
      ~subcommands:[ "run"; "session"; "fuzz"; "explore" ]
      ~refused:
        ( [ Volatile; Buffered ],
          "detectable execution requires durable mode (a buffered \
           checkpoint cannot be gated on response persistence)" )
      (Flag (fun c detect -> { c with detect })) (fun c -> c.detect)
      "Enable detectable execution (PREP-Durable only): per-thread \
       persistent announce/response records, so after a crash every client \
       can resolve whether its in-flight op took effect and re-submit \
       exactly the lost ones."

  (** [Sharded_uc]: multi-key operations commit across shards through a
      2PC-style prepare/decision protocol. *)
  let uc_shards =
    feature "uc-shards" ~subcommands:[ "run"; "profile"; "fuzz"; "explore" ]
      ~refused:
        ( [ Volatile; Buffered ],
          "sharding requires durable mode (cross-shard commit decisions are \
           only meaningful over durably logged prepares)" )
      (Int { docv = "N"; get = (fun c -> c.shards); set = (fun c shards -> { c with shards }) })
      (fun c -> c.shards <> default.shards)
      "Run $(docv) hash-routed PREP-Durable shards behind the cross-shard \
       router (prep-durable maps only): each shard is an independent log + \
       replica set + combiner, single-key ops route by key hash. Telemetry \
       is reported per shard (shard<i>/ counters, per-shard phase spans and \
       persistence tracks). Under fuzz, cross-shard transactions join the \
       mix (--multi-pct, --cross-pct)."

  (** The persistence thread classifies log entries into per-key effects
      in the memtable; a seal writes [Nvm.Segment]s named by an
      [Nvm.Manifest]. O(dirty) checkpoints and O(1) recovery-to-first-op;
      ops that do not classify as [Put]/[Del]/[Read] raise at runtime. *)
  let lsm_ckpt =
    let flag = "lsm-ckpt" in
    feature flag ~name_tag:"lsm"
      ~subcommands:[ "run"; "session"; "fuzz"; "explore" ]
      ~refused:
        ( [ Volatile ],
          "--" ^ flag
          ^ " is a checkpoint strategy; the volatile variant has no \
             checkpoints" )
      (Flag (fun c lsm_ckpt -> { c with lsm_ckpt })) (fun c -> c.lsm_ckpt)
      "Replace the whole-replica checkpoint with the incremental \
       log-structured backend (PREP-Buffered/Durable maps only): dirty keys \
       accumulate in a volatile memtable sealed into immutable sorted NVM \
       segments behind a fenced manifest; recovery mounts the manifest and \
       replays only the log suffix past the last seal."

  (** Rendered only with [lsm_ckpt], the backend it tunes. *)
  let lsm_fanout =
    feature "lsm-fanout" ~subcommands:[ "fuzz"; "explore" ]
      (Int
         { docv = "K"; get = (fun c -> c.lsm_fanout);
           set = (fun c lsm_fanout -> { c with lsm_fanout }) })
      (fun c -> c.lsm_ckpt && c.lsm_fanout <> default.lsm_fanout)
      ("With " ^ flag lsm_ckpt
      ^ ": size-tiered compaction fanout — the background fiber merges \
         every run of $(docv) same-level segments into one segment a level \
         up.")

  (** In the order [to_flags] renders them and system names list tags. *)
  let all =
    [ flit; dist_rw; log_mirror; detect; uc_shards; lsm_ckpt; lsm_fanout;
      persist_policy ]

  let render c f =
    match f.value with
    | _ when not (f.on c) -> ""
    | Flag _ -> " " ^ flag f
    | Int { get; _ } -> Printf.sprintf " %s %d" (flag f) (get c)
    | Spec { spec; _ } ->
      Option.fold ~none:"" ~some:(Printf.sprintf " %s \"%s\"" (flag f)) (spec c)
end

(** The planted faults, each declared once: its [--fault] name, its note
    in that flag's help, and the feature it only exists under. *)
module Fault = struct
  type t = { fault : fault; name : string; doc : string; needs : Feature.t option }

  let flag = "fault"
  let fault ?needs ?(doc = "") fault name = { fault; name; doc; needs }

  let all =
    Feature.
      [
        fault No_fault "none";
        fault Early_boundary_advance "early-boundary";
        fault Mirror_read_on_recovery "mirror-read-recovery";
        fault Response_before_log_persist "response-before-log-persist"
          ~needs:detect ~doc:("requires " ^ flag detect);
        fault Commit_before_prepare_persist "commit-before-prepare"
          ~needs:uc_shards
          ~doc:
            "requires sharding: the cross-shard commit decision is flushed \
             before any prepare is durably logged";
        fault Manifest_before_segment_seal "manifest-before-seal"
          ~needs:lsm_ckpt
          ~doc:
            ("requires " ^ flag lsm_ckpt
            ^ ": the checkpoint manifest is published before the segment \
               bodies it points at are fenced");
        fault Commit_before_copies_persist "commit-before-copies-persist"
          ~doc:
            "classic checkpoints: a recovery commits its background \
             checkpoint copies before writing their heaps back";
      ]

  let of_fault f = List.find (fun p -> p.fault = f) all

  (** The faults subcommand [sub] offers: those whose needed feature it
      takes, so a refusal never names a flag [sub] lacks. *)
  let offered sub =
    let takes f = List.mem sub f.Feature.subcommands in
    List.filter (fun p -> Option.fold ~none:true ~some:takes p.needs) all

  (** [--fault]'s help for [faults]: comma-separated, except that a fault
      whose note explains it is followed by "or". *)
  let help faults =
    let item p = if p.doc = "" then p.name else p.name ^ " (" ^ p.doc ^ ")" in
    let rec join = function
      | [] -> ""
      | [ p ] -> item p
      | p :: rest ->
        item p ^ (if String.contains p.doc ':' then " or " else ", ") ^ join rest
    in
    "Injected protocol fault: " ^ join faults ^ "."
end

let fault_name f = (Fault.of_fault f).Fault.name

(** Validate against the constraint of §5.1 (the persistence-cycle length
    must leave room for one full batch plus the lowMark slack,
    ε ≤ LOG_SIZE − β − 1), the feature table's mode rules and planted
    faults' needs, and the combinations below that have no semantics. *)
let validate t ~beta =
  if t.log_size < 2 * beta then
    invalid_arg "Config: log too small for two batches";
  if t.mode <> Volatile && t.epsilon > t.log_size - beta - 1 then
    invalid_arg "Config: epsilon must be at most LOG_SIZE - beta - 1";
  if t.mode <> Volatile && t.epsilon < 1 then
    invalid_arg "Config: epsilon must be positive";
  if t.workers < 1 then invalid_arg "Config: need at least one worker";
  if t.shards < 1 then invalid_arg "Config: need at least one shard";
  List.iter
    (fun (f : Feature.t) ->
      let modes, why = f.refused in
      if f.on t && List.mem t.mode modes then invalid_arg ("Config: " ^ why))
    Feature.all;
  (* a fault whose feature is off names the setting that turns it on *)
  (match (Fault.of_fault t.fault).Fault.needs with
   | Some f when not (f.Feature.on t) ->
     invalid_arg
       (Printf.sprintf "Config: %s fault only exists %s" (fault_name t.fault)
          (match f.Feature.value with
           | Feature.Int { get; _ } ->
             Printf.sprintf "with %s >= %d" (Feature.flag f) (get default + 1)
           | Feature.Flag _ | Feature.Spec _ -> "under " ^ Feature.flag f))
   | Some _ | None -> ());
  if t.shards > 1 && t.detect then
    invalid_arg "Config: detectable execution is per-instance; not yet \
                 wired through the shard router";
  if t.shards > max_shards then
    Printf.ksprintf invalid_arg
      "Config: at most %d shards (64-slot root directory, 8 slots per shard)"
      max_shards;
  if t.lsm_fanout < 2 then invalid_arg "Config: lsm_fanout must be at least 2";
  if t.fault = Commit_before_copies_persist && (t.lsm_ckpt || t.mode = Volatile)
  then
    invalid_arg
      "Config: commit-before-copies-persist fault only exists with classic \
       checkpoints"

(** The checker command-line flags that rebuild [t]'s fault and feature
    set — the fault, then every feature that is on, in table order — so a
    printed repro command replays exactly the configuration that failed.
    Not rendered: the fields the checkers set from their own arguments
    (mode, ε, log size, workers) and those no subcommand has a flag for
    ([flush], [root_base], [tag]). *)
let to_flags t =
  (if t.fault <> No_fault then Printf.sprintf " --%s %s" Fault.flag (fault_name t.fault)
   else "")
  ^ String.concat "" (List.map (Feature.render t) Feature.all)
