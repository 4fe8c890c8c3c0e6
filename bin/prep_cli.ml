(* prep-cli: drive the PREP-UC reproduction from the command line.

   Subcommands:
     run       run a single throughput point with explicit parameters
     profile   run one point with telemetry and print the phase breakdown
     validate  check a bench-JSON or trace-JSON artifact against its schema
     fuzz      crash-point fuzzing with durable-linearizability checking
     explore   bounded exhaustive schedule-and-crash exploration
     session   crash-restart-continue client sessions (exactly-once check)
     sweep     closed-loop threads x read-pct grid, bench-schema JSON
     serve-sim open-loop arrival-process points (offered load vs sojourn)
     optimize-persist  derive a proven per-site persistency policy

   Every PREP subcommand takes the same feature flags (--flit, --dist-rw,
   --log-mirror, --detect, --lsm-ckpt, --lsm-fanout, --persist-policy),
   read by one cmdliner term into a [Prep.Config.t] that [Config.validate]
   accepts or refuses once.

   The harness subcommands take [-j N] to fan independent simulations
   across N domains (Harness.Campaign); results are deterministic — byte
   identical at any -j.

   The paper's tables and figures come from bench/main.exe (one mode per
   figure); examples/crash_recovery.exe prints one crash's loss accounting
   against epsilon+beta-1 for both modes.

   Examples:
     dune exec bin/prep_cli.exe -- run --system prep-buffered --threads 8 \
       --epsilon 1024 --read-pct 90
     dune exec bin/prep_cli.exe -- run --system prep-durable --uc-shards 4 \
       --threads 12                      # hash-routed sharded construction
     dune exec bin/prep_cli.exe -- profile --system prep-durable --threads 4 \
       --trace trace.json               # open trace.json in ui.perfetto.dev
     dune exec bin/prep_cli.exe -- profile --system prep-durable \
       --uc-shards 4 --threads 8        # shard<i>/ counters, per-shard spans
     dune exec bin/prep_cli.exe -- validate --kind trace trace.json
     dune exec bin/prep_cli.exe -- fuzz --variant buffered --seed 43 \
       --crash-at 900000                 # replay one checked crash
     dune exec bin/prep_cli.exe -- fuzz --iters 200 --variant buffered -j 4
     dune exec bin/prep_cli.exe -- fuzz --variant durable --ds rbtree \
       --seed 57 --crash-op 81000        # replay one exact episode
     dune exec bin/prep_cli.exe -- fuzz --variant durable --uc-shards 4 \
       --multi-pct 40 --cross-pct 100 -j 4   # cross-shard 2PC atomicity
     dune exec bin/prep_cli.exe -- explore --threads 2 --ops 2 --shards 8 -j 4
     dune exec bin/prep_cli.exe -- explore --variant durable --uc-shards 2 \
       --no-persistence --ops 1          # exhaustive cross-shard crashes
     dune exec bin/prep_cli.exe -- sweep --threads-list 2,8,16 \
       --read-pcts 50,90 -j 4 --json sweep.json
     dune exec bin/prep_cli.exe -- sweep --system prep-durable --flit \
       --threads-list 1,11,23 --read-pcts 50 --epsilon 4096 \
       --json flit.json                  # flush traffic (drop --flit: baseline)
     dune exec bin/prep_cli.exe -- serve-sim --arrival bursty \
       --rates 5e5,1e6,2e6 --theta 0.99 --shed 64 --json curve.json
     dune exec bin/prep_cli.exe -- run --system prep-durable --lsm-ckpt \
       --ds rbtree --threads 8          # incremental checkpoint backend *)

open Cmdliner
open Harness

(* ---- run ---- *)

let system_arg =
  let doc =
    "System: gl, prep-v, prep-buffered, prep-durable, cx, soft-1k, soft-10k."
  in
  Arg.(
    value
    & opt string "prep-buffered"
    & info [ "system"; "s" ] ~docv:"SYSTEM" ~doc)

(* Op mixes for the checker workloads. The map structures share op codes. *)
let map_gen rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (Seqds.Hashmap.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (Seqds.Hashmap.op_remove, [| k |])
  | 6 | 7 | 8 -> (Seqds.Hashmap.op_get, [| k |])
  | _ -> (Seqds.Hashmap.op_size, [||])

let pair_gen ~push ~pop rng =
  if Sim.Rng.int rng 2 = 0 then (push, [| Sim.Rng.int rng 1000 |])
  else (pop, [||])

(* Every [--ds]. A keyless structure carries its push/pop op codes and its
   throughput workload; a map (no pairs) runs the [--read-pct] mix. *)
type ds_entry =
  (module Seqds.Ds_intf.S) * (int * int * (prefill_n:int -> Workload.t)) option

let data_structures : (string * ds_entry) list =
  [ ("hashmap", ((module Seqds.Hashmap), None));
    ("rbtree", ((module Seqds.Rbtree), None));
    ("skiplist", ((module Seqds.Skiplist), None));
    ( "queue",
      ( (module Seqds.Queue_ds),
        Some
          ( Seqds.Queue_ds.op_enqueue, Seqds.Queue_ds.op_dequeue,
            Workload.queue_pairs ) ) );
    ( "pqueue",
      ( (module Seqds.Pqueue),
        Some
          ( Seqds.Pqueue.op_enqueue, Seqds.Pqueue.op_dequeue,
            Workload.pqueue_pairs ) ) );
    ( "stack",
      ( (module Seqds.Stack_ds),
        Some (Seqds.Stack_ds.op_push, Seqds.Stack_ds.op_pop, Workload.stack_pairs)
      ) ) ]

let is_map ds = List.mem ds [ "hashmap"; "rbtree"; "skiplist" ]

(* The structure and the checker op mix of a [--ds]. *)
let fuzz_ds ds =
  match List.assoc ds data_structures with
  | m, None -> (m, map_gen)
  | m, Some (push, pop, _) -> (m, pair_gen ~push ~pop)

let ds_arg =
  let doc = "Data structure: hashmap, rbtree, skiplist, queue, pqueue, stack." in
  let names = Arg.enum (List.map (fun (n, _) -> (n, n)) data_structures) in
  Arg.(value & opt names "hashmap" & info [ "ds" ] ~docv:"DS" ~doc)

(* An integer option [names] defaulting to [default]; the subcommands
   share names like --threads, --epsilon and --seed but not defaults. *)
let int_arg ?(docv = "N") names default doc =
  Arg.(value & opt int default & info names ~docv ~doc)

let threads_arg = int_arg [ "threads"; "t" ] 8 "Worker threads."
let epsilon_arg = int_arg ~docv:"EPS" [ "epsilon"; "e" ] 1024 "Flush boundary step."
let read_pct_arg = int_arg ~docv:"PCT" [ "read-pct" ] 90 "Read-only percentage (maps only)."
let keys_arg = int_arg [ "keys" ] 4096 "Key range (maps) or prefill size (pairs)."
let duration_arg = int_arg ~docv:"NS" [ "duration" ] 2_000_000 "Measured simulated time, ns."
let seed_arg = int_arg ~docv:"SEED" [ "seed" ] 7 "Simulation seed."

let log_size = 16384

let flit_arg =
  let doc =
    "Enable the FliT flush-elimination layer (PREP systems only): per-line \
     flush tracking plus a deferred combiner payload fence \
     (log.fence_payload=defer-to-next-fence unless --persist-policy sets \
     that site)."
  in
  Arg.(value & flag & info [ "flit" ] ~doc)

let dist_rw_arg =
  let doc =
    "Protect each replica with the distributed per-core reader-writer lock \
     (PREP systems only): readers touch only their own cache line."
  in
  Arg.(value & flag & info [ "dist-rw" ] ~doc)

let log_mirror_arg =
  let doc =
    "Shadow the durable log into a DRAM mirror and serve replica catch-up \
     reads from it (PREP-Durable only; recovery still reads NVM)."
  in
  Arg.(value & flag & info [ "log-mirror" ] ~doc)

let detect_arg =
  let doc =
    "Enable detectable execution (PREP-Durable only): per-thread persistent \
     announce/response records, so after a crash every client can resolve \
     whether its in-flight op took effect and re-submit exactly the lost \
     ones."
  in
  Arg.(value & flag & info [ "detect" ] ~doc)

let lsm_ckpt_arg =
  let doc =
    "Replace the whole-replica checkpoint with the incremental \
     log-structured backend (PREP-Buffered/Durable maps only): dirty keys \
     accumulate in a volatile memtable sealed into immutable sorted NVM \
     segments behind a fenced manifest; recovery mounts the manifest and \
     replays only the log suffix past the last seal."
  in
  Arg.(value & flag & info [ "lsm-ckpt" ] ~doc)

let lsm_fanout_arg =
  let doc =
    "With --lsm-ckpt: size-tiered compaction fanout — the background \
     fiber merges every run of $(docv) same-level segments into one \
     segment a level up."
  in
  Arg.(value & opt int 4 & info [ "lsm-fanout" ] ~docv:"K" ~doc)

let uc_shards_arg =
  let doc =
    "Run $(docv) hash-routed PREP-Durable shards behind the cross-shard \
     router (prep-durable maps only): each shard is an independent log + \
     replica set + combiner, single-key ops route by key hash. Telemetry \
     is reported per shard (shard<i>/ counters, per-shard phase spans and \
     persistence tracks). Under fuzz, cross-shard transactions join the \
     mix (--multi-pct, --cross-pct)."
  in
  Arg.(value & opt int 1 & info [ "uc-shards" ] ~docv:"N" ~doc)

let persist_policy_arg =
  let doc =
    "Per-site persistency policy: a JSON file emitted by optimize-persist \
     or an inline spec like \
     'log.fence_payload=defer-to-next-fence,prep.init=elide'. Sites not \
     named stay at emit. PREP systems only."
  in
  Arg.(value
       & opt (some string) None
       & info [ "persist-policy" ] ~docv:"SPEC|FILE" ~doc)

(* The feature part of a [Prep.Config.t], parsed once for every PREP
   subcommand. Mode, epsilon, log size, shards, workers and fault stay at
   [Config.make]'s defaults for the subcommand to set. *)
let features_term =
  let features flit dist_rw log_mirror detect lsm_ckpt lsm_fanout
      persist_policy =
    let policy =
      match persist_policy with
      | None -> Ok None
      | Some arg -> Result.map Option.some (Nvm.Persist.load arg)
    in
    match policy with
    | Error e -> `Error (true, e)
    | Ok persist_policy ->
      `Ok
        (Prep.Config.make ~flit ~dist_rw ~log_mirror ~detect ~lsm_ckpt
           ~lsm_fanout ?persist_policy ~workers:1 ())
  in
  Term.(
    ret
      (const features $ flit_arg $ dist_rw_arg $ log_mirror_arg $ detect_arg
     $ lsm_ckpt_arg $ lsm_fanout_arg $ persist_policy_arg))

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file of the run (one track per fiber, \
     phase spans, crash/flush instants). Open it in ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Run independent simulations on $(docv) domains. Deterministic: the \
     output is byte-identical at any -j."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Every PREP subcommand builds one configuration and validates it once,
   up front, against the machine's beta: every feature-combination rule
   lives in [Config.validate], and a refusal is a usage error. The two
   rules below need the data structure, which the configuration does not
   name. *)
let validated_config ~beta ~ds cfg =
  match Prep.Config.validate cfg ~beta with
  | exception Invalid_argument m -> Error m
  | () ->
    if cfg.Prep.Config.lsm_ckpt && not (is_map ds) then
      Error "--lsm-ckpt needs a map data structure (per-key dirty tracking)"
    else if cfg.Prep.Config.shards > 1 && not (is_map ds) then
      Error "sharding needs a map data structure (ops route by key)"
    else Ok cfg

(* The [--system] of run/profile/sweep/serve-sim on [--ds]: a PREP mode is
   [features] at that mode, built through [Systems.of_config]; the other
   systems are not PREP and take no feature flag. *)
let experiment_system ~system ~ds ~epsilon ~uc_shards ~workers features =
  let (module Ds), _ = List.assoc ds data_structures in
  let module Sy = Experiment.Systems (Ds) in
  let prep mode =
    validated_config ~ds
      ~beta:Sim.Topology.default.Sim.Topology.cores_per_socket
      { features with
        Prep.Config.mode; epsilon; log_size; shards = uc_shards; workers }
    |> Result.map (fun cfg -> Sy.of_config cfg)
  in
  let baseline sys =
    if features <> Check.Sut.default_config || uc_shards <> 1 then
      Error
        (Printf.sprintf
           "--system %s is not a PREP system: feature flags and \
            --uc-shards need prep-v, prep-buffered or prep-durable"
           system)
    else Ok sys
  in
  match system with
  | "prep-v" -> prep Prep.Config.Volatile
  | "prep-buffered" -> prep Prep.Config.Buffered
  | "prep-durable" -> prep Prep.Config.Durable
  | "gl" -> baseline Sy.global_lock
  | "cx" -> baseline Sy.cx
  | "soft-1k" -> baseline (Experiment.soft ~nbuckets:1000)
  | "soft-10k" -> baseline (Experiment.soft ~nbuckets:10_000)
  | other -> Error (Printf.sprintf "unknown system %S" other)

let run_point ~profile system ds threads epsilon read_pct keys duration seed
    features uc_shards trace =
  match
    experiment_system ~system ~ds ~epsilon ~uc_shards ~workers:threads
      features
  with
  | Error m -> `Error (true, m)
  | Ok sys ->
    let workload =
      match List.assoc ds data_structures with
      | _, None ->
        Workload.map_workload ~read_pct ~key_range:keys ~prefill_n:(keys / 2)
      | _, Some (_, _, pairs) -> pairs ~prefill_n:(keys / 2)
    in
    (* profiling and tracing both need a live ambient registry; the plain
       [run] subcommand keeps the registry-free default path *)
    let tel =
      if profile || trace <> None then
        Some (Telemetry.Registry.create ~tracing:(trace <> None) ())
      else None
    in
    let r =
      Experiment.run ?telemetry:tel ~seed:(Int64.of_int seed)
        ~duration_ns:duration ~warmup_ns:(duration / 5) ~system:sys ~workload
        ~workers:threads ()
    in
    Printf.printf "%s | %s | %d threads: %.0f ops/sec (%d ops)\n"
      r.Experiment.system r.Experiment.workload r.Experiment.workers
      r.Experiment.throughput r.Experiment.ops;
    Printf.printf "memory: %d wbinvd, %d clwb, %d clflush, %d fences, %d bg-flushes\n"
      r.Experiment.wbinvd r.Experiment.clwb r.Experiment.clflush
      r.Experiment.sfence r.Experiment.bg_flushes;
    if
      r.Experiment.clwb_elided + r.Experiment.clwb_coalesced
      + r.Experiment.clflush_elided + r.Experiment.sfence_elided > 0
    then
      Printf.printf
        "saved:  %d clwb elided, %d clwb coalesced, %d clflush elided, %d \
         fences elided\n"
        r.Experiment.clwb_elided r.Experiment.clwb_coalesced
        r.Experiment.clflush_elided r.Experiment.sfence_elided;
    if profile then begin
      print_newline ();
      print_string (Profile.render r.Experiment.telemetry)
    end
    else begin
      let nonzero =
        List.filter (fun (_, v) -> v <> 0) (Experiment.counters r)
      in
      if nonzero <> [] then begin
        print_string "counters:";
        List.iter (fun (k, v) -> Printf.printf " %s=%d" k v) nonzero;
        print_newline ()
      end
    end;
    match (trace, tel) with
    | Some path, Some reg -> (
      match Telemetry.Trace_export.write reg path with
      | Ok () ->
        Printf.printf "trace: %d events written to %s (%d dropped)\n"
          (Telemetry.Registry.n_events reg)
          path
          (Telemetry.Registry.dropped_events reg);
        `Ok ()
      | Error errs ->
        `Error
          ( false,
            "trace failed self-validation:\n  " ^ String.concat "\n  " errs ))
    | _ -> `Ok ()

let point_term ~profile =
  Term.(
    ret
      (const (run_point ~profile) $ system_arg $ ds_arg $ threads_arg
     $ epsilon_arg $ read_pct_arg $ keys_arg $ duration_arg $ seed_arg
     $ features_term $ uc_shards_arg $ trace_arg))

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a single throughput point")
    (point_term ~profile:false)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a single throughput point with telemetry enabled and print \
          the simulated-time phase breakdown (combine/publish/persist/\
          catch-up spans, latency percentiles, per-primitive NVM counters)")
    (point_term ~profile:true)

(* ---- validate ---- *)

let validate_kind_arg =
  let doc =
    "Artifact kind: trace (Chrome trace-event JSON), bench, policy \
     (optimize-persist persistency-policy JSON), or report \
     (optimize-persist decision-report JSON)."
  in
  Arg.(
    required
    & opt (some string) None
    & info [ "kind"; "k" ] ~docv:"KIND" ~doc)

let validate_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"JSON artifact to validate.")

let validate kind file =
  let contents () =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if kind = "report" then (
    (* the optimize-persist decision report: check the schema tag and
       the presence/shape of every section *)
    let module J = Telemetry.Json in
    match J.parse_result (contents ()) with
    | Error e ->
      Printf.printf "%s: %s\n" file e;
      `Error (false, "validation failed")
    | Ok v -> (
      let bad m =
        Printf.printf "%s: %s\n" file m;
        `Error (false, "validation failed")
      in
      match J.member "schema" v with
      | Some (J.Str "prep.persist-report/1") -> (
        match
          ( J.member "baseline" v, J.member "policy" v,
            J.member "admitted" v, J.member "decisions" v,
            J.member "measured" v )
        with
        | Some (J.Obj _), Some (J.Obj _), Some (J.Obj adm),
          Some (J.List ds), Some (J.List _) ->
          Printf.printf
            "%s: valid persist-report (%d weakenings, %d decisions)\n" file
            (List.length adm) (List.length ds);
          `Ok ()
        | _ -> bad "persist-report: missing or malformed section")
      | _ ->
        bad "persist-report: missing or wrong \"schema\" (want \
             \"prep.persist-report/1\")"))
  else if kind = "policy" then (
    match Nvm.Persist.of_json (contents ()) with
    | Ok p ->
      Printf.printf "%s: valid persist-policy (%s; %d weakenings)\n" file
        Nvm.Persist.schema
        (List.length (Nvm.Persist.weakenings p));
      `Ok ()
    | Error e ->
      Printf.printf "%s: %s\n" file e;
      `Error (false, "validation failed"))
  else
  let validator =
    match kind with
    | "trace" -> Ok Telemetry.Json.validate_trace
    | "bench" -> Ok Telemetry.Json.validate_bench
    | other -> Error (Printf.sprintf "unknown artifact kind %S" other)
  in
  match validator with
  | Error m -> `Error (true, m)
  | Ok validator -> (
    match Telemetry.Json.validate_string validator (contents ()) with
    | Ok () ->
      Printf.printf "%s: valid %s artifact (schema_version %d)\n" file kind
        Telemetry.Json.schema_version;
      `Ok ()
    | Error errs ->
      List.iter (fun e -> Printf.printf "%s: %s\n" file e) errs;
      `Error (false, "validation failed"))

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate a machine-readable artifact (bench result JSON or Chrome \
          trace JSON) against its schema; exits nonzero when malformed")
    Term.(ret (const validate $ validate_kind_arg $ validate_file_arg))

(* ---- fuzz ---- *)

let iters_arg = int_arg [ "iters"; "n" ] 100 "Fuzzing episodes."

let variant_arg =
  let doc = "Variant under test: volatile, buffered or durable." in
  let modes =
    List.map
      (fun m -> (Prep.Config.variant_name m, m))
      Prep.Config.[ Volatile; Buffered; Durable ]
  in
  Arg.(
    value
    & opt (enum modes) Prep.Config.Buffered
    & info [ "variant" ] ~docv:"VARIANT" ~doc)

let fault_arg =
  let doc =
    "Injected protocol fault: none, early-boundary, mirror-read-recovery, \
     response-before-log-persist (requires --detect), commit-before-prepare \
     (requires sharding: the cross-shard commit decision is flushed before \
     any prepare is durably logged) or manifest-before-seal (requires \
     --lsm-ckpt: the checkpoint manifest is published before the segment \
     bodies it points at are fenced) or commit-before-copies-persist \
     (classic checkpoints: a recovery commits its background checkpoint \
     copies before writing their heaps back)."
  in
  let faults =
    List.map
      (fun f -> (Prep.Config.fault_name f, f))
      Prep.Config.
        [ No_fault; Early_boundary_advance; Mirror_read_on_recovery;
          Response_before_log_persist; Commit_before_prepare_persist;
          Manifest_before_segment_seal; Commit_before_copies_persist ]
  in
  Arg.(
    value
    & opt (enum faults) Prep.Config.No_fault
    & info [ "fault" ] ~docv:"FAULT" ~doc)

let fuzz_threads_arg = int_arg [ "threads"; "t" ] 6 "Worker threads (1-7)."
let fuzz_epsilon_arg = int_arg ~docv:"EPS" [ "epsilon"; "e" ] 16 "Flush boundary step."
let fuzz_log_size_arg = int_arg [ "log-size" ] 256 "Shared log entries."
let fuzz_ops_arg = int_arg [ "ops" ] 300 "Operations per worker."
let fuzz_seed_arg = int_arg ~docv:"SEED" [ "seed" ] 42 "Base seed."

let crash_op_arg =
  let doc = "Replay one episode crashing before the Nth memory operation." in
  Arg.(value & opt (some int) None & info [ "crash-op" ] ~docv:"N" ~doc)

let crash_time_arg =
  let doc = "Replay one episode crashing at the given simulated time (ns)." in
  Arg.(value & opt (some int) None & info [ "crash-at" ] ~docv:"NS" ~doc)

let no_crash_arg =
  let doc = "Replay one crash-free episode (quiescent-state check only)." in
  Arg.(value & flag & info [ "no-crash" ] ~doc)

let multi_pct_arg =
  let doc = "With --uc-shards: percent of ops that are multi-key transactions." in
  Arg.(value & opt int 25 & info [ "multi-pct" ] ~docv:"PCT" ~doc)

let cross_pct_arg =
  let doc =
    "With --uc-shards: percent of multi-key transactions whose keys land on \
     different shards (the rest collapse to single-shard commits)."
  in
  Arg.(value & opt int 75 & info [ "cross-pct" ] ~docv:"PCT" ~doc)

(* A checker's verdict on one run: its violations, or "no violations". *)
let verdict violations =
  List.iter
    (fun v ->
      Printf.printf "VIOLATION: %s\n" (Check.Durable_lin.violation_to_string v))
    violations;
  if violations = [] then begin
    print_endline "no violations";
    `Ok ()
  end
  else `Error (false, "durable-linearizability violations found")

let fuzz iters mode ds threads epsilon log_size ops seed fault crash_op
    crash_time no_crash features shards multi_pct cross_pct jobs =
  let (module Ds), gen_op = fuzz_ds ds in
  let module F = Check.Fuzz.Make (Ds) in
  let config =
    validated_config ~ds
      ~beta:Check.Fuzz.topology.Sim.Topology.cores_per_socket
      { features with
        Prep.Config.mode; log_size; epsilon; shards; fault;
        workers = threads }
  in
  match config with
  | Error m -> `Error (true, m)
  | Ok config ->
  if threads < 1 || threads > Check.Fuzz.max_threads then
    `Error
      ( true,
        Printf.sprintf "--threads must be between 1 and %d (got %d)"
          Check.Fuzz.max_threads threads )
  else if
    mode = Prep.Config.Volatile && (crash_op <> None || crash_time <> None)
  then
    `Error (true, "volatile episodes cannot crash: drop the crash flag")
  else if
    shards > 1
    && (multi_pct < 0 || multi_pct > 100 || cross_pct < 0 || cross_pct > 100)
  then `Error (true, "--multi-pct/--cross-pct must be in 0..100")
  else
  (* sharded runs mix multi-key transactions into the map workload; the
     generator's knobs ride along on the repro command *)
  let gen_op, gen_flags =
    if shards = 1 then (gen_op, "")
    else
      let w =
        Workload.map_workload_sharded ~read_pct:20 ~multi_pct ~cross_pct
          ~nshards:shards ~key_range:128 ~prefill_n:0
      in
      ( (fun rng -> w.Workload.next rng ~phase:0),
        Printf.sprintf " --multi-pct %d --cross-pct %d" multi_pct cross_pct )
  in
  let template =
    {
      Check.Fuzz.workload_seed = seed;
      threads;
      epsilon;
      log_size;
      ops_per_worker = ops;
      bg_period = Check.Fuzz.bg_period;
      preempt_prob = Check.Fuzz.preempt_prob;
      crash = Check.Fuzz.No_crash;
    }
  in
  let replay =
    match (crash_op, crash_time, no_crash) with
    | Some n, _, _ -> Some (Check.Fuzz.At_op n)
    | None, Some ns, _ -> Some (Check.Fuzz.At_time ns)
    | None, None, true -> Some Check.Fuzz.No_crash
    | None, None, false -> None
  in
  (match replay with
   | Some crash ->
     (* replay a single, fully specified episode (shrunk repro) *)
     let ep = { template with crash } in
     let out = F.run_episode ~config ~mode ~fault ~gen_op ep in
     Printf.printf
       "episode %s: crashed=%b logged=%d completed=%d applied=%d\n"
       (Fmt.str "%a" Check.Fuzz.pp_episode ep)
       out.Check.Fuzz.crashed out.Check.Fuzz.logged out.Check.Fuzz.completed
       out.Check.Fuzz.applied;
     verdict out.Check.Fuzz.violations
   | None ->
     let res =
       F.fuzz ~config ~mode ~fault ~gen_op ~template ~iters
         ~log:print_endline ~runner:(Campaign.run ~j:jobs) ()
     in
     Printf.printf "%d episodes (%d crashed), %d failing\n"
       res.Check.Fuzz.episodes res.Check.Fuzz.crashes
       (List.length res.Check.Fuzz.failures);
     (match res.Check.Fuzz.failures with
      | [] -> `Ok ()
      | first :: _ ->
        print_endline "shrinking first failure...";
        let small =
          F.shrink ~config ~mode ~fault ~gen_op first.Check.Fuzz.episode
        in
        Printf.printf "shrunk to: %s\nreplay with:\n  %s%s\n"
          (Fmt.str "%a" Check.Fuzz.pp_episode small)
          (Check.Fuzz.repro_command ~config ~mode ~fault ~ds small)
          gen_flags;
        `Error (false, "durable-linearizability violations found")))

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Crash-point fuzzing: random crash injection, durable-linearizability \
          checking, counterexample shrinking")
    Term.(
      ret
        (const fuzz $ iters_arg $ variant_arg $ ds_arg $ fuzz_threads_arg
       $ fuzz_epsilon_arg $ fuzz_log_size_arg $ fuzz_ops_arg $ fuzz_seed_arg
       $ fault_arg $ crash_op_arg $ crash_time_arg $ no_crash_arg
       $ features_term $ uc_shards_arg $ multi_pct_arg $ cross_pct_arg
       $ jobs_arg))

(* ---- explore ---- *)

let exp_threads_arg = int_arg [ "threads"; "t" ] 2 "Worker threads (small scope: 2-3)."
let exp_ops_arg = int_arg [ "ops" ] 3 "Operations per worker."
let exp_epsilon_arg = int_arg ~docv:"EPS" [ "epsilon"; "e" ] 2 "Flush boundary step."
let exp_log_size_arg = int_arg [ "log-size" ] 16 "Shared log entries."
let exp_seed_arg = int_arg ~docv:"SEED" [ "seed" ] 1 "Workload seed."
let exp_sockets_arg = int_arg [ "sockets" ] 2 "NUMA sockets."
let exp_cores_arg = int_arg [ "cores" ] 2 "Cores per socket (= beta)."

let max_schedules_arg =
  Arg.(value & opt int Check.Explore.default_budget.Check.Explore.max_schedules
       & info [ "max-schedules" ] ~docv:"N" ~doc:"Schedule budget.")

let no_prune_arg =
  let doc =
    "Disable sleep-set and state-hash pruning (naive enumeration, for \
     measuring the reduction factor)."
  in
  Arg.(value & flag & info [ "no-prune" ] ~doc)

let shards_arg =
  let doc =
    "Split the oracle work (crash recoveries, terminal model-replays) into \
     $(docv) independent shards run as a campaign; the merged result is \
     audited against the replicated schedule DFS. Keep $(docv) fixed while \
     varying -j: the merge is a function of the shard set, not of how many \
     domains ran it."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

let replay_arg =
  let doc =
    "Replay a single schedule from a run-length-encoded decision trace \
     (e.g. '3*12,5,4*7') instead of exploring."
  in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"TRACE" ~doc)

let crash_step_arg =
  let doc = "With --replay: crash at the given runtime scheduler step." in
  Arg.(value & opt (some int) None & info [ "crash-step" ] ~docv:"N" ~doc)

let frontier_arg =
  let doc =
    "With --crash-step: frontier mask — bit $(i,k) commits the $(i,k)-th dirty \
     NVM line (sorted) to media before the crash."
  in
  Arg.(value & opt int 0 & info [ "frontier" ] ~docv:"MASK" ~doc)

let no_persistence_arg =
  let doc =
    "Exclude the checkpoint (persistence) fibers from the explored schedule \
     space. Sound when the scope's total op count stays below --epsilon and \
     the log cannot wrap: combiners never reach a flush boundary, and \
     recovery replays the whole log over the empty checkpoint. Required in \
     practice for --uc-shards, whose per-shard checkpoint fibers never \
     quiesce and make the space unbounded."
  in
  Arg.(value & flag & info [ "no-persistence" ] ~doc)

(* The explorer's scope and budget, shared by explore and optimize-persist.
   The scope prunes; explore's --no-prune turns that off. *)
let scope_term =
  let scope threads ops epsilon log_size seed sockets cores no_persistence =
    {
      Check.Explore.seed;
      threads;
      ops_per_worker = ops;
      epsilon;
      log_size;
      sockets;
      cores_per_socket = cores;
      prune = true;
      persistence = not no_persistence;
    }
  in
  Term.(
    const scope $ exp_threads_arg $ exp_ops_arg $ exp_epsilon_arg
    $ exp_log_size_arg $ exp_seed_arg $ exp_sockets_arg $ exp_cores_arg
    $ no_persistence_arg)

let budget_term =
  let budget max_schedules =
    { Check.Explore.default_budget with Check.Explore.max_schedules }
  in
  Term.(const budget $ max_schedules_arg)

let report_explore_result ~repro_command res =
  let s = res.Check.Explore.stats in
  Printf.printf
    "schedules %d (terminals %d)  steps %d  states %d  dedup-hits %d  \
     sleep-skips %d\n\
     crash points %d  frontiers %d  recoveries %d  truncations %d  \
     depth cutoffs %d  stutter cuts %d\n\
     max completed-op loss %d  distinct terminal states %d  exhausted %b\n"
    s.Check.Explore.schedules s.Check.Explore.terminals s.Check.Explore.steps
    s.Check.Explore.states s.Check.Explore.dedup_hits
    s.Check.Explore.sleep_skips s.Check.Explore.crash_points
    s.Check.Explore.frontiers s.Check.Explore.recoveries
    s.Check.Explore.frontier_truncations s.Check.Explore.depth_cutoffs
    s.Check.Explore.stutter_cuts s.Check.Explore.max_completed_loss
    (List.length res.Check.Explore.terminal_states)
    res.Check.Explore.exhausted;
  match res.Check.Explore.violation with
  | None -> verdict []
  | Some v ->
    let failed = verdict v.Check.Explore.v_violations in
    Printf.printf "logged=%d completed=%d applied=%d\n"
      v.Check.Explore.v_logged v.Check.Explore.v_completed
      v.Check.Explore.v_applied;
    Printf.printf "decision trace: %s\n"
      (Check.Explore.decisions_to_string v.Check.Explore.v_decisions);
    (match v.Check.Explore.v_crash with
     | Some (step, mask) ->
       Printf.printf "crash: step %d, frontier mask %d\n" step mask
     | None -> print_endline "crash: none (terminal-state violation)");
    Printf.printf "replay with:\n  %s\n"
      (repro_command v.Check.Explore.v_decisions v.Check.Explore.v_crash);
    failed

let report_explore_replay (violations, crashed, logged, completed, applied) =
  Printf.printf "replay: crashed=%b logged=%d completed=%d applied=%d\n"
    crashed logged completed applied;
  verdict violations

(* Op mix for sharded exploration: single-key inserts/gets plus cross-shard
   multi-puts and transfers over a small key range, so the 2PC paths are in
   the explored space. The map structures share op codes. *)
let sharded_explore_gen rng =
  let k = Sim.Rng.int rng 8 in
  match Sim.Rng.int rng 4 with
  | 0 -> (Prep.Sharded_uc.op_multi_put, [| k; k + 1; 1 + Sim.Rng.int rng 9 |])
  | 1 -> (Seqds.Hashmap.op_insert, [| k; Sim.Rng.int rng 100 |])
  | 2 -> (Seqds.Hashmap.op_get, [| k |])
  | _ -> (Prep.Sharded_uc.op_transfer, [| k; k + 3; 1 |])

let explore mode ds scope fault features budget no_prune shards uc_shards jobs
    replay crash_step frontier =
  let scope = { scope with Check.Explore.prune = not no_prune } in
  let { Check.Explore.threads; epsilon; log_size; _ } = scope in
  let (module Ds), gen_op = fuzz_ds ds in
  let config =
    validated_config ~ds ~beta:scope.Check.Explore.cores_per_socket
      { features with
        Prep.Config.mode; log_size; epsilon; shards = uc_shards; fault;
        workers = threads }
  in
  match config with
  | Error m -> `Error (true, m)
  | Ok config ->
  let module E = Check.Explore.Make (Ds) in
  let gen_op = if uc_shards > 1 then sharded_explore_gen else gen_op in
  if threads < 1 || threads > Check.Explore.max_threads scope then
    `Error
      ( true,
        Printf.sprintf "--threads must be between 1 and %d (got %d)"
          (Check.Explore.max_threads scope) threads )
  else if shards < 1 then `Error (true, "--shards must be at least 1")
  else
    match replay with
    | Some trace_str ->
      let decisions = Check.Explore.decisions_of_string trace_str in
      let crash = Option.map (fun s -> (s, frontier)) crash_step in
      report_explore_replay
        (E.replay ~config ~mode ~fault ~gen_op ~scope ~decisions ?crash ())
    | None ->
      let explore shard =
        E.explore ~config ~budget ~shard ~mode ~fault ~gen_op ~scope ()
      in
      let res =
        if shards = 1 then explore (0, 1)
        else
          Check.Explore.merge_shards
            (Campaign.run ~j:jobs
               (Array.init shards (fun i () -> explore (i, shards))))
      in
      report_explore_result
        ~repro_command:
          (Check.Explore.repro_command ~config ~mode ~fault ~ds ~scope)
        res

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded exhaustive schedule-and-crash exploration: every \
          interleaving of a small-scope workload, every reachable crash \
          frontier, DPOR-style pruning, replayable decision traces")
    Term.(
      ret
        (const explore $ variant_arg $ ds_arg $ scope_term $ fault_arg
       $ features_term $ budget_term $ no_prune_arg $ shards_arg
       $ uc_shards_arg $ jobs_arg $ replay_arg $ crash_step_arg $ frontier_arg))

(* ---- optimize-persist ---- *)

let op_out_arg =
  Arg.(value
       & opt string "persist-policy.json"
       & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the proven policy JSON here (--persist-policy input).")

let op_report_arg =
  Arg.(value
       & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Also write the full decision report JSON (admitted and \
                 rejected candidates, measurements, repro commands).")

let op_fuzz_iters_arg =
  Arg.(value & opt int 30
       & info [ "fuzz-iters" ] ~docv:"N"
           ~doc:"Crash episodes in the per-candidate differential fuzz soak.")

let optimize_persist mode ds scope features budget fuzz_iters out
    report_file =
  let { Check.Explore.threads; epsilon; log_size; seed; _ } = scope in
  match (mode, fuzz_ds ds) with
  | Prep.Config.Volatile, _ ->
    `Error
      (true, "optimize-persist needs a persistent variant (buffered/durable)")
  | _ when features.Prep.Config.persist_policy <> None ->
    `Error (true, "optimize-persist derives a --persist-policy; it takes none")
  | mode, ((module Ds), gen_op) ->
    match
      validated_config ~ds ~beta:scope.Check.Explore.cores_per_socket
        { features with Prep.Config.mode; log_size; epsilon; workers = threads }
    with
    | Error m -> `Error (true, m)
    | Ok config ->
      let module PI = Check.Persist_infer.Make (Ds) in
      (* the measurement run and the differential fuzz soak *)
      let template =
        {
          Check.Fuzz.workload_seed = seed;
          threads = 4;
          epsilon = 16;
          log_size = 256;
          ops_per_worker = 150;
          bg_period = Check.Fuzz.bg_period;
          preempt_prob = Check.Fuzz.preempt_prob;
          crash = Check.Fuzz.No_crash;
        }
      in
      let report =
        PI.infer ~config ~log:print_endline ~mode ~gen_op ~scope ~budget
          ~template
          ~fuzz_iters ~ds ()
      in
      let write path contents =
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc contents)
      in
      write out (Nvm.Persist.to_json report.Check.Persist_infer.r_policy);
      Printf.printf "policy written to %s\n" out;
      (match report_file with
       | Some f ->
         write f (Check.Persist_infer.report_to_json report);
         Printf.printf "report written to %s\n" f
       | None -> ());
      let admitted =
        Nvm.Persist.weakenings report.Check.Persist_infer.r_policy
      in
      Printf.printf
        "admitted %d weakenings (explorer exhausted %b); flushes %d -> %d, \
         fences %d -> %d\n"
        (List.length admitted) report.Check.Persist_infer.r_exhausted
        report.Check.Persist_infer.r_baseline_flushes
        report.Check.Persist_infer.r_policy_flushes
        report.Check.Persist_infer.r_baseline_fences
        report.Check.Persist_infer.r_policy_fences;
      `Ok ()

let optimize_persist_cmd =
  Cmd.v
    (Cmd.info "optimize-persist"
       ~doc:
         "Infer a minimal per-site persistency policy: measure which \
          flush/fence sites are hot, greedily propose one-site weakenings \
          (elide, downgrade, defer) hottest-first, and admit each only if \
          the bounded-exhaustive explorer exhausts its scope with zero \
          violations AND a differential crash-fuzz soak stays clean. Emits \
          the proven policy as JSON for --persist-policy; rejected \
          candidates are recorded with replayable repro commands")
    Term.(
      ret
        (const optimize_persist $ variant_arg $ ds_arg $ scope_term
       $ features_term $ budget_term $ op_fuzz_iters_arg $ op_out_arg
       $ op_report_arg))

(* Write a bench-schema artifact; one that fails the schema fails the
   subcommand. *)
let write_artifact path contents =
  match Experiment.write_bench_json path contents with
  | Ok () ->
    Printf.printf "artifact: %s\n" path;
    `Ok ()
  | Error m -> `Error (false, m)

(* ---- session ---- *)

let session_threads_arg = int_arg [ "threads"; "t" ] 4 "Client threads (1-7)."
let session_ops_arg = int_arg [ "ops" ] 40 "Scripted update operations per client."
let session_epsilon_arg = int_arg ~docv:"EPS" [ "epsilon"; "e" ] 8 "Flush boundary step."
let session_log_size_arg = int_arg [ "log-size" ] 1024 "Shared log entries."
let session_crashes_arg = int_arg [ "crashes" ] 3 "Power failures to inject per session."
let session_seed_arg = int_arg ~docv:"SEED" [ "seed" ] 1 "Base seed."
let sessions_arg = int_arg [ "sessions" ] 1 "Independent sessions on consecutive seeds."

let session_json_arg =
  let doc = "Write a bench-schema JSON artifact of the campaign to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let json_of_outcome ~system ~ds ~threads ~seed (o : Session.outcome) =
  Experiment.json_of_run ~system ~workload:("session " ^ ds)
    ~workers:threads ~ops:o.Session.history_len
    ~duration_ns:o.Session.duration_ns o.Session.mem_stats
    [ ("seed", seed); ("epochs", List.length o.Session.epochs);
      ("crashes", o.Session.crashes_injected);
      ("submitted", o.Session.submitted);
      ("resubmitted", o.Session.resubmitted);
      ("completed", o.Session.completed); ("lost", o.Session.lost);
      ("duplicated", o.Session.duplicated);
      ("violations", List.length o.Session.violations) ]

let session ds threads ops epsilon log_size crashes seed sessions detect
    lsm_ckpt fault jobs json =
  let (module Ds), gen_op = fuzz_ds ds in
  let module S = Session.Make (Ds) in
  if threads < 1 || threads > Check.Fuzz.max_threads then
    `Error
      ( true,
        Printf.sprintf "--threads must be between 1 and %d (got %d)"
          Check.Fuzz.max_threads threads )
  else begin
    let cfg =
      {
        Session.seed;
        threads;
        ops_per_client = ops;
        epsilon;
        log_size;
        crashes;
        detect;
        lsm_ckpt;
        fault;
      }
    in
    let outcomes = S.campaign ~j:jobs cfg ~gen_op ~sessions in
    List.iteri
      (fun i (o : Session.outcome) ->
        Printf.printf "session %d (seed %d):\n" i (seed + i);
        List.iter
          (fun (e : Session.epoch_info) ->
            Printf.printf
              "  epoch %d: %s, %d re-submitted\n" e.Session.epoch
              (Session.status_to_string e.Session.status)
              e.Session.resubmitted)
          o.Session.epochs;
        Printf.printf
          "  submitted %d  applied %d  completed %d/%d  lost %d  \
           duplicated %d  violations %d\n"
          o.Session.submitted o.Session.history_len o.Session.completed
          (threads * ops) o.Session.lost o.Session.duplicated
          (List.length o.Session.violations);
        List.iter
          (fun v ->
            Printf.printf "  VIOLATION: %s\n"
              (Check.Durable_lin.violation_to_string v))
          o.Session.violations)
      outcomes;
    let total f = List.fold_left (fun a o -> a + f o) 0 outcomes in
    let crashes_tot = total (fun o -> o.Session.crashes_injected) in
    let resub = total (fun o -> o.Session.resubmitted) in
    let lost = total (fun o -> o.Session.lost) in
    let dup = total (fun o -> o.Session.duplicated) in
    let viol = total (fun o -> List.length o.Session.violations) in
    let artifact =
      match json with
      | None -> `Ok ()
      | Some path ->
        let module Sy = Experiment.Systems (Ds) in
        let system =
          Sy.system_name ~router:false
            (Prep.Config.make ~mode:Prep.Config.Durable ~detect ~lsm_ckpt
               ~workers:threads ())
        in
        write_artifact path
          (Printf.sprintf
             "{\n  \"schema_version\": %d,\n\
             \  \"config\": {\"ds\": %S, \"threads\": %d, \"ops\": %d, \
              \"epsilon\": %d, \"log_size\": %d, \"crashes\": %d, \"seed\": \
              %d, \"detect\": %b, \"lsm_ckpt\": %b, \"fault\": %S},\n\
             \  \"sessions\": [\n    %s\n  ]\n}\n"
             Telemetry.Json.schema_version ds threads ops epsilon log_size
             crashes seed detect lsm_ckpt (Prep.Config.fault_name fault)
             (String.concat ",\n    "
                (List.mapi
                   (fun i -> json_of_outcome ~system ~ds ~threads ~seed:(seed + i))
                   outcomes)))
    in
    match artifact with
    | `Error _ as failed -> failed
    | `Ok () ->
    if detect then
      if lost = 0 && dup = 0 && viol = 0 then begin
        Printf.printf
          "exactly-once: PASS (%d clients, %d crashes, %d resubmitted, 0 \
           lost, 0 duplicated)\n"
          (threads * sessions) crashes_tot resub;
        `Ok ()
      end
      else begin
        Printf.printf
          "exactly-once: FAIL (%d lost, %d duplicated, %d violations)\n"
          lost dup viol;
        `Error (false, "exactly-once contract violated")
      end
    else if dup = 0 && viol = 0 then begin
      Printf.printf
        "baseline (no --detect): %d crashes, %d lost, 0 duplicated — \
         losses are the gap --detect closes\n"
        crashes_tot lost;
      `Ok ()
    end
    else begin
      Printf.printf
        "baseline (no --detect): FAIL (%d duplicated, %d violations)\n" dup
        viol;
      `Error (false, "durable-linearizability violations found")
    end
  end

let session_cmd =
  Cmd.v
    (Cmd.info "session"
       ~doc:
         "Crash-restart-continue sessions: scripted clients survive injected \
          power failures, resume via resolve under --detect, and the \
          cumulative history is checked for exactly-once application")
    Term.(
      ret
        (const session $ ds_arg $ session_threads_arg $ session_ops_arg
       $ session_epsilon_arg $ session_log_size_arg $ session_crashes_arg
       $ session_seed_arg $ sessions_arg $ detect_arg
       $ lsm_ckpt_arg $ fault_arg $ jobs_arg $ session_json_arg))

(* ---- sweep: closed-loop threads x read-pct grid, campaign-parallel ---- *)

let not_a_map ds =
  Printf.sprintf
    "data structure %S is not a map (sweep/serve-sim need --read-pct \
     workloads: hashmap, rbtree or skiplist)"
    ds

let threads_list_arg =
  let doc = "Comma-separated worker-thread counts to sweep." in
  Arg.(
    value & opt (list int) [ 2; 8; 16 ] & info [ "threads-list" ] ~docv:"LIST" ~doc)

let read_pcts_arg =
  let doc = "Comma-separated read percentages to sweep." in
  Arg.(value & opt (list int) [ 50; 90 ] & info [ "read-pcts" ] ~docv:"LIST" ~doc)

let sweep_json_arg =
  let doc = "Write a bench-schema JSON artifact of the grid to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let sweep system ds threads_l pcts epsilon keys duration seed features
    uc_shards jobs json =
  let fail msg = `Error (true, msg) in
  let max_workers = Sim.Topology.total_cores Sim.Topology.default - 1 in
  if not (is_map ds) then fail (not_a_map ds)
  else if threads_l = [] || pcts = [] then fail "empty sweep grid"
  else if
    List.exists (fun t -> t < 1 || t > max_workers) threads_l
    || List.exists (fun p -> p < 0 || p > 100) pcts
  then
    fail
      (Printf.sprintf "grid out of range (threads 1-%d, read-pct 0-100)"
         max_workers)
  else
    match
      experiment_system ~system ~ds ~epsilon ~uc_shards
        ~workers:(List.fold_left max 1 threads_l) features
    with
    | Error m -> fail m
    | Ok sys ->
      let grid =
        Array.of_list
          (List.concat_map
             (fun t -> List.map (fun p -> (t, p)) pcts)
             threads_l)
      in
      let results =
        Campaign.map ~j:jobs
          (fun (t, p) ->
            Experiment.run ~seed:(Int64.of_int seed) ~duration_ns:duration
              ~warmup_ns:(duration / 5) ~system:sys
              ~workload:
                (Workload.map_workload ~read_pct:p ~key_range:keys
                   ~prefill_n:(keys / 2))
              ~workers:t ())
          grid
      in
      Array.iter
        (fun (r : Experiment.result) ->
          Printf.printf "%s | %s | %2d threads: %.0f ops/sec (%d ops)\n"
            r.Experiment.system r.Experiment.workload r.Experiment.workers
            r.Experiment.throughput r.Experiment.ops)
        results;
      (match json with
       | None -> `Ok ()
       | Some path -> (
         let contents =
           Printf.sprintf
             "{\n  \"schema_version\": %d,\n\
             \  \"config\": {\"system_name\": %S, \"ds\": %S, \"epsilon\": %d, \
              \"key_range\": %d, \"duration_ns\": %d, \"seed\": %d},\n\
             \  \"results\": [\n    %s\n  ]\n}\n"
             Telemetry.Json.schema_version system ds epsilon keys duration
             seed
             (String.concat ",\n    "
                (Array.to_list (Array.map Experiment.json_of_result results)))
         in
         write_artifact path contents))

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Closed-loop throughput grid over worker threads x read percentage, \
          fanned across domains with -j; emits a bench-schema JSON artifact")
    Term.(
      ret
        (const sweep $ system_arg $ ds_arg $ threads_list_arg $ read_pcts_arg
       $ epsilon_arg $ keys_arg $ duration_arg $ seed_arg $ features_term
       $ uc_shards_arg $ jobs_arg $ sweep_json_arg))

(* ---- serve-sim: open-loop arrival-process points ---- *)

let arrival_arg =
  let doc = "Arrival process: poisson, bursty (MMPP-2) or diurnal." in
  let procs = List.map (fun a -> (a, a)) [ "poisson"; "bursty"; "diurnal" ] in
  Arg.(value & opt (enum procs) "poisson" & info [ "arrival" ] ~docv:"PROC" ~doc)

let rates_arg =
  let doc = "Comma-separated mean offered loads, simulated ops/s." in
  Arg.(value & opt (list float) [ 1e6 ] & info [ "rates" ] ~docv:"LIST" ~doc)

let theta_arg =
  let doc = "Zipfian key-popularity skew in (0,1); 0 means uniform keys." in
  Arg.(value & opt float 0.0 & info [ "theta" ] ~docv:"THETA" ~doc)

let burst_ratio_arg =
  let doc = "Bursty arrivals: high-phase rate over low-phase rate." in
  Arg.(value & opt float 4.0 & info [ "burst-ratio" ] ~docv:"R" ~doc)

let dwell_arg =
  let doc = "Bursty arrivals: mean phase dwell time, simulated ns." in
  Arg.(value & opt int 200_000 & info [ "dwell" ] ~docv:"NS" ~doc)

let period_arg =
  let doc = "Diurnal arrivals: modulation period, simulated ns." in
  Arg.(value & opt int 2_000_000 & info [ "period" ] ~docv:"NS" ~doc)

(* An arrival process with the requested mean rate. Bursty splits the mean
   across the two phases at [burst_ratio]; diurnal inverts the 0.55-of-peak
   mean of the thinned cosine profile. *)
let arrival_of ~arrival ~burst_ratio ~dwell ~period rate =
  match arrival with
  | "poisson" -> Workload.Arrival.Poisson { rate }
  | "bursty" ->
    let rate_low = 2.0 *. rate /. (1.0 +. burst_ratio) in
    Workload.Arrival.Bursty
      {
        rate_low;
        rate_high = burst_ratio *. rate_low;
        dwell_ns = float_of_int dwell;
      }
  | _ (* diurnal *) ->
    Workload.Arrival.Diurnal
      { rate_peak = rate /. 0.55; period_ns = float_of_int period }

let shed_arg =
  let doc =
    "Drop-tail admission control: arrivals beyond a backlog of $(docv) \
     queued requests are shed at arrival time instead of queued; shed \
     counts and shed rate are reported per point and in the JSON."
  in
  Arg.(value & opt (some int) None & info [ "shed" ] ~docv:"DEPTH" ~doc)

let serve_sim system ds threads epsilon read_pct keys duration seed features
    uc_shards arrival rates_l theta burst_ratio dwell period shed jobs json =
  let fail msg = `Error (true, msg) in
  if not (is_map ds) then fail (not_a_map ds)
  else if rates_l = [] then fail "empty --rates list"
  else if List.exists (fun r -> r <= 0.0) rates_l then
    fail "--rates must be positive"
  else if theta < 0.0 || theta >= 1.0 then
    fail "--theta must be 0 (uniform) or in (0,1)"
  else
    match
      experiment_system ~system ~ds ~epsilon ~uc_shards ~workers:threads
        features
    with
    | Error m -> fail m
    | Ok sys ->
      let workload =
        if theta = 0.0 then
          Workload.map_workload ~read_pct ~key_range:keys
            ~prefill_n:(keys / 2)
        else
          Workload.map_workload_zipf ~theta ~read_pct ~key_range:keys
            ~prefill_n:(keys / 2)
      in
      let points =
        Campaign.map ~j:jobs
          (fun rate ->
            Openloop.run ~seed:(Int64.of_int seed) ~duration_ns:duration
              ?shed ~system:sys ~workload
              ~arrival:(arrival_of ~arrival ~burst_ratio ~dwell ~period rate)
              ~workers:threads ())
          (Array.of_list rates_l)
        |> Array.to_list
      in
      List.iter
        (fun (p : Openloop.point) ->
          Printf.printf
            "%s | %s | offered %.0f/s: completed %d/%d (backlog %d, qpeak \
             %d%s)  sojourn p50 %d p95 %d p99 %d ns\n"
            p.Openloop.ol_system p.Openloop.ol_workload
            p.Openloop.ol_offered p.Openloop.ol_completed
            p.Openloop.ol_arrivals p.Openloop.ol_backlogged
            p.Openloop.ol_qmax
            (if p.Openloop.ol_shed > 0 then
               Printf.sprintf ", shed %d" p.Openloop.ol_shed
             else "")
            p.Openloop.ol_sojourn.Telemetry.Registry.hs_p50
            p.Openloop.ol_sojourn.Telemetry.Registry.hs_p95
            p.Openloop.ol_sojourn.Telemetry.Registry.hs_p99)
        points;
      (match Openloop.knee points with
       | Some k -> Printf.printf "saturation knee: %.0f ops/s\n" k
       | None -> print_endline "saturation knee: not reached");
      (match json with
       | None -> `Ok ()
       | Some path -> (
         let contents =
           Printf.sprintf
             "{\n  \"schema_version\": %d,\n\
             \  \"config\": {\"system_name\": %S, \"ds\": %S, \"arrival\": %S, \
              \"read_pct\": %d, \"zipf_theta\": %.2f, \"epsilon\": %d, \
              \"duration_ns\": %d, \"seed\": %d},\n\
             \  \"curves\": [\n%s\n  ]\n}\n"
             Telemetry.Json.schema_version system ds arrival read_pct theta
             epsilon duration seed
             (Openloop.curve_to_json ~indent:4 points)
         in
         write_artifact path contents))

let serve_sim_cmd =
  Cmd.v
    (Cmd.info "serve-sim"
       ~doc:
         "Open-loop service simulation: a Poisson/bursty/diurnal arrival \
          process feeds an admission queue in front of the flat-combining \
          slots; reports arrival-to-response sojourn percentiles per \
          offered load and the saturation knee")
    Term.(
      ret
        (const serve_sim $ system_arg $ ds_arg $ threads_arg $ epsilon_arg
       $ read_pct_arg $ keys_arg $ duration_arg $ seed_arg $ features_term
       $ uc_shards_arg $ arrival_arg $ rates_arg $ theta_arg
       $ burst_ratio_arg $ dwell_arg $ period_arg $ shed_arg $ jobs_arg
       $ sweep_json_arg))


let () =
  let info =
    Cmd.info "prep-cli" ~version:"1.0.0"
      ~doc:"PREP-UC (SPAA 2022) reproduction driver"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; profile_cmd; validate_cmd; fuzz_cmd; explore_cmd;
            optimize_persist_cmd; session_cmd; sweep_cmd; serve_sim_cmd ]))
