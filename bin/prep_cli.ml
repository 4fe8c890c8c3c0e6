(* prep-cli: drive the PREP-UC reproduction from the command line.

   Subcommands (prep_cli --help lists them): run, profile, validate, fuzz,
   explore, session, sweep, serve-sim and optimize-persist.

   Every feature flag and planted fault is declared once, in the table in
   [Prep.Config] ([Feature.all], [Fault.all]) that also says which
   subcommands take it; [config_term] builds each subcommand's flags from
   it and [Config.validate] accepts or refuses the result once. A flag
   exists only where a documented command passes it; elsewhere it is a
   constant.

   The harness subcommands take [-j N] to fan independent simulations
   across N domains (Harness.Campaign); results are deterministic — byte
   identical at any -j.

   The paper's tables and figures come from bench/main.exe (one mode per
   figure); examples/crash_recovery.exe prints one crash's loss accounting
   against epsilon+beta-1 for both modes.

   Examples:
     dune exec bin/prep_cli.exe -- run --system prep-buffered --threads 8 \
       --read-pct 90
     dune exec bin/prep_cli.exe -- profile --system prep-durable --threads 4 \
       --trace trace.json               # open trace.json in ui.perfetto.dev
     dune exec bin/prep_cli.exe -- validate --kind trace trace.json
     dune exec bin/prep_cli.exe -- fuzz --variant buffered --seed 43 \
       --crash-at 900000                 # replay one checked crash
     dune exec bin/prep_cli.exe -- fuzz --iters 200 --variant buffered -j 4
     dune exec bin/prep_cli.exe -- fuzz --variant durable --ds rbtree \
       --seed 57 --crash-op 81000        # replay one exact episode
     dune exec bin/prep_cli.exe -- explore --threads 2 --ops 2 --shards 8 -j 4
     dune exec bin/prep_cli.exe -- sweep --threads-list 2,8,16 \
       --read-pcts 50,90 -j 4 --json sweep.json
     dune exec bin/prep_cli.exe -- serve-sim --arrival bursty \
       --rates 5e5,1e6,2e6 --theta 0.99 --json curve.json *)

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
   share names like --threads, --epsilon and --seed but not defaults. A
   value outside [lo]..[hi] is a usage error that names the flag. *)
let int_arg ?(docv = "N") ?(lo = min_int) ?(hi = max_int) names default doc =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun n ->
        if n >= lo && n <= hi then Ok n
        else if hi = max_int then Error (`Msg (Printf.sprintf "%d is below %d" n lo))
        else Error (`Msg (Printf.sprintf "%d is not in %d..%d" n lo hi)))
  in
  let bounded = Arg.conv (parse, Arg.conv_printer Arg.int) in
  Arg.(value & opt bounded default & info names ~docv ~doc)

(* A throughput point's workload where its subcommand has no flag for it:
   only sweep sets epsilon, and only run the key range and window. *)
let point_seed = 7
let point_epsilon = 1024
let point_read_pct = 90
let point_keys = 4096
let point_duration = 2_000_000

(* The last core is reserved for the simulator. *)
let max_workers = Sim.Topology.total_cores Sim.Topology.default - 1

(* The shortest window [run] takes: twice the longest minimum over every
   --system, data structure and 1, 8 or 23 threads (500 ns). Shorter, an op
   in flight at the deadline can outlast the wedge horizon, 1,000 windows. *)
let min_duration = 1_000

let threads_arg = int_arg ~lo:1 ~hi:max_workers [ "threads"; "t" ] 8 "Worker threads."
let epsilon_arg = int_arg ~docv:"EPS" [ "epsilon"; "e" ] point_epsilon "Flush boundary step."

let read_pct_arg =
  int_arg ~docv:"PCT" ~lo:0 ~hi:100 [ "read-pct" ] point_read_pct
    "Read-only percentage (maps only)."

let keys_arg =
  int_arg ~lo:1 [ "keys" ] point_keys "Key range (maps) or prefill size (pairs)."

let duration_arg =
  int_arg ~docv:"NS" ~lo:min_duration [ "duration" ] point_duration
    "Measured simulated time, ns."

let log_size = 16384

module Feature = Prep.Config.Feature
module Fault = Prep.Config.Fault

(* Subcommand [sub]'s configuration flags, read into [Config.default]: one
   per feature the table says [sub] takes and, with [~faults], the faults
   offered to [sub]. [sub] sets mode, epsilon, log size and workers. *)
let config_term ?(faults = false) sub =
  let feature (f : Feature.t) =
    let doc = f.doc and names = [ f.flag ] in
    match f.value with
    | Feature.Flag set ->
      Term.(const (fun on c -> Ok (set c on)) $ Arg.(value & flag & info names ~doc))
    | Feature.Int { docv; get; set } ->
      Term.(
        const (fun n c -> Ok (set c n))
        $ Arg.(value & opt int (get Prep.Config.default) & info names ~docv ~doc))
    | Feature.Spec { docv; load; _ } ->
      Term.(
        const (fun s c -> Option.fold ~none:(Ok c) ~some:(load c) s)
        $ Arg.(value & opt (some string) None & info names ~docv ~doc))
  in
  let fault =
    let offered = Fault.offered sub in
    let names = List.map (fun (p : Fault.t) -> (p.name, p.fault)) offered in
    let doc = Fault.help offered in
    Term.(
      const (fun fault c -> Ok { c with Prep.Config.fault })
      $ Arg.(
          value
          & opt (enum names) Prep.Config.No_fault
          & info [ Fault.flag ] ~docv:"FAULT" ~doc))
  in
  let takes (f : Feature.t) = List.mem sub f.subcommands in
  let steps =
    List.map feature (List.filter takes Feature.all) @ if faults then [ fault ] else []
  in
  let apply acc step = Term.(const Result.bind $ acc $ step) in
  Term.(
    ret
      (const (function Ok c -> `Ok c | Error e -> `Error (true, e))
      $ List.fold_left apply (const (Ok Prep.Config.default)) steps))

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
   up front, against the machine's beta: the feature table's mode rules,
   the planted faults' needs and every other combination rule live in
   [Config.validate], and a refusal is a usage error. The two rules below
   need the data structure, which the configuration does not name. *)
let validated_config ~beta ~ds cfg =
  match Prep.Config.validate cfg ~beta with
  | exception Invalid_argument m -> Error m
  | () ->
    if cfg.Prep.Config.lsm_ckpt && not (is_map ds) then
      Error
        (Feature.(flag lsm_ckpt)
        ^ " needs a map data structure (per-key dirty tracking)")
    else if cfg.Prep.Config.shards > 1 && not (is_map ds) then
      Error "sharding needs a map data structure (ops route by key)"
    else Ok cfg

(* The [--system] of run/profile/sweep/serve-sim on [--ds]: a PREP mode is
   [cfg] at that mode, built through [Systems.of_config]; the other
   systems are not PREP and take no configuration flag. *)
let experiment_system ~system ~ds ~epsilon ~workers cfg =
  let (module Ds), _ = List.assoc ds data_structures in
  let module Sy = Experiment.Systems (Ds) in
  let prep mode =
    validated_config ~ds
      ~beta:Sim.Topology.default.Sim.Topology.cores_per_socket
      { cfg with Prep.Config.mode; epsilon; log_size; workers }
    |> Result.map (fun cfg -> Sy.of_config cfg)
  in
  let baseline sys =
    if cfg <> Prep.Config.default then
      Error
        (Printf.sprintf
           "--system %s is not a PREP system: feature flags need prep-v, \
            prep-buffered or prep-durable"
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

(* [profile] is [None] for a plain [run], which keeps the registry-free
   default path, and [Some trace] for [profile], whose live registry also
   records a trace when [trace] names a file. *)
let run_point ~profile system ds threads read_pct keys duration cfg =
  match
    experiment_system ~system ~ds ~epsilon:point_epsilon ~workers:threads cfg
  with
  | Error m -> `Error (true, m)
  | Ok sys ->
    let workload =
      match List.assoc ds data_structures with
      | _, None ->
        Workload.map_workload ~read_pct ~key_range:keys ~prefill_n:(keys / 2)
      | _, Some (_, _, pairs) -> pairs ~prefill_n:(keys / 2)
    in
    let tel =
      Option.map
        (fun trace -> Telemetry.Registry.create ~tracing:(trace <> None) ())
        profile
    in
    let r =
      Experiment.run ?telemetry:tel ~seed:(Int64.of_int point_seed)
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
    if profile <> None then begin
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
    match (profile, tel) with
    | Some (Some path), Some reg -> (
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

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a single throughput point")
    Term.(
      ret
        (const (run_point ~profile:None) $ system_arg $ ds_arg $ threads_arg
       $ read_pct_arg $ keys_arg $ duration_arg $ config_term "run"))

(* profile runs the hashmap over the default key range and window *)
let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a single throughput point with telemetry enabled and print the \
          simulated-time phase breakdown (combine/publish/persist/catch-up \
          spans, latency percentiles, per-primitive NVM counters)")
    Term.(
      ret
        (const (fun system threads read_pct cfg trace ->
             run_point ~profile:(Some trace) system "hashmap" threads read_pct
               point_keys point_duration cfg)
        $ system_arg $ threads_arg $ read_pct_arg $ config_term "profile"
        $ trace_arg))

(* ---- validate ---- *)

let validate_kind_arg =
  let doc =
    "Artifact kind: trace (Chrome trace-event JSON), bench, policy \
     (optimize-persist persistency-policy JSON), or report \
     (optimize-persist decision-report JSON)."
  in
  let kinds =
    Arg.enum
      [ ("trace", `Trace); ("bench", `Bench); ("policy", `Policy);
        ("report", `Report) ]
  in
  Arg.(required & opt (some kinds) None & info [ "kind"; "k" ] ~docv:"KIND" ~doc)

let validate_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"JSON artifact to validate.")

let validate kind file =
  let contents = In_channel.with_open_bin file In_channel.input_all in
  let valid fmt =
    Printf.ksprintf (fun m -> Printf.printf "%s: valid %s\n" file m; `Ok ()) fmt
  in
  let invalid errs =
    List.iter (Printf.printf "%s: %s\n" file) errs;
    `Error (false, "validation failed")
  in
  match kind with
  | `Report -> (
    (* the optimize-persist decision report: check the schema tag and
       the presence/shape of every section *)
    let module J = Telemetry.Json in
    match J.parse_result contents with
    | Error e -> invalid [ e ]
    | Ok v -> (
      match J.member "schema" v with
      | Some (J.Str "prep.persist-report/1") -> (
        match
          ( J.member "baseline" v, J.member "policy" v,
            J.member "admitted" v, J.member "decisions" v,
            J.member "measured" v )
        with
        | Some (J.Obj _), Some (J.Obj _), Some (J.Obj adm),
          Some (J.List ds), Some (J.List _) ->
          valid "persist-report (%d weakenings, %d decisions)"
            (List.length adm) (List.length ds)
        | _ -> invalid [ "persist-report: missing or malformed section" ])
      | _ ->
        invalid
          [ "persist-report: missing or wrong \"schema\" (want \
             \"prep.persist-report/1\")" ]))
  | `Policy -> (
    match Nvm.Persist.of_json contents with
    | Ok p ->
      valid "persist-policy (%s; %d weakenings)" Nvm.Persist.schema
        (List.length (Nvm.Persist.weakenings p))
    | Error e -> invalid [ e ])
  | (`Trace | `Bench) as kind -> (
    let name, validator =
      match kind with
      | `Trace -> ("trace", Telemetry.Json.validate_trace)
      | `Bench -> ("bench", Telemetry.Json.validate_bench)
    in
    match Telemetry.Json.validate_string validator contents with
    | Ok () ->
      valid "%s artifact (schema_version %d)" name Telemetry.Json.schema_version
    | Error errs -> invalid errs)

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

let fuzz_threads_arg =
  int_arg ~lo:1 ~hi:Check.Fuzz.max_threads [ "threads"; "t" ] 6
    "Worker threads (1-7)."
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

let with_uc_shards = "With " ^ Feature.(flag uc_shards) ^ ": "

let multi_pct_arg =
  int_arg ~docv:"PCT" ~lo:0 ~hi:100 [ "multi-pct" ] 25
    (with_uc_shards ^ "percent of ops that are multi-key transactions.")

let cross_pct_arg =
  int_arg ~docv:"PCT" ~lo:0 ~hi:100 [ "cross-pct" ] 75
    (with_uc_shards
    ^ "percent of multi-key transactions whose keys land on different shards \
       (the rest collapse to single-shard commits).")

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

let fuzz iters mode ds threads epsilon log_size ops seed crash_op crash_time
    no_crash cfg multi_pct cross_pct jobs =
  let (module Ds), gen_op = fuzz_ds ds in
  let module F = Check.Fuzz.Make (Ds) in
  let config =
    validated_config ~ds
      ~beta:Check.Fuzz.topology.Sim.Topology.cores_per_socket
      { cfg with Prep.Config.mode; log_size; epsilon; workers = threads }
  in
  match config with
  | Error m -> `Error (true, m)
  | Ok config ->
  let { Prep.Config.shards; fault; _ } = config in
  if mode = Prep.Config.Volatile && (crash_op <> None || crash_time <> None) then
    `Error (true, "volatile episodes cannot crash: drop the crash flag")
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
       $ crash_op_arg $ crash_time_arg $ no_crash_arg
       $ config_term ~faults:true "fuzz" $ multi_pct_arg $ cross_pct_arg
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
  int_arg [ "max-schedules" ] Check.Explore.default_max_schedules "Schedule budget."

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
  int_arg ~docv:"K" ~lo:1 [ "shards" ] 1 doc

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
     practice for " ^ Feature.(flag uc_shards)
    ^ ", whose per-shard checkpoint fibers never quiesce and make the space \
       unbounded."
  in
  Arg.(value & flag & info [ "no-persistence" ] ~doc)

(* The explorer's scope, shared by explore and optimize-persist. It
   prunes and runs the checkpoint fibers; explore's --no-prune and
   --no-persistence turn those off. *)
let scope_term =
  let scope threads ops epsilon log_size seed sockets cores =
    {
      Check.Explore.seed;
      threads;
      ops_per_worker = ops;
      epsilon;
      log_size;
      sockets;
      cores_per_socket = cores;
      prune = true;
      persistence = true;
    }
  in
  Term.(
    const scope $ exp_threads_arg $ exp_ops_arg $ exp_epsilon_arg
    $ exp_log_size_arg $ exp_seed_arg $ exp_sockets_arg $ exp_cores_arg)

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

let explore mode ds scope no_persistence cfg max_schedules no_prune shards
    jobs replay crash_step frontier =
  let scope =
    { scope with
      Check.Explore.prune = not no_prune; persistence = not no_persistence }
  in
  let { Check.Explore.threads; epsilon; log_size; _ } = scope in
  let (module Ds), gen_op = fuzz_ds ds in
  let config =
    validated_config ~ds ~beta:scope.Check.Explore.cores_per_socket
      { cfg with Prep.Config.mode; log_size; epsilon; workers = threads }
  in
  match config with
  | Error m -> `Error (true, m)
  | Ok config ->
  let fault = config.Prep.Config.fault in
  let module E = Check.Explore.Make (Ds) in
  let gen_op =
    if config.Prep.Config.shards > 1 then sharded_explore_gen else gen_op
  in
  if threads < 1 || threads > Check.Explore.max_threads scope then
    `Error
      ( true,
        Printf.sprintf "--threads must be between 1 and %d (got %d)"
          (Check.Explore.max_threads scope) threads )
  else
    match replay with
    | Some trace_str ->
      let decisions = Check.Explore.decisions_of_string trace_str in
      let crash = Option.map (fun s -> (s, frontier)) crash_step in
      report_explore_replay
        (E.replay ~config ~mode ~fault ~gen_op ~scope ~decisions ?crash ())
    | None ->
      let explore shard =
        E.explore ~config ~max_schedules ~shard ~mode ~fault ~gen_op ~scope ()
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
        (const explore $ variant_arg $ ds_arg $ scope_term $ no_persistence_arg
       $ config_term ~faults:true "explore" $ max_schedules_arg $ no_prune_arg
       $ shards_arg $ jobs_arg $ replay_arg $ crash_step_arg $ frontier_arg))

(* ---- optimize-persist ---- *)

let op_out_arg =
  Arg.(value
       & opt string "persist-policy.json"
       & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:(Printf.sprintf "Write the proven policy JSON here (%s input)."
                   Feature.(flag persist_policy)))

let op_report_arg =
  Arg.(value
       & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Also write the full decision report JSON (admitted and \
                 rejected candidates, measurements, repro commands).")

let op_fuzz_iters_arg =
  int_arg [ "fuzz-iters" ] 30 "Crash episodes in the per-candidate differential fuzz soak."

(* over the baseline configuration, with the default schedule budget *)
let optimize_persist mode ds scope fuzz_iters out report_file =
  let { Check.Explore.threads; epsilon; log_size; seed; _ } = scope in
  match (mode, fuzz_ds ds) with
  | Prep.Config.Volatile, _ ->
    `Error
      (true, "optimize-persist needs a persistent variant (buffered/durable)")
  | mode, ((module Ds), gen_op) ->
    match
      validated_config ~ds ~beta:scope.Check.Explore.cores_per_socket
        { Prep.Config.default with mode; log_size; epsilon; workers = threads }
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
        PI.infer ~config ~log:print_endline ~mode ~gen_op ~scope
          ~max_schedules:Check.Explore.default_max_schedules ~template
          ~fuzz_iters ~ds ()
      in
      let write path contents =
        Out_channel.with_open_text path (fun oc -> output_string oc contents)
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
         (Printf.sprintf
            "Infer a minimal per-site persistency policy: measure which \
             flush/fence sites are hot, greedily propose one-site weakenings \
             (elide, downgrade, defer) hottest-first, and admit each only if \
             the bounded-exhaustive explorer exhausts its scope with zero \
             violations AND a differential crash-fuzz soak stays clean. Emits \
             the proven policy as JSON for %s; rejected candidates are \
             recorded with replayable repro commands"
            Feature.(flag persist_policy)))
    Term.(
      ret
        (const optimize_persist $ variant_arg $ ds_arg $ scope_term
       $ op_fuzz_iters_arg $ op_out_arg $ op_report_arg))

let json_arg =
  let doc = "Write a bench-schema JSON artifact of the results to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* Write a bench-schema artifact; one that fails the schema fails the
   subcommand. *)
let write_artifact path contents =
  match Experiment.write_bench_json path contents with
  | Ok () ->
    Printf.printf "artifact: %s\n" path;
    `Ok ()
  | Error m -> `Error (false, m)

(* ---- session ---- *)

let session_threads_arg =
  int_arg ~lo:1 ~hi:Check.Fuzz.max_threads [ "threads"; "t" ] 4
    "Client threads (1-7)."

let session_ops_arg = int_arg [ "ops" ] 40 "Scripted update operations per client."
let session_epsilon_arg = int_arg ~docv:"EPS" [ "epsilon"; "e" ] 8 "Flush boundary step."
let session_crashes_arg = int_arg [ "crashes" ] 3 "Power failures to inject per session."
let sessions_arg = int_arg [ "sessions" ] 1 "Independent sessions on consecutive seeds."

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

(* Sessions run over a 1,024-entry log; session [i] of a campaign runs
   seed [1 + i]. *)
let session ds threads ops epsilon crashes sessions cfg jobs json =
  let log_size = 1024 and seed = 1 in
  let (module Ds), gen_op = fuzz_ds ds in
  let module S = Session.Make (Ds) in
  match
    validated_config ~ds
      ~beta:Check.Fuzz.topology.Sim.Topology.cores_per_socket
      { cfg with
        Prep.Config.mode = Prep.Config.Durable; log_size; epsilon;
        workers = threads }
  with
  | Error m -> `Error (true, m)
  | Ok uc ->
  let { Prep.Config.detect; lsm_ckpt; fault; _ } = uc in
  let outcomes =
    S.campaign ~j:jobs
      { Session.seed; ops_per_client = ops; crashes; uc }
      ~gen_op ~sessions
  in
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
      let system = Sy.system_name ~router:false uc in
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
      "baseline (no %s): %d crashes, %d lost, 0 duplicated — losses are \
       the gap %s closes\n"
      Feature.(flag detect) crashes_tot lost Feature.(flag detect);
    `Ok ()
  end
  else begin
    Printf.printf "baseline (no %s): FAIL (%d duplicated, %d violations)\n"
      Feature.(flag detect) dup viol;
    `Error (false, "durable-linearizability violations found")
  end

let session_cmd =
  Cmd.v
    (Cmd.info "session"
       ~doc:
         (Printf.sprintf
            "Crash-restart-continue sessions: scripted clients survive \
             injected power failures, resume via resolve under %s, and the \
             cumulative history is checked for exactly-once application"
            Feature.(flag detect)))
    Term.(
      ret
        (const session $ ds_arg $ session_threads_arg $ session_ops_arg
       $ session_epsilon_arg $ session_crashes_arg $ sessions_arg $ config_term ~faults:true "session"
       $ jobs_arg $ json_arg))

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

let sweep system ds threads_l pcts epsilon cfg jobs json =
  let fail msg = `Error (true, msg) in
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
      experiment_system ~system ~ds ~epsilon
        ~workers:(List.fold_left max 1 threads_l) cfg
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
            Experiment.run ~seed:(Int64.of_int point_seed)
              ~duration_ns:point_duration ~warmup_ns:(point_duration / 5)
              ~system:sys
              ~workload:
                (Workload.map_workload ~read_pct:p ~key_range:point_keys
                   ~prefill_n:(point_keys / 2))
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
             Telemetry.Json.schema_version system ds epsilon point_keys
             point_duration point_seed
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
       $ epsilon_arg $ config_term "sweep" $ jobs_arg $ json_arg))

(* ---- serve-sim: open-loop arrival-process points ---- *)

let arrival_arg =
  let doc = "Arrival process: poisson or bursty (MMPP-2)." in
  let procs = List.map (fun a -> (a, a)) [ "poisson"; "bursty" ] in
  Arg.(value & opt (enum procs) "poisson" & info [ "arrival" ] ~docv:"PROC" ~doc)

let rates_arg =
  let doc = "Comma-separated mean offered loads, simulated ops/s." in
  Arg.(value & opt (list float) [ 1e6 ] & info [ "rates" ] ~docv:"LIST" ~doc)

let theta_arg =
  let doc = "Zipfian key-popularity skew in (0,1); 0 means uniform keys." in
  Arg.(value & opt float 0.0 & info [ "theta" ] ~docv:"THETA" ~doc)

(* An arrival process with the requested mean rate. Bursty splits the mean
   across two phases, the high one 4 times the low, each held for a mean
   200 us of simulated time. *)
let arrival_of ~arrival rate =
  match arrival with
  | "poisson" -> Workload.Arrival.Poisson { rate }
  | _ (* bursty *) ->
    let burst_ratio = 4.0 in
    let rate_low = 2.0 *. rate /. (1.0 +. burst_ratio) in
    Workload.Arrival.Bursty
      { rate_low; rate_high = burst_ratio *. rate_low; dwell_ns = 200_000.0 }

(* serve-sim offers the point workload to the baseline configuration *)
let serve_sim system ds threads arrival rates_l theta jobs json =
  let read_pct = point_read_pct and keys = point_keys in
  let fail msg = `Error (true, msg) in
  if not (is_map ds) then fail (not_a_map ds)
  else if rates_l = [] then fail "empty --rates list"
  else if List.exists (fun r -> r <= 0.0) rates_l then
    fail "--rates must be positive"
  else if theta < 0.0 || theta >= 1.0 then
    fail "--theta must be 0 (uniform) or in (0,1)"
  else
    match
      experiment_system ~system ~ds ~epsilon:point_epsilon ~workers:threads
        Prep.Config.default
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
            Openloop.run ~seed:(Int64.of_int point_seed)
              ~duration_ns:point_duration
              ~system:sys ~workload ~arrival:(arrival_of ~arrival rate)
              ~workers:threads ())
          (Array.of_list rates_l)
        |> Array.to_list
      in
      List.iter
        (fun (p : Openloop.point) ->
          Printf.printf
            "%s | %s | offered %.0f/s: completed %d/%d (backlog %d, qpeak \
             %d)  sojourn p50 %d p95 %d p99 %d ns\n"
            p.Openloop.ol_system p.Openloop.ol_workload
            p.Openloop.ol_offered p.Openloop.ol_completed
            p.Openloop.ol_arrivals p.Openloop.ol_backlogged
            p.Openloop.ol_qmax
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
             point_epsilon point_duration point_seed
             (Openloop.curve_to_json ~indent:4 points)
         in
         write_artifact path contents))

let serve_sim_cmd =
  Cmd.v
    (Cmd.info "serve-sim"
       ~doc:
         "Open-loop service simulation: a Poisson or bursty arrival \
          process feeds an admission queue in front of the flat-combining \
          slots; reports arrival-to-response sojourn percentiles per \
          offered load and the saturation knee")
    Term.(
      ret
        (const serve_sim $ system_arg $ ds_arg $ threads_arg $ arrival_arg
       $ rates_arg $ theta_arg $ jobs_arg $ json_arg))


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
