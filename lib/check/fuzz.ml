(** Crash-point fuzzing for the PREP-UC durability guarantees.

    The seed tests crash at a handful of hand-picked simulated times; the
    hazards the paper warns about (a background cache write-back
    persisting a mid-update replica, §2.2/§4.1) can strike at *any* memory
    operation. This driver explores that space systematically:

    - run a seeded workload in the simulator with randomized preemption,
      as one [Epoch.run] whose set-up builds the system;
    - inject a full-system power failure at a randomly chosen point —
      either a simulated time or an exact memory-operation index after
      construction (the crash plan of [Epoch.run]);
    - recover in a second epoch, and judge the recovered state with
      [Durable_lin]: loss bound (ε+β−1 buffered, 0 durable), prefix
      consistency, application order, and state-vs-model replay;
    - on failure, [shrink] minimizes (threads, crash point, work) to the
      smallest episode that still reproduces, and [repro_command] prints a
      replayable CLI invocation.

    The system under test is a [Sut.S]: one PREP-UC instance, or the
    sharded construction when [config.shards > 1] — judged as one history,
    cross-shard atomicity included, which is how the planted
    [Config.Commit_before_prepare_persist] fault is caught.

    Everything is a deterministic function of the episode parameters, so a
    CI budget of episodes explores fresh crash points per seed without
    flakiness, and every failure is replayable from its printed command. *)

type crash_point = Epoch.crash_point =
  | At_op of int
  | At_time of int
  | No_crash

type episode = {
  workload_seed : int;  (** seeds the scheduler, workload and bg flushes *)
  threads : int;
  epsilon : int;
  log_size : int;
  ops_per_worker : int;
  bg_period : int;  (** mean ops between background cache write-backs *)
  preempt_prob : float;  (** forced-preemption chance per tick *)
  crash : crash_point;
}

type outcome = {
  crashed : bool;
  vacuous : bool;
      (** the crash hit before construction finished: nothing to check *)
  violations : Durable_lin.violation list;
  logged : int;  (** trace length at the crash/end *)
  completed : int;
  applied : int;  (** ops present in the recovered (or final) state *)
  runtime_ops : int;  (** memory operations issued after construction *)
  end_time : int;  (** simulated ns at which the workload finished (or 0) *)
}

type failure = { episode : episode; violations : Durable_lin.violation list }

type result = { episodes : int; crashes : int; failures : failure list }

let crash_flag = function
  | At_op n -> Printf.sprintf "--crash-op %d" n
  | At_time ns -> Printf.sprintf "--crash-at %d" ns
  | No_crash -> "--no-crash"

(** A copy-pasteable replay of [ep] under [config]: runs exactly one
    episode. A sharded workload's [--multi-pct]/[--cross-pct] belong to
    the generator, not the configuration; the caller appends them. *)
let repro_command ?(config = Sut.default_config) ~mode ~fault ~ds ep =
  Printf.sprintf
    "dune exec bin/prep_cli.exe -- fuzz --variant %s --ds %s --threads %d \
     --epsilon %d --log-size %d --ops %d --seed %d%s %s"
    (Prep.Config.variant_name mode)
    ds ep.threads ep.epsilon ep.log_size ep.ops_per_worker ep.workload_seed
    (Prep.Config.to_flags
       { config with Prep.Config.mode; fault })
    (crash_flag ep.crash)

let pp_episode ppf ep =
  Fmt.pf ppf "seed=%d threads=%d epsilon=%d ops=%d %s" ep.workload_seed
    ep.threads ep.epsilon ep.ops_per_worker (crash_flag ep.crash)

(** Simulated ns a crash-free stretch of [ops] requested operations may
    run past the end of construction or recovery before the run counts as
    wedged ([Epoch.run]'s horizon): 200 µs per operation, about 10x what
    the slowest calibration episodes take (durable, WBINVD checkpoints,
    20–35 µs per op), with a 20 ms floor. A wedge spins every fiber at
    40 ns a turn, so the horizon also bounds the host time a wedged run
    burns (seconds, not a hang).
    The fuzzer's episodes and recoveries, the explorer's recoveries,
    [Harness.Session]'s epochs and bench ckptscale's recovery use it. *)
let wedge_horizon_ns ~ops = max 20_000_000 (200_000 * ops)

(** The background write-back period (mean memory operations between
    write-backs) and the forced-preemption chance per tick of every CLI
    fuzz campaign, [optimize-persist]'s soak and [Harness.Session]'s
    epochs. [repro_command] prints neither, so a printed replay runs the
    episode that failed. *)
let bg_period = 2000
let preempt_prob = 0.02

(* Small fixed machine: plenty of cross-socket traffic, fast episodes.
   Worker count is capped at total cores − 1 (persistence thread). The
   fuzzer and [Harness.Session] both run on it. *)
let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }
let max_threads = Sim.Topology.total_cores topology - 1

module Make (Ds : Seqds.Ds_intf.S) = struct
  module Systems = Sut.Make (Ds)
  open Nvm

  let horizon_ns ep = wedge_horizon_ns ~ops:(ep.threads * ep.ops_per_worker)

  (** Run one episode: workload, optional crash, recovery, checks.
      [gen_op] draws one (op, args) pair from the fiber's rng. [config]
      selects the system and its gated layers ([shards > 1] fuzzes the
      sharded construction, whose generator may draw multi-key ops — see
      [Harness.Workload.map_workload_sharded]); the episode sets mode,
      fault, ε, log size and workers. Under [detect], every thread's
      [resolve] verdict is judged against ghost truth after a crash. *)
  let run_episode ?config ~mode ~fault ~gen_op ep =
    if ep.threads < 1 || ep.threads > max_threads then
      invalid_arg "Fuzz: thread count out of range";
    let cfg =
      Sut.checker_config ?config ~mode ~fault ~epsilon:ep.epsilon
        ~log_size:ep.log_size ~workers:ep.threads ()
    in
    let module U = (val Systems.select cfg : Sut.S) in
    let mem =
      Memory.make
        ~seed:(Int64.of_int (ep.workload_seed + 7919))
        ~sockets:topology.Sim.Topology.sockets ~bg_period:ep.bg_period ()
    in
    let horizon = horizon_ns ep in
    let run =
      Epoch.run ~topology
        ~seed:(Int64.of_int ep.workload_seed)
        ~preempt_prob:ep.preempt_prob ~mem ~horizon ~crash:ep.crash
        ~set_up:(fun () -> U.create mem (Roots.make mem) cfg)
        ~body:(fun uc ->
          Epoch.run_workers ~threads:ep.threads
            ~start:(fun () -> U.start_persistence uc)
            ~finish:(fun () ->
              U.stop uc;
              U.sync uc)
            (fun _ ->
              U.register_worker uc;
              let rng = Sim.fiber_rng () in
              for _ = 1 to ep.ops_per_worker do
                let op, args = gen_op rng in
                U.execute uc ~op ~args
              done))
    in
    let logged, completed =
      match run.set_up with
      | Some uc -> (U.logged uc, U.completed uc)
      | None -> (0, 0)
    in
    let crashed = run.ended = Epoch.Crashed in
    let outcome ~applied violations =
      {
        crashed;
        vacuous = crashed && Option.is_none run.set_up;
        violations;
        logged;
        completed;
        applied;
        runtime_ops = run.runtime_ops;
        end_time = run.end_ns;
      }
    in
    match (run.ended, run.set_up) with
    | Wedged, _ ->
      outcome ~applied:0 [ Durable_lin.Wedged { horizon_ns = horizon } ]
    | Crashed, None ->
      (* power failed during construction: no checkpoint existed yet *)
      outcome ~applied:0 []
    | Crashed, Some uc ->
      if mode = Prep.Config.Volatile then
        invalid_arg "Fuzz: volatile episodes cannot crash";
      Memory.crash mem;
      Context.reset ();
      let v =
        Sut.of_epoch ~horizon_ns:horizon
          (Epoch.run ~topology
             ~seed:(Int64.of_int (ep.workload_seed + 1))
             ~preempt_prob:0.0 ~mem ~horizon ~crash:No_crash
             ~set_up:(fun () -> U.recover uc)
             ~body:ignore)
      in
      outcome ~applied:v.Sut.applied v.Sut.violations
    | Quiescent, uc ->
      (* quiescent run: every logged op completed and the final state
         must equal the full-trace replay *)
      outcome ~applied:logged (U.quiescent (Option.get uc))

  (** Fuzz [iters] episodes derived from [template] (whose [crash] field is
      ignored): one calibration run sizes the crash-point space, then each
      episode gets a fresh workload seed and a random crash point —
      alternating between memory-operation-index and simulated-time
      injection. Deterministic in [template].

      [runner] evaluates the episode task array (default: in order on the
      calling domain; the CLI injects [Harness.Campaign.run ~j]). The
      whole plan — every seed and crash point — is drawn serially *before*
      any episode runs, each episode is a self-contained sim, and the
      results are merged in episode order, so the result and the log are
      byte-identical whatever the runner's parallelism. *)
  let fuzz ?config ~mode ~fault ~gen_op ~template ~iters
      ?(log = fun _ -> ())
      ?(runner = fun tasks -> Array.map (fun task -> task ()) tasks) () =
    let run_episode = run_episode ?config ~mode ~fault ~gen_op in
    let calib_ep = { template with crash = No_crash } in
    let calib = run_episode calib_ep in
    log
      (Fmt.str "calibration: %d ops logged, %d mem-ops, %d ns"
         calib.logged calib.runtime_ops calib.end_time);
    (* a failed calibration (a wedge, say) sizes no crash-point space: it
       is the campaign's one failure and no crash episodes run *)
    let calib_failures =
      if calib.violations = [] then []
      else begin
        log
          (Fmt.str "calibration FAILED (%a): %a" pp_episode calib_ep
             Fmt.(list ~sep:comma Durable_lin.pp_violation)
             calib.violations);
        [ { episode = calib_ep; violations = calib.violations } ]
      end
    in
    let iters = if calib_failures = [] then iters else 0 in
    let rng =
      Sim.Rng.create (Int64.of_int ((template.workload_seed * 1_000_003) + 17))
    in
    let plan =
      Array.init iters (fun idx ->
          let i = idx + 1 in
          let crash =
            if mode = Prep.Config.Volatile then No_crash
            else if Sim.Rng.bool rng then
              At_op (1 + Sim.Rng.int rng (max 1 calib.runtime_ops))
            else At_time (1 + Sim.Rng.int rng (max 1 calib.end_time))
          in
          { template with workload_seed = template.workload_seed + i; crash })
    in
    let outs = runner (Array.map (fun ep () -> run_episode ep) plan) in
    let failures = ref [] in
    let crashes = ref 0 in
    Array.iteri
      (fun idx out ->
        let ep = plan.(idx) in
        if out.crashed then incr crashes;
        if out.violations <> [] then begin
          failures := { episode = ep; violations = out.violations } :: !failures;
          log
            (Fmt.str "episode %d/%d FAILED (%a): %a" (idx + 1) iters pp_episode
               ep
               Fmt.(list ~sep:comma Durable_lin.pp_violation)
               out.violations)
        end)
      outs;
    {
      episodes = iters + List.length calib_failures;
      crashes = !crashes;
      failures = calib_failures @ List.rev !failures;
    }

  (** Minimize a failing episode: fewest threads first (re-probing several
      crash points, since fewer threads shift the schedule), then an
      earlier crash point, then less work per worker. *)
  let shrink ?config ~mode ~fault ~gen_op ep =
    let fails ep =
      (run_episode ?config ~mode ~fault ~gen_op ep).violations <> []
    in
    let scale_crash ep num den =
      match ep.crash with
      | At_op c -> { ep with crash = At_op (max 1 (c * num / den)) }
      | At_time c -> { ep with crash = At_time (max 1 (c * num / den)) }
      | No_crash -> ep
    in
    let smaller ep =
      let threads =
        List.sort_uniq compare [ 1; 2; ep.threads / 2; ep.threads - 1 ]
        |> List.filter (fun t -> t >= 1 && t < ep.threads)
        |> List.concat_map (fun t ->
               let ep = { ep with threads = t } in
               [ ep; scale_crash ep 3 4; scale_crash ep 1 2; scale_crash ep 1 4 ])
      in
      let crash_only =
        match ep.crash with
        | At_op c | At_time c ->
          if c > 1 then [ scale_crash ep 1 2; scale_crash ep 7 8 ] else []
        | No_crash -> []
      in
      let work =
        if ep.ops_per_worker > 40 then
          [ { ep with ops_per_worker = ep.ops_per_worker / 2 } ]
        else []
      in
      threads @ crash_only @ work
    in
    Shrink.minimize ~smaller ~fails ep
end
