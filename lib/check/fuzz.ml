(** Crash-point fuzzing for the PREP-UC durability guarantees.

    The seed tests crash at a handful of hand-picked simulated times; the
    hazards the paper warns about (a background cache write-back
    persisting a mid-update replica, §2.2/§4.1) can strike at *any* memory
    operation. This driver explores that space systematically:

    - run a seeded workload in the simulator with randomized preemption
      ([Sim.create ~preempt_prob]);
    - inject a full-system power failure at a randomly chosen point —
      either a simulated time ([Sim.run ~until]) or an exact memory-
      operation index (the crash hook of [Nvm.Memory]);
    - recover, and judge the recovered state with [Durable_lin]: loss
      bound (ε+β−1 buffered, 0 durable), prefix consistency, application
      order, and state-vs-model replay;
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

exception Crash_injected

type crash_point =
  | At_op of int
      (** power failure immediately before the [n]-th memory operation
          issued after construction finished *)
  | At_time of int  (** power failure at this simulated time, ns *)
  | No_crash  (** run to quiescence; check the final state instead *)

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
  end_time : int;  (** simulated ns at quiescence (0 if crashed) *)
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
    wedged: 200 µs per operation, about 10x what the slowest calibration
    episodes take (durable, WBINVD checkpoints, 20–35 µs per op), with a
    20 ms floor. A wedge spins every fiber at 40 ns a turn, so the horizon
    also bounds the host time a wedged run burns (seconds, not a hang).
    The fuzzer's episodes and recoveries, the explorer's recoveries and
    [Harness.Session]'s epochs all use it. *)
let wedge_horizon_ns ~ops = max 20_000_000 (200_000 * ops)

module Make (Ds : Seqds.Ds_intf.S) = struct
  module Systems = Sut.Make (Ds)
  open Nvm

  (* Small fixed machine: plenty of cross-socket traffic, fast episodes.
     Worker count is capped at total cores − 1 (persistence thread). *)
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }
  let max_threads = Sim.Topology.total_cores topology - 1

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
    let sim =
      Sim.create
        ~seed:(Int64.of_int ep.workload_seed)
        ~preempt_prob:ep.preempt_prob topology
    in
    let mem =
      Memory.make
        ~seed:(Int64.of_int (ep.workload_seed + 7919))
        ~sockets:topology.Sim.Topology.sockets ~bg_period:ep.bg_period ()
    in
    let uc_ref = ref None in
    let setup_ops = ref 0 in
    let set_up = ref None in
    let end_time = ref 0 in
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           let uc = U.create mem (Roots.make mem) cfg in
           uc_ref := Some uc;
           setup_ops := Memory.op_index mem;
           set_up := Some (Sim.now ());
           (* only now is there a recoverable checkpoint: crash points are
              relative to the end of construction *)
           (match ep.crash with
            | At_op n ->
              let base = !setup_ops in
              Memory.set_crash_hook mem (fun i ->
                  if i - base >= n then raise Crash_injected)
            | At_time _ | No_crash -> ());
           U.start_persistence uc;
           let done_count = ref 0 in
           for w = 0 to ep.threads - 1 do
             let socket, core = Sim.Topology.place topology w in
             Sim.spawn_here ~socket ~core (fun () ->
                 U.register_worker uc;
                 let rng = Sim.fiber_rng () in
                 for _ = 1 to ep.ops_per_worker do
                   let op, args = gen_op rng in
                   U.execute uc ~op ~args
                 done;
                 incr done_count)
           done;
           while !done_count < ep.threads do
             Sim.tick 10_000
           done;
           U.stop uc;
           U.sync uc;
           end_time := Sim.now ()));
    let horizon = horizon_ns ep in
    let run_bounded () =
      Sim.run_horizon sim ~started:(fun () -> !set_up) ~horizon ()
    in
    let crashed, wedged =
      match ep.crash with
      | No_crash -> (false, run_bounded () <> `Done)
      | At_time ns -> (
        match Sim.run ~until:ns sim () with
        | `Cut _ -> (true, false)
        | `Done -> (false, false))
      | At_op _ -> (
        try (false, run_bounded () <> `Done) with Crash_injected -> (true, false))
    in
    Memory.clear_crash_hook mem;
    match !uc_ref with
    | None ->
      (* power failed during construction: no checkpoint existed yet *)
      {
        crashed;
        vacuous = true;
        violations = [];
        logged = 0;
        completed = 0;
        applied = 0;
        runtime_ops = 0;
        end_time = 0;
      }
    | Some uc ->
      let logged = U.logged uc in
      let completed = U.completed uc in
      let runtime_ops = Memory.op_index mem - !setup_ops in
      if wedged then
        {
          crashed = false;
          vacuous = false;
          violations = [ Durable_lin.Wedged { horizon_ns = horizon } ];
          logged;
          completed;
          applied = 0;
          runtime_ops;
          end_time = 0;
        }
      else if crashed then begin
        if mode = Prep.Config.Volatile then
          invalid_arg "Fuzz: volatile episodes cannot crash";
        Memory.crash mem;
        Context.reset ();
        let v =
          Sut.in_fresh_sim ~horizon_ns:horizon
            ~seed:(Int64.of_int (ep.workload_seed + 1))
            topology
            (fun () -> U.recover uc)
        in
        {
          crashed = true;
          vacuous = false;
          violations = v.Sut.violations;
          logged;
          completed;
          applied = v.Sut.applied;
          runtime_ops;
          end_time = 0;
        }
      end
      else
        (* quiescent run: every logged op completed and the final state
           must equal the full-trace replay *)
        {
          crashed = false;
          vacuous = false;
          violations = U.quiescent uc;
          logged;
          completed;
          applied = logged;
          runtime_ops;
          end_time = !end_time;
        }

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
