(** Open-loop throughput/latency experiment runner.

    Where [Experiment] reproduces the paper's closed loop (each worker
    issues its next operation the moment the previous one returns, so
    offered load always equals capacity), this runner decouples arrival
    from service in the style of FliT's load sweeps: a generator fiber
    samples an arrival process ([Workload.Arrival]) on the simulated
    clock and appends operations to an *admission queue* in front of the
    construction's flat-combining publication slots. Service workers
    drain the queue; when arrivals outpace the combiner the queue grows
    without ever blocking the generator, which is exactly what lets the
    sweep walk past saturation and expose the knee.

    Per-operation *sojourn time* — admission-queue wait plus service,
    arrival to response on the sim clock — is recorded into a log2-bucket
    telemetry histogram. Operations still queued when the measurement
    window closes contribute a *censored* sojourn (deadline minus
    arrival, a lower bound): past the knee most operations never
    complete, and dropping them would make the tail look better the more
    saturated the system is. *)

type point = {
  ol_system : string;
  ol_workload : string;
  ol_workers : int;
  ol_offered : float; (* mean offered load, simulated ops/s *)
  ol_arrivals : int; (* admitted during the measure window *)
  ol_completed : int; (* completed during the measure window *)
  ol_backlogged : int; (* admitted in-window, still queued at the deadline *)
  ol_qmax : int; (* peak admission-queue depth in-window *)
  ol_sojourn : Telemetry.Registry.hist_stats;
      (* arrival->response, completed plus censored backlog *)
  ol_duration_ns : int;
  ol_throughput : float; (* completed / s over the measure window *)
}

(** Goodput fraction: completions per admitted arrival in the window. *)
let goodput p =
  if p.ol_arrivals = 0 then 1.0
  else float_of_int p.ol_completed /. float_of_int p.ol_arrivals

(* How long an idle service worker waits before re-checking the admission
   queue, simulated ns. *)
let poll_ns = 400

(** Run one open-loop point. *)
let run ?(seed = 7L) ?(topology = Sim.Topology.default)
    ?(duration_ns = 4_000_000) ?(warmup_ns = 800_000)
    ~(system : Experiment.system) ~(workload : Workload.t)
    ~(arrival : Workload.Arrival.proc) ~workers () =
  if workers >= Sim.Topology.total_cores topology then
    invalid_arg "Openloop.run: last core is reserved";
  let duration_ns = duration_ns * system.Experiment.duration_factor in
  let warmup_ns = warmup_ns * system.Experiment.duration_factor in
  let reg = Telemetry.Registry.create () in
  let sojourn = Telemetry.Registry.histogram reg "openloop.sojourn_ns" in
  let queue : (int * int array * int) Queue.t = Queue.create () in
  let arrivals = ref 0
  and completed = ref 0
  and qmax = ref 0
  and done_count = ref 0 in
  let gen_done = ref false in
  let measure_start = ref 0 and deadline = ref 0 in
  let serve inst =
    measure_start := Sim.now () + warmup_ns;
    deadline := !measure_start + duration_ns;
    let in_window t = t > !measure_start && t <= !deadline in
    (* the generator: samples the arrival process and admits operations;
       never blocks on the system under test *)
    Sim.spawn_here ~socket:0 (fun () ->
        let rng = Sim.fiber_rng () in
        let arr = Workload.Arrival.make arrival in
        let phase = ref 0 in
        while Sim.now () < !deadline do
          let gap = Workload.Arrival.next_gap arr rng ~now:(Sim.now ()) in
          Sim.sleep_until (Sim.now () + gap);
          if Sim.now () < !deadline then begin
            let op, args = workload.Workload.next rng ~phase:!phase in
            incr phase;
            Queue.push (op, args, Sim.now ()) queue;
            if in_window (Sim.now ()) then begin
              incr arrivals;
              let depth = Queue.length queue in
              if depth > !qmax then qmax := depth
            end
          end
        done;
        gen_done := true);
    (* service workers: drain the admission queue *)
    for w = 0 to workers - 1 do
      let socket, core = Sim.Topology.place topology w in
      Sim.spawn_here ~socket ~core (fun () ->
          inst.Experiment.register ();
          while Sim.now () < !deadline do
            match Queue.take_opt queue with
            | Some (op, args, arrived) ->
              ignore (inst.Experiment.exec ~op ~args);
              let finished = Sim.now () in
              if in_window finished then begin
                incr completed;
                Telemetry.Registry.observe sojourn (finished - arrived)
              end
            | None -> Sim.tick poll_ns
          done;
          incr done_count)
    done;
    (* supervisor: wait for the drain, then censor the backlog *)
    while (not !gen_done) || !done_count < workers do
      Sim.tick 50_000
    done;
    Queue.iter
      (fun (_, _, arrived) ->
        if in_window arrived then
          Telemetry.Registry.observe sojourn (!deadline - arrived))
      queue;
    inst.Experiment.teardown ();
    inst.Experiment.sample reg
  in
  ignore
    (Experiment.run_epoch ~name:"Openloop.run" ~seed ~topology ~system
       ~workers ~prefill:workload.Workload.prefill
       ~window_ns:(duration_ns + warmup_ns) serve);
  let backlogged =
    Queue.fold
      (fun acc (_, _, arrived) ->
        if arrived > !measure_start && arrived <= !deadline then acc + 1
        else acc)
      0 queue
  in
  {
    ol_system = system.Experiment.sys_name;
    ol_workload = workload.Workload.name;
    ol_workers = workers;
    ol_offered =
      Workload.Arrival.mean_rate (Workload.Arrival.make arrival);
    ol_arrivals = !arrivals;
    ol_completed = !completed;
    ol_backlogged = backlogged;
    ol_qmax = !qmax;
    ol_sojourn = Telemetry.Registry.hist_stats sojourn;
    ol_duration_ns = duration_ns;
    ol_throughput =
      float_of_int !completed *. 1e9 /. float_of_int duration_ns;
  }

(* ---- load curves ---- *)

(** The saturation knee of a curve (points in increasing offered-load
    order): the first offered rate whose tail latency has left the
    service-time regime — p99 sojourn above 8 times the lowest-rate p99 —
    or whose goodput has collapsed (completions below 95% of admissions,
    i.e. the queue is growing without bound). [None] if the swept range
    never saturates. *)
let knee (points : point list) =
  match points with
  | [] -> None
  | base :: _ ->
    let base_p99 =
      float_of_int
        (max 1 base.ol_sojourn.Telemetry.Registry.hs_p99)
    in
    List.find_map
      (fun p ->
        let p99 = float_of_int p.ol_sojourn.Telemetry.Registry.hs_p99 in
        if p99 > 8.0 *. base_p99 || goodput p < 0.95 then
          Some p.ol_offered
        else None)
      points

(** One system's curve as a bench-schema JSON object (string). The
    [curve_system] key marks the object for [Telemetry.Json]'s loadcurve
    validation: every point must carry the offered/completed counts and
    ordered p50/p95/p99 sojourn percentiles. Pure — the golden test feeds
    canned points through it. *)
let curve_to_json ~indent (points : point list) =
  match points with
  | [] -> invalid_arg "Openloop.curve_to_json: empty curve"
  | first :: _ ->
    let pad = String.make indent ' ' in
    let b = Buffer.create 1024 in
    let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    bpf "%s{\n" pad;
    bpf "%s  \"curve_system\": %S,\n" pad first.ol_system;
    bpf "%s  \"workload\": %S,\n" pad first.ol_workload;
    bpf "%s  \"workers\": %d,\n" pad first.ol_workers;
    bpf "%s  \"points\": [\n" pad;
    List.iteri
      (fun i p ->
        let s = p.ol_sojourn in
        bpf "%s    {\n" pad;
        bpf "%s      \"offered_ops_per_s\": %.1f,\n" pad p.ol_offered;
        bpf "%s      \"arrivals\": %d,\n" pad p.ol_arrivals;
        bpf "%s      \"completed\": %d,\n" pad p.ol_completed;
        bpf "%s      \"backlogged\": %d,\n" pad p.ol_backlogged;
        bpf "%s      \"queue_peak\": %d,\n" pad p.ol_qmax;
        bpf "%s      \"throughput_ops_per_s\": %.1f,\n" pad p.ol_throughput;
        bpf "%s      \"sojourn_p50_ns\": %d,\n" pad
          s.Telemetry.Registry.hs_p50;
        bpf "%s      \"sojourn_p95_ns\": %d,\n" pad
          s.Telemetry.Registry.hs_p95;
        bpf "%s      \"sojourn_p99_ns\": %d,\n" pad
          s.Telemetry.Registry.hs_p99;
        bpf "%s      \"sojourn_mean_ns\": %.1f\n" pad
          (if s.Telemetry.Registry.hs_n = 0 then 0.0
           else
             float_of_int s.Telemetry.Registry.hs_sum
             /. float_of_int s.Telemetry.Registry.hs_n);
        bpf "%s    }%s\n" pad
          (if i = List.length points - 1 then "" else ","))
      points;
    bpf "%s  ],\n" pad;
    (match knee points with
     | Some k -> bpf "%s  \"knee_ops_per_s\": %.1f\n" pad k
     | None -> bpf "%s  \"knee_ops_per_s\": null\n" pad);
    bpf "%s}" pad;
    Buffer.contents b
