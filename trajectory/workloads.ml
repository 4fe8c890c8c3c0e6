(** The six workloads of the trajectory benchmark.

    Each one builds PREP-Durable at the [Config.make] defaults (ε = 1024,
    WBINVD checkpoints, every optional mechanism off) with a 16,384-entry
    log unless its definition says otherwise, measures it on the
    simulated clock, checks every response it got, and ends with a power
    failure after which the recovered state is read back and compared. *)

open Harness
module H = Seqds.Hashmap
module Hm = Sut.Make (Seqds.Hashmap)
module Rb = Sut.Make (Seqds.Rbtree)

let log_size = 16_384
let epsilon = 1024
let ms = 1_000_000
(* Host times are the process's CPU seconds, which other tenants of a
   shared machine disturb less than its wall-clock time. Only the run's
   time budget is on the wall clock. *)
let cpu = Sys.time
let wall = Unix.gettimeofday

(* ---- results and checks ---- *)

type acc = {
  mutable checked : int;
  mutable unchecked : int;  (** operations the linearizability search gave up on *)
  mutable problems : string list;
}

let fail acc fmt = Printf.ksprintf (fun s -> acc.problems <- s :: acc.problems) fmt

(** What one run of a workload measured and checked. *)
type outcome = {
  sim : (string * float) list;
      (** ops_per_s, lat_mean_ns, lat_p99_ns, nvm_writes_per_update and
          recovery_ns, all on the simulated clock *)
  setups : float list;  (** rescaled CPU seconds of every set-up *)
  jobs : float list;  (** host seconds of every repetition of the measured job *)
  attempted : int;
  unchecked : int;  (** operations whose responses the search gave up on *)
  failures : string list;
  layers : (string * string * float) list;  (** traced runs only *)
  details : (string * Out.t) list;
}

type ctx = {
  seed : int;
  seconds : float;  (** wall-clock budget for repeating set-ups *)
  started : float;
  traced : bool;
}

type crash = {
  recovery_ns : int;  (** power failure to the first operation's response *)
  recover_ns : int;  (** of which rebuilding the construction *)
  replayed : int;  (** log entries replayed *)
  copy_ns_per_copy : float;  (** replica copies of the set-up and the rebuild *)
}

(** One measured run. [sim] holds the simulated-clock metrics a traced
    copy of the run must reproduce. *)
type pass = {
  r : Record.t;
  h : Sut.handle;
  sim : (string * float) list;
  job_s : float;
  final : Telemetry.Registry.snapshot;
}

let is_update op = not (H.is_readonly ~op)

let new_record ?tel ?open_loop ~warmup_ns ~duration_ns slot =
  Record.create ?tel ?open_loop ~warmup_ns ~duration_ns ~is_update
    ~keys_of:Lincheck.keys_of ~op_get:H.op_get
    ~checkpoints:(Sut.checkpoints slot) ()

let with_registry tel f =
  match tel with Some reg -> Telemetry.Registry.with_current reg f | None -> f ()

let final_snap = function
  | Some reg -> Telemetry.Registry.snapshot reg
  | None -> Telemetry.Registry.empty_snapshot

(* Run [f], a simulation observed by [r], from a clean slate; record its
   set-up and run as host spans and return the run's CPU seconds. *)
let timed_run (r : Record.t) f =
  Timed.reset ();
  Nvm.Context.reset ();
  let t0 = cpu () in
  let x = f () in
  let t1 = cpu () in
  Spans.add "setup" ~t0 ~t1:r.Record.host_ready;
  Spans.add "run" ~t0:r.Record.host_ready ~t1;
  (x, t1 -. r.Record.host_ready)

(* Mean and p99 of a sample; the p99 needs ten samples beyond it. The
   mean stands in for the median, which on these workloads sits on one
   operation's fixed cost (every local read of read-mostly takes 770 ns)
   and so reads the same whatever the seed or the code around it. *)
let latency acc v =
  let s = Stats.sorted v in
  if Array.length s = 0 then begin
    fail acc "no latency samples in the window";
    (nan, nan)
  end
  else begin
    let p99, beyond = Stats.percentile s 0.99 in
    if beyond < 10 then fail acc "the latency p99 has only %d samples beyond it" beyond;
    (Stats.mean s, float_of_int p99)
  end

let window_metrics acc (r : Record.t) ~ops_per_s =
  let mean, p99 = latency acc r.Record.lat in
  if r.Record.window_updates = 0 then fail acc "no update completed in the window";
  [ ("ops_per_s", ops_per_s); ("lat_mean_ns", mean); ("lat_p99_ns", p99);
    ( "nvm_writes_per_update",
      float_of_int (Array.fold_left ( + ) 0 (Record.window_writes r))
      /. float_of_int (max 1 r.Record.window_updates) ) ]

let window_details (r : Record.t) =
  [ ("window_checkpoints", Out.Int (r.Record.ckpt1 - r.Record.ckpt0));
    ("window_updates", Out.Int r.Record.window_updates);
    ( "window_media_writes",
      Out.Obj
        (Array.to_list
           (Array.map2 (fun k v -> (k, Out.Int v)) Record.write_causes (Record.window_writes r)))
    ) ]

let check_reports acc reports =
  List.iteri
    (fun i (rep : Prep.Prep_uc.recovery_report) ->
      if rep.Prep.Prep_uc.lost_completed > 0 then
        fail acc "instance %d lost %d completed operations" i rep.Prep.Prep_uc.lost_completed;
      if rep.Prep.Prep_uc.skipped_completed > 0 then
        fail acc "instance %d skipped %d completed operations" i
          rep.Prep.Prep_uc.skipped_completed;
      if not rep.Prep.Prep_uc.contiguous_prefix then
        fail acc "instance %d recovered a non-contiguous prefix" i)
    reports

(** Power failure after [p], recovery in a fresh simulation, one
    operation, then a read-back of [keys]; [expect] says whether a value
    read afterwards is right. Returns the recovery timings. *)
let recover acc ~seed ~topology (p : pass) ~keys ~expect =
  Spans.with_span "crash-recover" @@ fun () ->
  Nvm.Memory.crash p.h.Sut.mem;
  Nvm.Context.reset ();
  let sim = Sim.create ~seed:(Int64.of_int (seed + 1)) topology in
  let out = ref None in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let calls = Timed.totals.Timed.calls in
         let rc = p.h.Sut.recover () in
         let recovered = Sim.now () in
         let replayed = Timed.totals.Timed.calls - calls in
         ignore (rc.Sut.exec ~op:H.op_get ~args:[| List.hd keys |]);
         let first = Sim.now () in
         let wrong =
           List.filter (fun k -> not (expect k (rc.Sut.exec ~op:H.op_get ~args:[| k |]))) keys
         in
         let copies = Timed.totals.Timed.copies in
         out :=
           Some
             ( { recovery_ns = first; recover_ns = recovered; replayed;
                 copy_ns_per_copy =
                   float_of_int Timed.totals.Timed.copy_ns /. float_of_int (max 1 copies) },
               rc.Sut.reports, wrong )));
  ignore (Sim.run sim ());
  match !out with
  | None ->
    fail acc "recovery did not finish";
    { recovery_ns = 0; recover_ns = 0; replayed = 0; copy_ns_per_copy = 0.0 }
  | Some (c, reports, wrong) ->
    acc.checked <- acc.checked + List.length keys;
    if wrong <> [] then
      fail acc "%d of %d keys are wrong after the power failure (first: %d)"
        (List.length wrong) (List.length keys) (List.hd wrong);
    check_reports acc reports;
    c

(* After a drained run every completed operation is durable, so each key
   must read back exactly what it held before the power failure. *)
let recover_drained acc ~seed ~topology (p : pass) =
  let before = Hashtbl.create 4096 in
  List.iter (fun (k, v) -> Hashtbl.replace before k v) p.r.Record.readback;
  recover acc ~seed ~topology p
    ~keys:(List.map fst p.r.Record.readback)
    ~expect:(fun k v -> Hashtbl.find before k = v)

(** Check every recorded response; returns operations checked per host second. *)
let lincheck acc ~prefill (r : Record.t) =
  Spans.with_span "lincheck" @@ fun () ->
  let t0 = cpu () in
  let res = Lincheck.check ~prefill (Record.history r) in
  let dt = cpu () -. t0 in
  let checked = r.Record.n_history - res.Lincheck.unchecked_ops in
  acc.checked <- acc.checked + checked;
  acc.unchecked <- acc.unchecked + res.Lincheck.unchecked_ops;
  (match res.Lincheck.bad with
   | [] -> ()
   | k :: _ ->
     fail acc "%d of %d key groups are not linearizable (first: key %d)"
       (List.length res.Lincheck.bad) res.Lincheck.groups k);
  float_of_int checked /. Float.max 1e-9 dt

(* A fixed job of allocation and hashing that runs no repository code:
   its CPU time measures how fast the machine is right now. *)
let reference_job () =
  let t0 = cpu () in
  let h = Hashtbl.create 16 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i * 7919) (Array.make 8 i)
  done;
  let a = Array.make 200_000 0 in
  for i = 1 to 199_999 do
    a.(i) <- a.(i - 1) + (Hashtbl.hash i land 7)
  done;
  ignore (Sys.opaque_identity (h, a));
  cpu () -. t0

(* the reference job's CPU seconds on the machine the bounds were set on *)
let reference_s = 0.015

(** Set-up alone in a fresh simulation: build and prefill, then stop.
    Returns its CPU seconds rescaled by the reference job, run just
    before and just after it, to the speed at which that job takes
    [reference_s] (a shared machine slows both alike, by up to half,
    while their ratio moves a few percent), and the simulated set-up
    time, which must not differ from one repetition to the next. *)
let setup_once ~seed ~topology ~workers (system : Experiment.system) ~prefill =
  Nvm.Context.reset ();
  let mem = Nvm.Memory.make ~sockets:topology.Sim.Topology.sockets () in
  let sim = Sim.create ~seed:(Int64.of_int seed) topology in
  let out = ref (0.0, 0) in
  let before = reference_job () in
  let t0 = cpu () in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let inst = system.Experiment.make mem (Nvm.Roots.make mem) ~workers ~prefill in
         let t1 = cpu () in
         out := (t1 -. t0, Sim.now ());
         Spans.add "setup" ~t0 ~t1;
         inst.Experiment.teardown ()));
  ignore (Sim.run sim ());
  let speed = reference_s /. ((before +. reference_job ()) /. 2.0) in
  (fst !out *. speed, snd !out)

(* The set-ups behind [setup_s], run once the measured run is done: at
   least three, and more while the run's time budget lasts. Every one
   must take the simulated time the measured run's set-up took. *)
let setups acc ctx ~ready once =
  let rec go l n =
    if n < 3 || (n < 30 && wall () -. ctx.started +. Stats.median l < ctx.seconds)
    then begin
      let s, sim_ready = once () in
      if sim_ready <> ready then
        fail acc "set-up took %d ns of simulated time, then %d" ready sim_ready;
      go (s :: l) (n + 1)
    end
    else l
  in
  go [] 0

(** Host ns per [Workload.next] call, drawn outside any simulation. *)
let next_host_ns (w : Workload.t) =
  let rng = Sim.Rng.create 1L in
  let n = 200_000 in
  let t0 = cpu () in
  for phase = 1 to n do
    ignore (w.Workload.next rng ~phase)
  done;
  (cpu () -. t0) *. 1e9 /. float_of_int n

(* ---- closed loop ---- *)

type closed = {
  topology : Sim.Topology.t;
  workers : int;
  warmup_ns : int;
  duration_ns : int;
  op_batch : int;
  min_checkpoints : int;  (** fewer inside the window fail the run *)
  system : Sut.handle option ref -> Experiment.system;
  workload : Workload.t;
}

let closed_pass acc ?tel ~seed c =
  let slot = ref None in
  let r = new_record ?tel ~warmup_ns:c.warmup_ns ~duration_ns:c.duration_ns slot in
  let res, job_s =
    timed_run r (fun () ->
        with_registry tel (fun () ->
            Experiment.run ~seed:(Int64.of_int seed) ~topology:c.topology
              ~duration_ns:c.duration_ns ~warmup_ns:c.warmup_ns ~op_batch:c.op_batch
              ~system:(Record.wrap_system r (c.system slot))
              ~workload:c.workload ~workers:c.workers ()))
  in
  if r.Record.window_ops <> res.Experiment.ops then
    fail acc "the bench counted %d operations in the window, the harness %d"
      r.Record.window_ops res.Experiment.ops;
  let ckpts = r.Record.ckpt1 - r.Record.ckpt0 in
  if ckpts < c.min_checkpoints then
    fail acc "the window holds %d checkpoints (fewer than %d)" ckpts c.min_checkpoints;
  {
    r;
    h = Option.get !slot;
    sim = window_metrics acc r ~ops_per_s:res.Experiment.throughput;
    job_s;
    final = final_snap tel;
  }

let reconcile acc (snap : Telemetry.Registry.snapshot) =
  let gap = Layers.reconcile_gap snap in
  if gap > 0.005 then
    fail acc "span self times miss the covered time by %.2f%%" (100.0 *. gap)

(** The traced copy of a pass: same simulated results, per-layer metrics. *)
let trace acc ~untraced ~traced_pass ~crash ~lin ~workload ~instances ~extra =
  let reg = Telemetry.Registry.create () in
  let t : pass = Spans.with_span "traced-run" (fun () -> traced_pass reg) in
  if t.sim <> untraced.sim then
    fail acc "the traced run's simulated results differ from the untraced run's";
  Layers.compute t.r
    {
      Layers.counters = t.h.Sut.counters ();
      logged = t.h.Sut.logged ();
      instances;
      untraced_s = untraced.job_s;
      traced_s = t.job_s;
      recover_ns = crash.recover_ns;
      replayed = crash.replayed;
      copy_ns_per_copy = crash.copy_ns_per_copy;
      lin_ops_per_s = lin;
      next_host_ns = next_host_ns workload;
      dropped = Telemetry.Registry.dropped_events reg;
      extra;
    }

(* the median of each simulated-clock metric over several runs *)
let median_metrics runs =
  List.map
    (fun (k, _) -> (k, Stats.median (List.map (List.assoc k) runs)))
    (List.hd runs)

(* [subruns] runs at derived seeds, each checked and crashed, report the
   median of every simulated-clock metric; traced per-layer numbers come
   from the first. *)
let closed_run ?(subruns = 1) c ctx =
  let acc = { checked = 0; unchecked = 0; problems = [] } in
  let runs =
    List.init subruns (fun i ->
        let seed = ctx.seed + (i * 1_000_000) in
        let p = closed_pass acc ~seed c in
        let lin = lincheck acc ~prefill:c.workload.Workload.prefill p.r in
        let crash = recover_drained acc ~seed ~topology:c.topology p in
        (p, lin, crash))
  in
  let p, lin, crash = List.hd runs in
  let setups =
    setups acc ctx ~ready:p.r.Record.ready (fun () ->
        setup_once ~seed:ctx.seed ~topology:c.topology ~workers:c.workers
          (c.system (ref None)) ~prefill:c.workload.Workload.prefill)
  in
  let layers =
    if not ctx.traced then []
    else
      trace acc ~untraced:p ~crash ~lin ~workload:c.workload
        ~instances:(Array.length (p.h.Sut.logged ()))
        ~extra:[]
        ~traced_pass:(fun reg ->
          let t = closed_pass acc ~tel:reg ~seed:ctx.seed c in
          reconcile acc t.final;
          t)
  in
  {
    sim =
      median_metrics
        (List.map
           (fun (p, _, c) -> p.sim @ [ ("recovery_ns", float_of_int c.recovery_ns) ])
           runs);
    setups;
    jobs = [ List.fold_left (fun s (p, _, _) -> s +. p.job_s) 0.0 runs ];
    attempted = acc.checked;
    unchecked = acc.unchecked;
    failures = acc.problems;
    layers;
    details = window_details p.r;
  }

let update_heavy =
  {
    topology = Sim.Topology.default;
    workers = 12;
    warmup_ns = 8 * ms;
    duration_ns = 40 * ms;
    op_batch = 1;
    min_checkpoints = 8;
    system = Hm.prep ~log_size ~epsilon;
    workload = Workload.map_workload ~read_pct:10 ~key_range:4096 ~prefill_n:2048;
  }

let read_mostly =
  {
    update_heavy with
    workers = 23;
    warmup_ns = 6 * ms;
    duration_ns = 30 * ms;
    workload = Workload.map_workload ~read_pct:90 ~key_range:4096 ~prefill_n:2048;
  }

(* Two defects shape this workload (README.md, "Defects found"). A
   combiner that holds an undecided cross-shard prepare can block on the
   flush boundary that only the decision it owes would let advance, so ε
   is set past every entry a shard logs in the run: no checkpoint
   boundary falls inside it, and checkpoints are measured by the other
   workloads. And without FliT a stale CLWB capture, drained by a later
   fence, can roll a commit decision on media back behind the CLFLUSH
   that persisted it, so recovery drops a completed transaction.
   Batches are 8 operations: about 0.3% of them take 0.4-1.4 ms against
   a 58 us p99, and at 32 operations that slow share nears 1%, where the
   p99 flips between the two from seed to seed.

   Every map workload is prefilled to half its key range, where inserts
   and removes balance: a map that still grows resizes at a seed-dependent
   moment, and one resize inside the window moves its tail latency and
   checkpoint traffic by more than any bound could allow. *)
let sharded_2pc =
  {
    topology = Sim.Topology.default;
    workers = 12;
    warmup_ns = 5 * ms;
    duration_ns = 30 * ms;
    op_batch = 8;
    min_checkpoints = 0;
    system = Hm.sharded ~log_size:65_536 ~epsilon:60_000 ~flit:true ~shards:4;
    workload =
      Workload.map_workload_sharded ~read_pct:20 ~multi_pct:20 ~cross_pct:25 ~nshards:4
        ~key_range:65_536 ~prefill_n:32_768;
  }

(* ---- open loop ---- *)

let open_rates = [ 200_000.; 450_000.; 500_000.; 600_000.; 800_000. ]
let reference_rate = 450_000.
let slo_p99_ns = 1_000_000
let open_warmup_ns = 8 * ms
let open_duration_ns = 40 * ms
let open_workers = 8

let open_workload =
  Workload.map_workload_zipf ~theta:0.99 ~read_pct:50 ~key_range:4096 ~prefill_n:2048

type rung = { rate : float; p : pass; point : Openloop.point }

let open_rung acc ?tel ~seed rate =
  let slot = ref None in
  let r =
    new_record ?tel ~open_loop:true ~warmup_ns:open_warmup_ns
      ~duration_ns:open_duration_ns slot
  in
  let point, job_s =
    timed_run r (fun () ->
        with_registry tel (fun () ->
            Openloop.run ~seed:(Int64.of_int seed) ~duration_ns:open_duration_ns
              ~warmup_ns:open_warmup_ns
              ~system:(Record.wrap_system r (Hm.prep ~log_size ~epsilon slot))
              ~workload:(Record.wrap_workload r open_workload)
              ~arrival:(Workload.Arrival.Poisson { rate }) ~workers:open_workers ()))
  in
  let censored = Record.censor_backlog r in
  if r.Record.window_ops <> point.Openloop.ol_completed then
    fail acc "rate %.0f: the bench counted %d completions, the harness %d" rate
      r.Record.window_ops point.Openloop.ol_completed;
  if censored <> point.Openloop.ol_backlogged then
    fail acc "rate %.0f: the bench found %d queued arrivals, the harness %d" rate censored
      point.Openloop.ol_backlogged;
  let throughput = point.Openloop.ol_throughput in
  {
    rate;
    point;
    p =
      {
        r;
        h = Option.get !slot;
        sim = window_metrics acc r ~ops_per_s:throughput;
        job_s;
        final = final_snap tel;
      };
  }

let rung_details (g : rung) =
  let p v q = if v.Stats.n = 0 then 0 else fst (Stats.percentile (Stats.sorted v) q) in
  let r = g.p.r and pt = g.point in
  Out.Obj
    [ ("rate_ops_per_s", Out.Num g.rate);
      ("arrivals", Out.Int pt.Openloop.ol_arrivals);
      ("completed", Out.Int pt.Openloop.ol_completed);
      ("backlogged", Out.Int pt.Openloop.ol_backlogged);
      ("backlog_peak", Out.Int pt.Openloop.ol_qmax);
      ("sojourn_p50_ns", Out.Int (p r.Record.lat 0.5));
      ("sojourn_p99_ns", Out.Int (p r.Record.lat 0.99));
      ("queue_wait_p50_ns", Out.Int (p r.Record.wait 0.5));
      ("queue_wait_p99_ns", Out.Int (p r.Record.wait 0.99));
      ("service_p50_ns", Out.Int (p r.Record.service 0.5));
      ("service_p99_ns", Out.Int (p r.Record.service 0.99));
      ("host_s", Out.Num g.p.job_s) ]

(* the highest rate whose p99 sojourn meets the limit with at least 95% of
   its arrivals served inside the window *)
let slo_rate rungs =
  List.fold_left
    (fun best (g : rung) ->
      let s = Stats.sorted g.p.r.Record.lat in
      let ok =
        Array.length s > 0
        && fst (Stats.percentile s 0.99) <= slo_p99_ns
        && float_of_int g.point.Openloop.ol_completed
           >= 0.95 *. float_of_int g.point.Openloop.ol_arrivals
      in
      if ok then Float.max best g.rate else best)
    0.0 rungs

let open_run ctx =
  let acc = { checked = 0; unchecked = 0; problems = [] } in
  let rungs = List.map (open_rung acc ~seed:ctx.seed) open_rates in
  let lins =
    List.map
      (fun (g : rung) -> (g.rate, lincheck acc ~prefill:open_workload.Workload.prefill g.p.r))
      rungs
  in
  let lin = List.assoc reference_rate lins in
  let ref_rung = List.find (fun (g : rung) -> g.rate = reference_rate) rungs in
  List.iter
    (fun (g : rung) ->
      if g.p.r.Record.ready <> ref_rung.p.r.Record.ready then
        fail acc "set-up took %d ns of simulated time, then %d" ref_rung.p.r.Record.ready
          g.p.r.Record.ready)
    rungs;
  let top = List.nth rungs (List.length rungs - 1) in
  let crash = recover_drained acc ~seed:ctx.seed ~topology:Sim.Topology.default ref_rung.p in
  let extra =
    [ ("harness.backlog_peak", float_of_int ref_rung.point.Openloop.ol_qmax);
      ("harness.slo_rate_ops_per_s", slo_rate rungs) ]
  in
  let layers =
    if not ctx.traced then []
    else
      trace acc ~untraced:ref_rung.p ~crash ~lin ~workload:open_workload ~instances:1
        ~extra ~traced_pass:(fun reg ->
          let g = open_rung acc ~tel:reg ~seed:ctx.seed reference_rate in
          reconcile acc g.p.final;
          g.p)
  in
  let ops_per_s = List.assoc "ops_per_s" top.p.sim in
  {
    sim =
      List.map
        (fun (k, v) -> if k = "ops_per_s" then (k, ops_per_s) else (k, v))
        ref_rung.p.sim
      @ [ ("recovery_ns", float_of_int crash.recovery_ns) ];
    setups =
      setups acc ctx ~ready:ref_rung.p.r.Record.ready (fun () ->
          setup_once ~seed:ctx.seed ~topology:Sim.Topology.default ~workers:open_workers
            (Hm.prep ~log_size ~epsilon (ref None))
            ~prefill:open_workload.Workload.prefill);
    jobs = [ List.fold_left (fun s (g : rung) -> s +. g.p.job_s) 0.0 rungs ];
    attempted = acc.checked;
    unchecked = acc.unchecked;
    failures = acc.problems;
    layers;
    details =
      [ ("rungs", Out.List (List.map rung_details rungs));
        ("slo_rate_ops_per_s", Out.Num (slo_rate rungs)) ];
  }

(* ---- recovery-large ---- *)

exception Power_failure

let rl_keys = 50_000
let rl_workers = 4
let rl_run_ns = 40 * ms
let rl_workload = Workload.map_workload ~read_pct:0 ~key_range:rl_keys ~prefill_n:rl_keys

(* What a key holds after [op] in the model of its single writer. *)
let apply_model model op args =
  let k = args.(0) in
  if op = H.op_insert then Hashtbl.replace model k args.(1)
  else if op = H.op_remove then Hashtbl.remove model k

(* Four update-only workers; worker [w] owns the keys congruent to [w]
   modulo 4, so the last acknowledged value of every key is known. A
   bench fiber cuts the power [rl_run_ns] after set-up. *)
let rl_pass acc ?tel ~seed () =
  let topology = Sim.Topology.default in
  let slot = ref None in
  let r = new_record ?tel ~warmup_ns:0 ~duration_ns:rl_run_ns slot in
  let system = Record.wrap_system r (Rb.prep ~log_size ~epsilon slot) in
  let model = Hashtbl.create rl_keys in
  List.iter (fun (_, a) -> Hashtbl.replace model a.(0) a.(1)) rl_workload.Workload.prefill;
  let pending = Array.make rl_workers None in
  let (), job_s =
    timed_run r (fun () ->
        with_registry tel (fun () ->
            let mem = Nvm.Memory.make ~sockets:topology.Sim.Topology.sockets () in
            let sim = Sim.create ~seed:(Int64.of_int seed) topology in
            ignore
              (Sim.spawn sim ~socket:0 (fun () ->
                   let inst =
                     system.Experiment.make mem (Nvm.Roots.make mem) ~workers:rl_workers
                       ~prefill:rl_workload.Workload.prefill
                   in
                   for w = 0 to rl_workers - 1 do
                     let socket, core = Sim.Topology.place topology w in
                     Sim.spawn_here ~socket ~core (fun () ->
                         inst.Experiment.register ();
                         let rng = Sim.fiber_rng () in
                         let phase = ref 0 in
                         while true do
                           let op, args = rl_workload.Workload.next rng ~phase:!phase in
                           incr phase;
                           let args = Array.copy args in
                           args.(0) <- args.(0) - (args.(0) mod rl_workers) + w;
                           pending.(w) <- Some (op, args);
                           ignore (inst.Experiment.exec ~op ~args);
                           apply_model model op args;
                           pending.(w) <- None
                         done)
                   done;
                   Sim.sleep_until r.Record.deadline;
                   raise Power_failure));
            try ignore (Sim.run sim ()) with Power_failure -> ());
        Record.mark_end r)
  in
  let p =
    {
      r;
      h = Option.get !slot;
      sim =
        window_metrics acc r
          ~ops_per_s:(float_of_int r.Record.window_ops *. 1e9 /. float_of_int rl_run_ns);
      job_s;
      final = final_snap tel;
    }
  in
  (p, model, pending)

let rl_run ctx =
  let acc = { checked = 0; unchecked = 0; problems = [] } in
  let p, model, pending = rl_pass acc ~seed:ctx.seed () in
  let lin = lincheck acc ~prefill:rl_workload.Workload.prefill p.r in
  (* a key reads its owner's last acknowledged value, or the value the
     owner's in-flight operation would leave *)
  let value m k = Option.value ~default:(-1) (Hashtbl.find_opt m k) in
  let expect k v =
    v = value model k
    ||
    match pending.(k mod rl_workers) with
    | Some (op, args) when args.(0) = k ->
      let m = Hashtbl.create 1 in
      Option.iter (Hashtbl.replace m k) (Hashtbl.find_opt model k);
      apply_model m op args;
      v = value m k
    | _ -> false
  in
  let crash =
    recover acc ~seed:ctx.seed ~topology:Sim.Topology.default p
      ~keys:(List.init rl_keys Fun.id) ~expect
  in
  let setups =
    setups acc ctx ~ready:p.r.Record.ready (fun () ->
        setup_once ~seed:ctx.seed ~topology:Sim.Topology.default ~workers:rl_workers
          (Rb.prep ~log_size ~epsilon (ref None))
          ~prefill:rl_workload.Workload.prefill)
  in
  let layers =
    if not ctx.traced then []
    else
      (* the power failure leaves spans open, so there is nothing to reconcile *)
      trace acc ~untraced:p ~crash ~lin ~workload:rl_workload ~instances:1 ~extra:[]
        ~traced_pass:(fun reg ->
          let t, _, _ = rl_pass acc ~tel:reg ~seed:ctx.seed () in
          t)
  in
  {
    sim = p.sim @ [ ("recovery_ns", float_of_int crash.recovery_ns) ];
    setups;
    jobs = [ p.job_s ];
    attempted = acc.checked;
    unchecked = acc.unchecked;
    failures = acc.problems;
    layers;
    details =
      window_details p.r
      @ [ ("recover_ns", Out.Int crash.recover_ns);
          ("replayed_entries", Out.Int crash.replayed) ];
  }

(* ---- verify ---- *)

module E = Check.Explore.Make (Seqds.Hashmap)
module F = Check.Fuzz.Make (Seqds.Hashmap)

(* the fuzzer's machine and protocol scale: 2 sockets of 4 cores, ε = 16,
   a 256-entry log, 64 hot keys *)
let verify_timed =
  {
    topology = { Sim.Topology.sockets = 2; cores_per_socket = 4 };
    workers = 6;
    warmup_ns = 1 * ms;
    duration_ns = 40 * ms;
    op_batch = 1;
    min_checkpoints = 8;
    system = Hm.prep ~log_size:256 ~epsilon:16;
    workload = Workload.map_workload ~read_pct:30 ~key_range:64 ~prefill_n:32;
  }

(* the CLI's fuzz and explore op mix over 64 keys *)
let check_gen rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (H.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (H.op_remove, [| k |])
  | 6 | 7 | 8 -> (H.op_get, [| k |])
  | _ -> (H.op_size, [||])

(* exhausts in about 2 s: prep_cli explore --variant durable --ds hashmap
   --threads 2 --ops 1 --epsilon 4 --log-size 16 --seed 1 --sockets 2
   --cores 2 --no-persistence *)
let explore_scope =
  {
    Check.Explore.default_scope with
    Check.Explore.ops_per_worker = 1;
    epsilon = 4;
    persistence = false;
  }

let fuzz_template seed =
  {
    Check.Fuzz.workload_seed = seed;
    threads = 6;
    epsilon = 16;
    log_size = 256;
    ops_per_worker = 80;
    bg_period = 2000;
    preempt_prob = 0.02;
    crash = Check.Fuzz.No_crash;
  }

let fuzz_iters = 5

(* One exhaustive exploration of a fixed durable scope plus one fuzz
   campaign seeded by the run; returns their results and host seconds. *)
let checkers acc ~seed =
  let gen_op = check_gen in
  Gc.compact ();
  let t0 = cpu () in
  let er =
    Spans.with_span "explore" (fun () ->
        E.explore ~mode:Prep.Config.Durable ~fault:Prep.Config.No_fault ~gen_op
          ~scope:explore_scope ())
  in
  let t1 = cpu () in
  let fr =
    Spans.with_span "fuzz" (fun () ->
        F.fuzz ~mode:Prep.Config.Durable ~fault:Prep.Config.No_fault ~gen_op
          ~template:(fuzz_template seed) ~iters:fuzz_iters ())
  in
  let t2 = cpu () in
  let st = er.Check.Explore.stats in
  acc.checked <- acc.checked + st.Check.Explore.recoveries + fr.Check.Fuzz.episodes;
  if er.Check.Explore.violation <> None then fail acc "the explorer found a violation";
  if not er.Check.Explore.exhausted then fail acc "the explorer scope did not exhaust";
  if fr.Check.Fuzz.failures <> [] then
    fail acc "%d fuzz episodes failed" (List.length fr.Check.Fuzz.failures);
  let signature =
    ( st.Check.Explore.schedules, st.Check.Explore.states, st.Check.Explore.steps,
      st.Check.Explore.recoveries, fr.Check.Fuzz.crashes )
  in
  (er, fr, signature, t1 -. t0, t2 -. t1)

let verify_run ctx =
  let o = closed_run ~subruns:9 verify_timed ctx in
  let acc = { checked = o.attempted; unchecked = o.unchecked; problems = o.failures } in
  let er, fr, signature, te, tf = checkers acc ~seed:ctx.seed in
  (* the traced run times the checkers three times and keeps the fastest;
     their results must not change between repetitions *)
  let times =
    if not ctx.traced then [ (te, tf) ]
    else
      (te, tf)
      :: List.init 2 (fun _ ->
             let _, _, s, te, tf = checkers acc ~seed:ctx.seed in
             if s <> signature then
               fail acc "the checkers' results changed between repetitions";
             (te, tf))
  in
  let te = List.fold_left (fun m (a, _) -> Float.min m a) infinity times
  and tf = List.fold_left (fun m (_, b) -> Float.min m b) infinity times in
  let st = er.Check.Explore.stats in
  let fi = float_of_int in
  let check_layers =
    [ ("check.explore.schedules", fi st.Check.Explore.schedules);
      ("check.explore.states", fi st.Check.Explore.states);
      ("check.explore.steps_per_s", fi st.Check.Explore.steps /. te);
      ("check.explore.recoveries_per_s", fi st.Check.Explore.recoveries /. te);
      ( "check.explore.dedup_hit_frac",
        fi st.Check.Explore.dedup_hits
        /. fi (max 1 (st.Check.Explore.dedup_hits + st.Check.Explore.states)) );
      ("check.fuzz.episodes_per_s", fi fr.Check.Fuzz.episodes /. tf);
      ("check.fuzz.crash_frac", fi fr.Check.Fuzz.crashes /. fi (max 1 fr.Check.Fuzz.episodes));
      ("harness.job_host_s", te +. tf) ]
  in
  {
    o with
    jobs = List.map (fun (a, b) -> a +. b) times;
    attempted = acc.checked;
    unchecked = acc.unchecked;
    failures = acc.problems;
    layers =
      List.map
        (fun (n, u, v) -> (n, u, Option.value ~default:v (List.assoc_opt n check_layers)))
        o.layers;
    details =
      o.details
      @ [ ("explore_s", Out.Num te); ("fuzz_s", Out.Num tf);
          ("explore_schedules", Out.Int st.Check.Explore.schedules);
          ("fuzz_episodes", Out.Int fr.Check.Fuzz.episodes);
          ("fuzz_crashes", Out.Int fr.Check.Fuzz.crashes) ];
  }

(* ---- the catalogue ---- *)

type t = { name : string; run : ctx -> outcome }

(* why each workload is here: README.md, "Workloads" *)
let all =
  [ { name = "update-heavy"; run = closed_run update_heavy };
    { name = "read-mostly"; run = closed_run read_mostly };
    { name = "open-loop"; run = open_run };
    { name = "recovery-large"; run = rl_run };
    { name = "sharded-2pc"; run = closed_run sharded_2pc };
    { name = "verify"; run = verify_run } ]
