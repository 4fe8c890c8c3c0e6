(* Self-test of the trajectory bench, run by `dune runtest`.

   Zero divergence: short update-heavy, sharded and open-loop runs of the
   harness's own systems and of the bench's wrapped systems (recorder,
   Timed sequential objects, with and without the traced registry) must
   agree exactly on operations, throughput and flush/fence counts. The
   bench's statistics and its linearizability checker get a known-answer
   check each. Exits 1 on any mismatch. *)

open Harness
module Bare = Experiment.Systems (Seqds.Hashmap)
module Bench = Sut.Make (Seqds.Hashmap)
module H = Seqds.Hashmap

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let recorder ?tel ?open_loop ?read_back ~warmup_ns ~duration_ns slot =
  Record.create ?tel ?open_loop ?read_back ~warmup_ns ~duration_ns
    ~is_update:(fun op -> not (H.is_readonly ~op))
    ~keys_of:Lincheck.keys_of ~op_get:H.op_get ~checkpoints:(Sut.checkpoints slot) ()

let traffic (r : Experiment.result) =
  Experiment.(r.ops, r.throughput, r.clwb, r.clflush, r.sfence, r.wbinvd, r.bg_flushes)

(* The same closed-loop run bare, wrapped, and wrapped under a registry. *)
let closed name ~op_batch ~workload ~bare ~bench =
  let run system tel =
    let go () =
      Experiment.run ~warmup_ns:500_000 ~duration_ns:2_000_000 ~op_batch ~system ~workload
        ~workers:12 ()
    in
    match tel with Some reg -> Telemetry.Registry.with_current reg go | None -> go ()
  in
  let base = run bare None in
  let wrapped tel =
    let slot = ref None in
    (* without the read-back, whose reads would add memory traffic after
       the window to the whole-run counts compared here *)
    let r = recorder ?tel ~read_back:false ~warmup_ns:500_000 ~duration_ns:2_000_000 slot in
    let res = run (Record.wrap_system r (bench slot)) tel in
    check (name ^ ": the recorder counts the harness's operations")
      (r.Record.window_ops = res.Experiment.ops);
    res
  in
  check (name ^ ": wrapped run = bare run") (traffic (wrapped None) = traffic base);
  check (name ^ ": traced run = bare run")
    (traffic (wrapped (Some (Telemetry.Registry.create ()))) = traffic base)

let open_loop () =
  let workload =
    Workload.map_workload_zipf ~theta:0.99 ~read_pct:50 ~key_range:1024 ~prefill_n:512
  in
  let run system workload tel =
    let go () =
      Openloop.run ~warmup_ns:1_000_000 ~duration_ns:4_000_000 ~system ~workload
        ~arrival:(Workload.Arrival.Poisson { rate = 450_000. }) ~workers:8 ()
    in
    match tel with Some reg -> Telemetry.Registry.with_current reg go | None -> go ()
  in
  let base =
    run (Bare.prep ~log_size:4096 ~mode:Prep.Config.Durable ~epsilon:64 ()) workload None
  in
  let wrapped tel =
    let slot = ref None in
    let r =
      recorder ?tel ~open_loop:true ~warmup_ns:1_000_000 ~duration_ns:4_000_000 slot
    in
    let p =
      run
        (Record.wrap_system r (Bench.prep ~log_size:4096 ~epsilon:64 slot))
        (Record.wrap_workload r workload) tel
    in
    let censored = Record.censor_backlog r in
    check "open-loop: exact sojourns count the harness's completions and backlog"
      (r.Record.window_ops = p.Openloop.ol_completed
      && censored = p.Openloop.ol_backlogged);
    p
  in
  check "open-loop: wrapped run = bare run" (wrapped None = base);
  check "open-loop: traced run = bare run"
    (wrapped (Some (Telemetry.Registry.create ())) = base)

let known_answers () =
  check "quartiles match Python's statistics.quantiles"
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) = (2.75, 5.5, 8.25));
  let ev t_inv t_resp op args resp = { Check.History.thread = 0; t_inv; t_resp; op; args; resp } in
  let put = ev 0 10 H.op_insert [| 1; 5 |] 1 in
  let prefill = [ (H.op_insert, [| 2; 2 |]) ] in
  check "the checker accepts a linearizable history"
    ((Lincheck.check ~prefill [ put; ev 20 30 H.op_get [| 1 |] 5; ev 5 25 H.op_get [| 2 |] 2 ])
       .Lincheck.bad = []);
  check "the checker rejects a stale read"
    ((Lincheck.check ~prefill [ put; ev 20 30 H.op_get [| 1 |] (-1) ]).Lincheck.bad = [ 1 ])

let () =
  known_answers ();
  closed "update-heavy" ~op_batch:1
    ~workload:(Workload.map_workload ~read_pct:10 ~key_range:1024 ~prefill_n:512)
    ~bare:(Bare.prep ~log_size:4096 ~mode:Prep.Config.Durable ~epsilon:64 ())
    ~bench:(Bench.prep ~log_size:4096 ~epsilon:64);
  closed "sharded" ~op_batch:32
    ~workload:
      (Workload.map_workload_sharded ~read_pct:20 ~multi_pct:20 ~cross_pct:25 ~nshards:4
         ~key_range:4096 ~prefill_n:1024)
    ~bare:(Bare.prep_sharded ~log_size:4096 ~flit:true ~shards:4 ~epsilon:64 ())
    ~bench:(Bench.sharded ~log_size:4096 ~epsilon:64 ~flit:true ~shards:4);
  open_loop ();
  if !failures > 0 then exit 1
