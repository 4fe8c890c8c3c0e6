(* Tests for the workload generators and the experiment runner, plus
   liveness tests (tiny log, cross-socket laggards) and crash-recovery of
   every lifted data structure (the functor must be DS-agnostic). *)

open Nvm
open Harness

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

(* ---- workloads ---- *)

let test_map_workload_mix () =
  let w = Workload.map_workload ~read_pct:90 ~key_range:1000 ~prefill_n:10 in
  let rng = Sim.Rng.create 1L in
  let reads = ref 0 and total = 10_000 in
  for i = 1 to total do
    let op, _ = w.Workload.next rng ~phase:i in
    if op = Seqds.Hashmap.op_get then incr reads
  done;
  let pct = 100 * !reads / total in
  check_bool (Printf.sprintf "read pct about 90 (got %d)" pct) true
    (pct >= 87 && pct <= 93)

let test_map_workload_prefill_distinct () =
  let w = Workload.map_workload ~read_pct:50 ~key_range:10_000 ~prefill_n:500 in
  let keys =
    List.filter_map
      (fun (op, args) ->
        if op = Seqds.Hashmap.op_insert then Some args.(0) else None)
      w.Workload.prefill
  in
  check "prefill count" 500 (List.length keys);
  check "distinct keys" 500 (List.length (List.sort_uniq compare keys))

let test_pair_workload_alternates () =
  let w = Workload.queue_pairs ~prefill_n:4 in
  let rng = Sim.Rng.create 2L in
  let op0, _ = w.Workload.next rng ~phase:0 in
  let op1, _ = w.Workload.next rng ~phase:1 in
  check "even phase enqueues" Seqds.Queue_ds.op_enqueue op0;
  check "odd phase dequeues" Seqds.Queue_ds.op_dequeue op1

(* ---- experiment runner ---- *)

module Hm = Experiment.Systems (Seqds.Hashmap)

let small_topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }

let test_experiment_produces_throughput () =
  let r =
    Experiment.run ~topology:small_topology ~duration_ns:500_000
      ~warmup_ns:100_000
      ~system:
        (Hm.prep ~log_size:4096 ~dist_rw:true ~mode:Prep.Config.Buffered
           ~epsilon:512 ())
      ~workload:(Workload.map_workload ~read_pct:90 ~key_range:512 ~prefill_n:256)
      ~workers:4 ()
  in
  check_bool "nonzero ops" true (r.Experiment.ops > 0);
  check_bool "throughput consistent" true
    (abs_float
       (r.Experiment.throughput
       -. (float_of_int r.Experiment.ops *. 1e9 /. float_of_int r.Experiment.duration_ns))
    < 1.0);
  (* the instance's counters are sampled into the result *)
  let counters = Experiment.counters r in
  check_bool "legacy counters present" true
    (List.mem_assoc "rw_read_acquires" counters);
  check_bool "read acquires sampled" true
    (List.assoc "rw_read_acquires" counters > 0)

let test_experiment_deterministic () =
  let go () =
    Experiment.run ~seed:42L ~topology:small_topology ~duration_ns:400_000
      ~warmup_ns:50_000
      ~system:(Hm.prep ~log_size:4096 ~mode:Prep.Config.Durable ~epsilon:256 ())
      ~workload:(Workload.map_workload ~read_pct:50 ~key_range:512 ~prefill_n:256)
      ~workers:6 ()
  in
  check "same ops both runs" (go ()).Experiment.ops (go ()).Experiment.ops

let test_experiment_rejects_last_core () =
  Alcotest.check_raises "last core reserved"
    (Invalid_argument "Experiment.run: last core is reserved") (fun () ->
      ignore
        (Experiment.run ~topology:small_topology
           ~system:Hm.global_lock
           ~workload:(Workload.map_workload ~read_pct:90 ~key_range:64 ~prefill_n:8)
           ~workers:8 ()))

let test_system_names () =
  (* the names every parent-era constructor produced, now derived once
     from the configuration *)
  List.iter
    (fun (want, (sys : Experiment.system)) ->
      Alcotest.(check string) want want sys.Experiment.sys_name)
    [
      ("PREP-V", Hm.prep ~mode:Prep.Config.Volatile ~epsilon:1 ());
      ( "PREP-Durable/flit+lsm",
        Hm.prep ~flit:true ~lsm_ckpt:true ~mode:Prep.Config.Durable
          ~epsilon:64 () );
      ( "PREP-Buffered/dist+mir+pol",
        Hm.prep ~dist_rw:true ~log_mirror:true
          ~persist_policy:(Nvm.Persist.default ()) ~mode:Prep.Config.Buffered
          ~epsilon:64 () );
      ("PREP-Durable/det", Hm.prep ~detect:true ~mode:Prep.Config.Durable ~epsilon:64 ());
      ("PREP-Durable/x4", Hm.prep_sharded ~flit:true ~shards:4 ~epsilon:64 ());
      ("PREP-Durable/x4+lsm", Hm.prep_sharded ~lsm_ckpt:true ~shards:4 ~epsilon:64 ());
      ("PREP-Durable/x1", Hm.prep_sharded ~shards:1 ~epsilon:64 ());
      ( "PREP-Durable/x4",
        Hm.of_config
          (Prep.Config.make ~mode:Prep.Config.Durable ~dist_rw:true
             ~log_mirror:true ~shards:4 ~workers:1 ()) );
    ]

(* The CLI refuses exactly what [Config.validate] refuses: every subset of
   the boolean feature flags, with and without sharding, on every PREP
   mode and one non-PREP system, which takes no feature flag at all. An
   accepted run's first line names the system [Systems.of_config] names. *)
let test_cli_refuses_what_config_refuses () =
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/prep_cli.exe"
  in
  let flags =
    [| "--flit"; "--dist-rw"; "--log-mirror"; "--detect"; "--lsm-ckpt" |]
  in
  let beta = Sim.Topology.default.Sim.Topology.cores_per_socket in
  let log = Filename.temp_file "cli_config" ".out" in
  for mask = 0 to (1 lsl Array.length flags) - 1 do
    let on i = mask land (1 lsl i) <> 0 in
    List.iter
      (fun shards ->
        List.iter
          (fun (system, mode) ->
            let want =
              match mode with
              | None -> if mask = 0 && shards = 1 then Some "GL" else None
              | Some mode -> (
                let cfg =
                  Prep.Config.make ~mode ~log_size:16384 ~epsilon:1024
                    ~flit:(on 0) ~dist_rw:(on 1) ~log_mirror:(on 2)
                    ~detect:(on 3) ~lsm_ckpt:(on 4) ~shards ~workers:2 ()
                in
                match Prep.Config.validate cfg ~beta with
                | () -> Some (Hm.of_config cfg).Experiment.sys_name
                | exception Invalid_argument _ -> None)
            in
            let args =
              Printf.sprintf
                "run --system %s --uc-shards %d --threads 2 --keys 256 \
                 --duration 20000%s"
                system shards
                (String.concat ""
                   (List.filteri (fun i _ -> on i)
                      (List.map (fun f -> " " ^ f) (Array.to_list flags))))
            in
            let code =
              Sys.command
                (Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote cli)
                   args (Filename.quote log))
            in
            let first =
              In_channel.with_open_text log In_channel.input_line
              |> Option.value ~default:""
            in
            match want with
            | None -> check ("usage error from " ^ args) 124 code
            | Some name ->
              check ("exit code of " ^ args) 0 code;
              let prefix = name ^ " | " in
              check_bool
                (Printf.sprintf "%s: first line %S names %s" args first name)
                true
                (String.length first >= String.length prefix
                && String.sub first 0 (String.length prefix) = prefix))
          [ ("prep-v", Some Prep.Config.Volatile);
            ("prep-buffered", Some Prep.Config.Buffered);
            ("prep-durable", Some Prep.Config.Durable); ("gl", None) ])
      [ 1; 2 ]
  done;
  Sys.remove log

(* The wedge horizon counts from the end of set-up: a prefill whose
   simulated build outlasts 1,000 x (warmup + window) is not a wedge. Both
   runs below spend longer than that in their 20k-key prefill alone; the
   open-loop runner shares the watchdog. *)
let test_horizon_starts_after_set_up () =
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/prep_cli.exe"
  in
  let out = Filename.temp_file "cli_horizon" ".out" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s run -s prep-durable --ds rbtree --keys 20000 --duration 20000 > \
          %s 2>&1"
         (Filename.quote cli) (Filename.quote out))
  in
  let first =
    In_channel.with_open_text out In_channel.input_line
    |> Option.value ~default:""
  in
  Sys.remove out;
  check ("exit code; first line " ^ first) 0 code;
  check_bool ("a result line: " ^ first) true
    (String.starts_with ~prefix:"PREP-Durable | " first);
  let module Rb = Experiment.Systems (Seqds.Rbtree) in
  let p =
    Openloop.run ~topology:small_topology ~duration_ns:20_000 ~warmup_ns:0
      ~system:(Rb.prep ~mode:Prep.Config.Durable ~epsilon:64 ())
      ~workload:
        (Workload.map_workload ~read_pct:90 ~key_range:40_000
           ~prefill_n:20_000)
      ~arrival:(Workload.Arrival.Poisson { rate = 1e6 })
      ~workers:2 ()
  in
  check_bool "open loop ran its window" true (p.Openloop.ol_duration_ns > 0)

(* ---- liveness: tiny log forces wraps and cross-socket helping ---- *)

module Uc = Prep.Prep_uc.Make (Seqds.Hashmap)
module H = Seqds.Hashmap

let run_liveness ~mode ~socket1_readonly =
  let sim = Sim.create ~seed:77L small_topology in
  let mem = Memory.make ~sockets:2 ~bg_period:10_000 () in
  let finished = ref 0 in
  let workers = 8 in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Roots.make mem in
         (* log of 64 entries with beta = 4: wraps constantly *)
         let cfg =
           Prep.Config.make ~mode ~log_size:64 ~epsilon:16 ~workers ()
         in
         let uc = Uc.create ~prefill:[ (H.op_insert, [| 1; 1 |]) ] mem roots cfg in
         Uc.start_persistence uc;
         for w = 0 to workers - 1 do
           let socket, core = Sim.Topology.place small_topology w in
           Sim.spawn_here ~socket ~core (fun () ->
               Uc.register_worker uc;
               let rng = Sim.fiber_rng () in
               for _ = 1 to 150 do
                 let k = Sim.Rng.int rng 32 in
                 if socket = 1 && socket1_readonly then
                   ignore (Uc.execute uc ~op:H.op_get ~args:[| k |])
                 else
                   ignore (Uc.execute uc ~op:H.op_insert ~args:[| k; 1 |])
               done;
               incr finished)
         done;
         while !finished < workers do
           Sim.tick 50_000
         done;
         Uc.stop uc));
  (* A wedged system would hit the horizon; completion proves liveness. *)
  match Sim.run ~until:2_000_000_000 sim () with
  | `Done -> check "all workers finished" workers !finished
  | `Cut _ -> Alcotest.fail "system wedged (liveness violation)"

let test_liveness_tiny_log_all_updates () =
  run_liveness ~mode:Prep.Config.Buffered ~socket1_readonly:false

let test_liveness_readonly_socket () =
  (* socket 1 only reads: its replica advances via the reader-combiner
     path, so log reuse (logMin) must still make progress *)
  run_liveness ~mode:Prep.Config.Buffered ~socket1_readonly:true

let test_liveness_durable_tiny_log () =
  run_liveness ~mode:Prep.Config.Durable ~socket1_readonly:false

(* ---- crash-recovery across every lifted data structure ---- *)

let recovery_roundtrip (type h)
    (module Ds : Seqds.Ds_intf.S with type handle = h) ~gen_op ~seed () =
  let module U = Prep.Prep_uc.Make (Ds) in
  let sim = Sim.create ~seed small_topology in
  let mem = Memory.make ~sockets:2 ~bg_period:3000 () in
  let uc_ref = ref None in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Roots.make mem in
         let cfg =
           Prep.Config.make ~mode:Prep.Config.Durable ~log_size:256 ~epsilon:64
             ~workers:6 ()
         in
         let uc = U.create mem roots cfg in
         uc_ref := Some uc;
         U.start_persistence uc;
         for w = 0 to 5 do
           let socket, core = Sim.Topology.place small_topology w in
           Sim.spawn_here ~socket ~core (fun () ->
               U.register_worker uc;
               let rng = Sim.fiber_rng () in
               let phase = ref 0 in
               while true do
                 let op, args = gen_op rng ~phase:!phase in
                 incr phase;
                 ignore (U.execute uc ~op ~args)
               done)
         done));
  (match Sim.run ~until:1_500_000 sim () with
   | `Cut _ -> ()
   | `Done -> Alcotest.fail "ended before crash");
  let uc = Option.get !uc_ref in
  Memory.crash mem;
  Context.reset ();
  let sim2 = Sim.create ~seed:(Int64.add seed 1L) small_topology in
  let checked = ref false in
  ignore
    (Sim.spawn sim2 ~socket:0 (fun () ->
         let uc', report = U.recover uc in
         check (Ds.name ^ ": no completed op lost") 0
           report.Prep.Prep_uc.lost_completed;
         (* recovered state equals the model replay of the applied ops *)
         let model = ref Ds.Model.empty in
         List.iter
           (fun i ->
             let e = Prep.Trace.get (U.trace uc) i in
             model := fst (Ds.Model.apply !model ~op:e.Prep.Trace.op ~args:e.Prep.Trace.args))
           report.Prep.Prep_uc.applied;
         check_list
           (Ds.name ^ ": recovered state replays")
           (Ds.Model.snapshot !model) (U.snapshot uc');
         checked := true));
  (match Sim.run sim2 () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  check_bool "recovery ran" true !checked

let test_recovery_rbtree () =
  recovery_roundtrip
    (module Seqds.Rbtree)
    ~gen_op:(fun rng ~phase ->
      ignore phase;
      let k = Sim.Rng.int rng 64 in
      if Sim.Rng.bool rng then (Seqds.Rbtree.op_insert, [| k; Sim.Rng.int rng 100 |])
      else (Seqds.Rbtree.op_remove, [| k |]))
    ~seed:301L ()

let test_recovery_stack () =
  recovery_roundtrip
    (module Seqds.Stack_ds)
    ~gen_op:(fun rng ~phase ->
      if phase land 1 = 0 then (Seqds.Stack_ds.op_push, [| Sim.Rng.int rng 1000 |])
      else (Seqds.Stack_ds.op_pop, [||]))
    ~seed:302L ()

let test_recovery_queue () =
  recovery_roundtrip
    (module Seqds.Queue_ds)
    ~gen_op:(fun rng ~phase ->
      if phase land 1 = 0 then (Seqds.Queue_ds.op_enqueue, [| Sim.Rng.int rng 1000 |])
      else (Seqds.Queue_ds.op_dequeue, [||]))
    ~seed:303L ()

let test_recovery_pqueue () =
  recovery_roundtrip
    (module Seqds.Pqueue)
    ~gen_op:(fun rng ~phase ->
      if phase land 1 = 0 then (Seqds.Pqueue.op_enqueue, [| Sim.Rng.int rng 1000 |])
      else (Seqds.Pqueue.op_dequeue, [||]))
    ~seed:304L ()

let test_recovery_skiplist () =
  recovery_roundtrip
    (module Seqds.Skiplist)
    ~gen_op:(fun rng ~phase ->
      ignore phase;
      let k = Sim.Rng.int rng 64 in
      if Sim.Rng.bool rng then
        (Seqds.Skiplist.op_insert, [| k; Sim.Rng.int rng 100 |])
      else (Seqds.Skiplist.op_remove, [| k |]))
    ~seed:305L ()

(* ---- flush-strategy ablation correctness ---- *)

let test_flush_heap_strategy_recovers () =
  let sim = Sim.create ~seed:401L small_topology in
  let mem = Memory.make ~sockets:2 ~bg_period:3000 () in
  let uc_ref = ref None in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Roots.make mem in
         let cfg =
           Prep.Config.make ~mode:Prep.Config.Buffered ~log_size:256
             ~epsilon:32 ~flush:Prep.Config.Flush_heap ~workers:4 ()
         in
         let uc = Uc.create mem roots cfg in
         uc_ref := Some uc;
         Uc.start_persistence uc;
         for w = 0 to 3 do
           let socket, core = Sim.Topology.place small_topology w in
           Sim.spawn_here ~socket ~core (fun () ->
               Uc.register_worker uc;
               let rng = Sim.fiber_rng () in
               while true do
                 ignore
                   (Uc.execute uc ~op:H.op_insert
                      ~args:[| Sim.Rng.int rng 64; 1 |])
               done)
         done));
  (match Sim.run ~until:1_500_000 sim () with
   | `Cut _ -> ()
   | `Done -> Alcotest.fail "ended early");
  let uc = Option.get !uc_ref in
  Memory.crash mem;
  Context.reset ();
  let sim2 = Sim.create ~seed:402L small_topology in
  ignore
    (Sim.spawn sim2 ~socket:0 (fun () ->
         let _, report = Uc.recover uc in
         check_bool "prefix" true report.Prep.Prep_uc.contiguous_prefix;
         check_bool "bounded loss" true
           (report.Prep.Prep_uc.lost_completed <= 32 + 4 - 1)));
  match Sim.run sim2 () with
  | `Done -> ()
  | `Cut _ -> Alcotest.fail "cut"

let () =
  Alcotest.run "harness"
    [
      ( "workloads",
        [
          Alcotest.test_case "map mix ratio" `Quick test_map_workload_mix;
          Alcotest.test_case "prefill distinct" `Quick
            test_map_workload_prefill_distinct;
          Alcotest.test_case "pairs alternate" `Quick test_pair_workload_alternates;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "produces throughput" `Quick
            test_experiment_produces_throughput;
          Alcotest.test_case "deterministic" `Quick test_experiment_deterministic;
          Alcotest.test_case "rejects last core" `Quick
            test_experiment_rejects_last_core;
          Alcotest.test_case "system names" `Quick test_system_names;
          Alcotest.test_case "CLI refuses what Config refuses" `Slow
            test_cli_refuses_what_config_refuses;
          Alcotest.test_case "wedge horizon starts after set-up" `Quick
            test_horizon_starts_after_set_up;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "tiny log, all updates" `Quick
            test_liveness_tiny_log_all_updates;
          Alcotest.test_case "read-only socket" `Quick test_liveness_readonly_socket;
          Alcotest.test_case "durable tiny log" `Quick test_liveness_durable_tiny_log;
        ] );
      ( "recovery-per-ds",
        [
          Alcotest.test_case "rbtree" `Quick test_recovery_rbtree;
          Alcotest.test_case "stack" `Quick test_recovery_stack;
          Alcotest.test_case "queue" `Quick test_recovery_queue;
          Alcotest.test_case "pqueue" `Quick test_recovery_pqueue;
          Alcotest.test_case "skiplist" `Quick test_recovery_skiplist;
        ] );
      ( "flush-strategy",
        [
          Alcotest.test_case "heap flush recovers" `Quick
            test_flush_heap_strategy_recovers;
        ] );
    ]
