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
        (Hm.of_config
           (Prep.Config.make ~log_size:4096 ~dist_rw:true
              ~mode:Prep.Config.Buffered ~epsilon:512 ~workers:1 ()))
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
        Hm.of_config
          (Prep.Config.make ~flit:true ~lsm_ckpt:true
             ~mode:Prep.Config.Durable ~epsilon:64 ~workers:1 ()) );
      ( "PREP-Buffered/dist+mir+pol",
        Hm.of_config
          (Prep.Config.make ~dist_rw:true ~log_mirror:true
             ~persist_policy:(Nvm.Persist.default ())
             ~mode:Prep.Config.Buffered ~epsilon:64 ~workers:1 ()) );
      ( "PREP-Durable/det",
        Hm.of_config
          (Prep.Config.make ~detect:true ~mode:Prep.Config.Durable
             ~epsilon:64 ~workers:1 ()) );
      ("PREP-Durable/x4", Hm.prep_sharded ~flit:true ~shards:4 ~epsilon:64 ());
      ( "PREP-Durable/x4+lsm",
        Hm.of_config
          (Prep.Config.make ~lsm_ckpt:true ~mode:Prep.Config.Durable ~shards:4
             ~epsilon:64 ~workers:1 ()) );
      ("PREP-Durable/x1", Hm.prep_sharded ~shards:1 ~epsilon:64 ());
      ( "PREP-Durable/x4",
        Hm.of_config
          (Prep.Config.make ~mode:Prep.Config.Durable ~dist_rw:true
             ~log_mirror:true ~shards:4 ~workers:1 ()) );
    ]

let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/prep_cli.exe"

(* Run [prep_cli args]; its exit code, stdout and stderr. *)
let run_cli args =
  let out = Filename.temp_file "cli" ".out" and err = Filename.temp_file "cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args
         (Filename.quote out) (Filename.quote err))
  in
  let read f = In_channel.with_open_text f In_channel.input_all in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* The [--flag]s a text names, sorted and without repeats. *)
let long_flags text =
  let n = String.length text in
  let flag_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' in
  let rec go i acc =
    if i + 2 >= n then List.sort_uniq compare acc
    else if text.[i] = '-' && text.[i + 1] = '-' && text.[i + 2] >= 'a'
            && text.[i + 2] <= 'z' && (i = 0 || text.[i - 1] <> '-')
    then begin
      let j = ref (i + 2) in
      while !j < n && flag_char text.[!j] do incr j done;
      go !j (String.sub text i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let help_flags sub =
  let code, help, _ = run_cli (sub ^ " --help=plain") in
  check ("help of " ^ sub) 0 code;
  long_flags help

module Feature = Prep.Config.Feature

(* The CLI refuses exactly what [Config.validate] refuses: every subset of
   the feature table's switches that [run] takes, with and without
   sharding, on every PREP mode and one non-PREP system, which takes no
   feature flag at all. An accepted run's first line names the system
   [Systems.of_config] names. *)
let test_cli_refuses_what_config_refuses () =
  let switches =
    List.filter_map
      (fun (f : Feature.t) ->
        match f.value with
        | Feature.Flag set when List.mem "run" f.subcommands ->
          Some (Feature.flag f, set)
        | Feature.Flag _ | Feature.Int _ | Feature.Spec _ -> None)
      Feature.all
  in
  let beta = Sim.Topology.default.Sim.Topology.cores_per_socket in
  for mask = 0 to (1 lsl List.length switches) - 1 do
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
                  List.fold_left
                    (fun cfg (i, (_, set)) -> set cfg (on i))
                    (Prep.Config.make ~mode ~log_size:16384 ~epsilon:1024
                       ~shards ~workers:2 ())
                    (List.mapi (fun i s -> (i, s)) switches)
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
                      (List.map (fun (f, _) -> " " ^ f) switches)))
            in
            let code, out, _ = run_cli args in
            let first = List.hd (String.split_on_char '\n' out) in
            match want with
            | None -> check ("usage error from " ^ args) 124 code
            | Some name ->
              check ("exit code of " ^ args) 0 code;
              check_bool
                (Printf.sprintf "%s: first line %S names %s" args first name)
                true
                (String.starts_with ~prefix:(name ^ " | ") first))
          [ ("prep-v", Some Prep.Config.Volatile);
            ("prep-buffered", Some Prep.Config.Buffered);
            ("prep-durable", Some Prep.Config.Durable); ("gl", None) ])
      [ 1; 2 ]
  done

(* A repro names only flags its checker takes: with every table entry on
   and a planted fault, each flag [Config.to_flags] renders is an option
   of [fuzz] and of [explore]. *)
let test_repro_flags_are_checker_options () =
  let cfg =
    List.fold_left
      (fun cfg (f : Feature.t) ->
        match f.value with
        | Feature.Flag set -> set cfg true
        | Feature.Int { get; set; _ } -> set cfg (get cfg + 1)
        | Feature.Spec { load; _ } ->
          Result.get_ok (load cfg "log.fence_payload=defer-to-next-fence"))
      { Prep.Config.default with fault = Prep.Config.Early_boundary_advance }
      Feature.all
  in
  let rendered = long_flags (Prep.Config.to_flags cfg) in
  check "every entry and the fault rendered" (List.length Feature.all + 1)
    (List.length rendered);
  List.iter
    (fun sub ->
      let options = help_flags sub in
      List.iter
        (fun flag ->
          check_bool (Printf.sprintf "%s takes %s" sub flag) true
            (List.mem flag options))
        rendered)
    [ "fuzz"; "explore" ]

(* A refusal names only flags its subcommand takes: every subcommand with
   a [--fault], given every fault name on a tiny scope, either runs or
   is refused with a message whose [--flag]s are all in its help. *)
let test_fault_refusals_name_own_flags () =
  let _, top, _ = run_cli "--help=plain" in
  (* the COMMANDS section lists each subcommand as "       NAME [OPTION]…" *)
  let rec commands in_section = function
    | [] -> []
    | line :: rest when String.trim line = "COMMANDS" -> commands true rest
    | line :: _ when in_section && line <> "" && line.[0] <> ' ' -> []
    | line :: rest -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ sub; "[OPTION]…" ] when in_section -> sub :: commands true rest
      | _ -> commands in_section rest)
  in
  let subs =
    commands false (String.split_on_char '\n' top)
    |> List.filter (fun sub -> List.mem "--fault" (help_flags sub))
  in
  check_bool "fuzz, explore and session take --fault" true
    (List.for_all (fun s -> List.mem s subs) [ "fuzz"; "explore"; "session" ]);
  let tiny = function
    | "fuzz" -> " --iters 1 --ops 2 --threads 1"
    | "explore" -> " --threads 1 --ops 1 --max-schedules 1"
    | "session" -> " --threads 1 --ops 1 --crashes 0"
    | _ -> ""
  in
  List.iter
    (fun sub ->
      let options = help_flags sub in
      List.iter
        (fun (p : Prep.Config.Fault.t) ->
          let args = Printf.sprintf "%s --fault %s%s" sub p.name (tiny sub) in
          let code, _, err = run_cli args in
          (* a fault without the feature it needs is refused, by
             [Config.validate] or, where [sub] lacks the feature, the enum *)
          if p.needs <> None then check ("usage error from " ^ args) 124 code;
          List.iter
            (fun flag ->
              check_bool
                (Printf.sprintf "%s: stderr names %s, an option of %s" args flag sub)
                true (List.mem flag options))
            (long_flags err))
        Prep.Config.Fault.all)
    subs

(* An out-of-range workload value is a usage error that names its flag,
   before anything is simulated. *)
let test_workload_usage_error (args, flag) () =
  let code, _, err = run_cli args in
  check ("exit code of " ^ args) 124 code;
  check_bool
    (Printf.sprintf "%s: stderr %S names %s" args err flag)
    true
    (let quoted = "'" ^ flag ^ "'" and n = String.length flag + 2 in
     let rec go i =
       i + n <= String.length err && (String.sub err i n = quoted || go (i + 1))
     in
     go 0)

let bad_workload_values =
  [ ("run --threads 24", "--threads"); ("profile --threads 30", "--threads");
    ("serve-sim --threads 24", "--threads");
    ("run --system gl --threads 0", "--threads"); ("run --keys 0", "--keys");
    ("run --read-pct 150", "--read-pct"); ("run --duration 1", "--duration");
    ("run --duration 10", "--duration"); ("run --duration 999", "--duration") ]

(* The shortest [--duration] [run] takes runs on every system. *)
let test_duration_floor_runs_everywhere () =
  List.iter
    (fun system ->
      let args = "run --duration 1000 --system " ^ system in
      let code, _, err = run_cli args in
      check (Printf.sprintf "exit code of %s\n%s" args err) 0 code)
    [ "gl"; "prep-v"; "prep-buffered"; "prep-durable"; "cx"; "soft-1k"; "soft-10k" ]

(* A prefill whose simulated build outlasts 1,000 x (warmup + window) is
   not a wedge. Both runs below spend longer than that in their 20k-key
   prefill alone (the CLI run 42.6 ms against a 24 ms horizon). Set-up
   runs on the epoch's only fiber, so the driver first looks at the clock
   after set-up has returned and counts the horizon from there; the
   open-loop runner shares the driver. *)
let test_horizon_starts_after_set_up () =
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

(* A system whose operations never return: each runner must give up at
   its horizon (1,000 x a 2 us window) with its wedge failure instead of
   spinning on. *)
let stuck =
  {
    Experiment.sys_name = "stuck";
    duration_factor = 1;
    make =
      (fun _ _ ~workers:_ ~prefill:_ ->
        {
          Experiment.register = ignore;
          exec =
            (fun ~op:_ ~args:_ ->
              while true do
                Sim.tick 1_000
              done;
              0);
          exec_batch = None;
          teardown = ignore;
          sample = ignore;
        });
  }

let stuck_workload =
  Workload.map_workload ~read_pct:50 ~key_range:16 ~prefill_n:0

let test_experiment_wedge () =
  Alcotest.check_raises "closed loop"
    (Failure "Experiment.run: system wedged: stuck") (fun () ->
      ignore
        (Experiment.run ~topology:small_topology ~duration_ns:1_000
           ~warmup_ns:1_000 ~system:stuck ~workload:stuck_workload ~workers:2
           ()))

let test_openloop_wedge () =
  Alcotest.check_raises "open loop"
    (Failure "Openloop.run: system wedged: stuck") (fun () ->
      ignore
        (Openloop.run ~topology:small_topology ~duration_ns:1_000
           ~warmup_ns:1_000 ~system:stuck ~workload:stuck_workload
           ~arrival:(Workload.Arrival.Poisson { rate = 1e9 })
           ~workers:2 ()))

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
          Alcotest.test_case "repro flags are checker options" `Quick
            test_repro_flags_are_checker_options;
          Alcotest.test_case "fault refusals name only their own flags" `Slow
            test_fault_refusals_name_own_flags;
          Alcotest.test_case "duration floor runs on every system" `Quick
            test_duration_floor_runs_everywhere;
          Alcotest.test_case "wedge horizon starts after set-up" `Quick
            test_horizon_starts_after_set_up;
          Alcotest.test_case "closed-loop wedge fails the run" `Quick
            test_experiment_wedge;
          Alcotest.test_case "open-loop wedge fails the run" `Quick
            test_openloop_wedge;
        ] );
      ( "usage-errors",
        List.map
          (fun ((args, _) as bad) ->
            Alcotest.test_case args `Quick (test_workload_usage_error bad))
          bad_workload_values );
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
