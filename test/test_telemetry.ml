(* Tests for the telemetry layer: registry semantics (counters,
   histograms, span nesting and self-time), the JSON parser and artifact
   validators, Chrome-trace export round-trips, and — most importantly —
   the zero-divergence invariant: enabling telemetry must not change the
   behaviour of a run, down to crash-point-fuzzing outcomes. *)

open Telemetry
module R = Registry

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---- registry: counters ---- *)

let test_counters () =
  let reg = R.create () in
  R.add_to reg "a" 3;
  R.add_to reg "a" 4;
  R.add_to reg "b" 1;
  let snap = R.snapshot reg in
  check "a sums" 7 (R.find_counter snap "a");
  check "b" 1 (R.find_counter snap "b");
  check "absent is 0" 0 (R.find_counter snap "zzz");
  check_bool "sorted by name" true
    (snap.R.sn_counters = List.sort compare snap.R.sn_counters)

let test_cur_add_without_ambient_registry () =
  (* must be a silent no-op, not a crash: this is the default path *)
  R.set_current None;
  R.cur_add "x" 1;
  R.cur_instant "y";
  check_bool "no ambient registry" true (R.current () = None)

let test_with_current_restores () =
  let reg = R.create () in
  R.set_current None;
  let r =
    R.with_current reg (fun () ->
        R.cur_add "inside" 5;
        17)
  in
  check "result threaded" 17 r;
  check_bool "restored" true (R.current () = None);
  check "recorded while installed" 5 (R.find_counter (R.snapshot reg) "inside")

(* ---- registry: histograms ---- *)

let test_histogram_stats () =
  let reg = R.create () in
  let h = R.histogram reg "lat" in
  for v = 1 to 100 do
    R.observe h v
  done;
  let snap = R.snapshot reg in
  let st = List.assoc "lat" snap.R.sn_hists in
  check "n" 100 st.R.hs_n;
  check "sum" 5050 st.R.hs_sum;
  check "min" 1 st.R.hs_min;
  check "max" 100 st.R.hs_max;
  (* log2 buckets: 1..63 fill buckets 1..6 (63 values), so the 50th
     value lands in bucket 6, whose geometric representative is 48; the
     95th and 99th land in bucket 7 (rep 96) *)
  check "p50" 48 st.R.hs_p50;
  check "p95" 96 st.R.hs_p95;
  check "p99" 96 st.R.hs_p99;
  check_bool "ordered" true (st.R.hs_p50 <= st.R.hs_p95 && st.R.hs_p95 <= st.R.hs_p99)

let test_histogram_single_value_is_exact () =
  let reg = R.create () in
  let h = R.histogram reg "one" in
  R.observe h 100;
  let st = List.assoc "one" (R.snapshot reg).R.sn_hists in
  check "p50 clamped to the one value" 100 st.R.hs_p50;
  check "p99 clamped to the one value" 100 st.R.hs_p99

(* ---- registry: spans on the simulated clock ---- *)

let span_roundtrip () =
  Sim.run_one (fun () ->
      let reg = R.create () in
      let outer = R.span reg "outer" and inner = R.span reg "inner" in
      R.span_enter reg outer;
      Sim.tick 100;
      R.span_enter reg inner;
      Sim.tick 50;
      R.span_exit reg inner;
      Sim.tick 25;
      R.span_exit reg outer;
      R.snapshot reg)

let test_span_nesting_self_time () =
  let snap = span_roundtrip () in
  let outer = List.assoc "outer" snap.R.sn_spans in
  let inner = List.assoc "inner" snap.R.sn_spans in
  check "outer inclusive" 175 outer.R.ss_stats.R.hs_sum;
  check "outer self excludes inner" 125 outer.R.ss_self;
  check "inner inclusive" 50 inner.R.ss_stats.R.hs_sum;
  check "inner self" 50 inner.R.ss_self;
  (* every covered nanosecond is attributed to exactly one span *)
  check "self times sum to covered time" snap.R.sn_covered
    (outer.R.ss_self + inner.R.ss_self);
  check "track extent equals outer span" 175 snap.R.sn_track_extent;
  check "one track" 1 snap.R.sn_tracks

let test_with_span_exception_safe () =
  Sim.run_one (fun () ->
      let reg = R.create () in
      let sp = R.span reg "risky" in
      (try R.with_span reg sp (fun () -> Sim.tick 10; failwith "boom")
       with Failure _ -> ());
      (* the frame must have been popped: a fresh span still nests cleanly *)
      R.with_span reg sp (fun () -> Sim.tick 5);
      let st = (List.assoc "risky" (R.snapshot reg).R.sn_spans).R.ss_stats in
      check "both entries recorded" 2 st.R.hs_n;
      check "durations recorded" 15 st.R.hs_sum)

let test_unbalanced_exit_ignored () =
  Sim.run_one (fun () ->
      let reg = R.create () in
      let sp = R.span reg "never-entered" in
      R.span_exit reg sp; (* must not raise or corrupt the stack *)
      let other = R.span reg "real" in
      R.with_span reg other (fun () -> Sim.tick 7);
      check "real span intact" 7
        (List.assoc "real" (R.snapshot reg).R.sn_spans).R.ss_stats.R.hs_sum)

(* ---- JSON parser ---- *)

let test_json_parse_basics () =
  match Json.parse {|{"a": [1, 2.5, "x\ny"], "b": true, "c": null}|} with
  | Json.Obj kvs ->
    (match List.assoc "a" kvs with
     | Json.List [ Json.Num one; Json.Num _; Json.Str s ] ->
       check "int" 1 (int_of_float one);
       check_str "escape" "x\ny" s
     | _ -> Alcotest.fail "list shape");
    check_bool "bool" true (List.assoc "b" kvs = Json.Bool true);
    check_bool "null" true (List.assoc "c" kvs = Json.Null)
  | _ -> Alcotest.fail "object expected"

let test_json_parse_errors () =
  let bad s =
    match Json.parse_result s with Ok _ -> false | Error _ -> true
  in
  check_bool "trailing garbage" true (bad "{} x");
  check_bool "unterminated string" true (bad {|{"a": "bc|});
  check_bool "missing colon" true (bad {|{"a" 1}|});
  check_bool "empty input" true (bad "");
  check_bool "empty containers fine" true
    (Json.parse_result {|{"a": [], "b": {}}|} = Ok (Json.Obj [ ("a", Json.List []); ("b", Json.Obj []) ]))

let test_validate_trace () =
  let ok =
    {|{"schema_version": 2, "traceEvents": [
        {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1, "args": {"name": "w"}},
        {"ph": "X", "name": "combine", "pid": 0, "tid": 1, "ts": 1.5, "dur": 2.0},
        {"ph": "i", "name": "crash", "pid": 0, "tid": 1, "ts": 4.0, "s": "t"}]}|}
  in
  check_bool "valid trace accepted" true
    (Json.validate_string Json.validate_trace ok = Ok ());
  let invalid s = Json.validate_string Json.validate_trace s <> Ok () in
  check_bool "missing schema_version" true
    (invalid {|{"traceEvents": [{"ph": "M", "name": "n"}]}|});
  check_bool "empty traceEvents" true
    (invalid {|{"schema_version": 2, "traceEvents": []}|});
  check_bool "X without dur" true
    (invalid
       {|{"schema_version": 2, "traceEvents": [
           {"ph": "X", "name": "n", "pid": 0, "tid": 1, "ts": 1.0}]}|});
  check_bool "unknown ph" true
    (invalid {|{"schema_version": 2, "traceEvents": [{"ph": "Q", "name": "n"}]}|})

let test_validate_bench () =
  let result =
    {|{"system": "S", "workload": "w", "workers": 1, "ops": 2,
       "duration_ns": 3, "throughput": 4.0, "wbinvd": 0, "clwb": 0,
       "clwb_elided": 0, "clwb_coalesced": 0, "clflush": 0,
       "clflush_elided": 0, "sfence": 0, "sfence_elided": 0,
       "bg_flushes": 0, "counters": {"k": 1}}|}
  in
  let doc =
    Printf.sprintf
      {|{"schema_version": 2, "nested": {"points": [{"baseline": %s}]}}|}
      result
  in
  check_bool "valid bench accepted" true
    (Json.validate_string Json.validate_bench doc = Ok ());
  (* a result object lacking required keys must be rejected, even nested *)
  let broken =
    Printf.sprintf
      {|{"schema_version": 2, "points": [{"system": "S", "counters": {}}]}|}
  in
  check_bool "result missing keys rejected" true
    (Json.validate_string Json.validate_bench broken <> Ok ());
  check_bool "wrong schema_version rejected" true
    (Json.validate_string Json.validate_bench {|{"schema_version": 99}|}
     <> Ok ())

(* ---- trace export ---- *)

let tracing_registry_with_activity () =
  Sim.run_one (fun () ->
      let reg = R.create ~tracing:true () in
      R.name_track reg 0 "main-fiber";
      let a = R.span reg "combine" and b = R.span reg "persist" in
      R.with_span reg a (fun () ->
          Sim.tick 120;
          R.with_span reg b (fun () -> Sim.tick 80));
      R.instant reg "crash";
      reg)

let test_trace_export_roundtrip () =
  let reg = tracing_registry_with_activity () in
  check_bool "events captured" true (R.n_events reg >= 3);
  let s = Trace_export.to_string reg in
  (match Json.validate_string Json.validate_trace s with
   | Ok () -> ()
   | Error errs -> Alcotest.fail (String.concat "; " errs));
  (* the span and instant names survive the round-trip *)
  let v = Json.parse s in
  match Json.member "traceEvents" v with
  | Some (Json.List evs) ->
    let names =
      List.filter_map
        (fun e ->
          match Json.member "name" e with Some (Json.Str n) -> Some n | _ -> None)
        evs
    in
    check_bool "combine exported" true (List.mem "combine" names);
    check_bool "persist exported" true (List.mem "persist" names);
    check_bool "instant exported" true (List.mem "crash" names);
    check_bool "track name exported" true (List.mem "thread_name" names)
  | _ -> Alcotest.fail "no traceEvents"

let test_trace_write_validates () =
  let reg = tracing_registry_with_activity () in
  let path = Filename.temp_file "prep-trace" ".json" in
  (match Trace_export.write reg path with
   | Ok () -> ()
   | Error errs -> Alcotest.fail (String.concat "; " errs));
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check_bool "file content validates" true
    (Json.validate_string Json.validate_trace s = Ok ())

let test_untraced_registry_has_no_events () =
  let reg =
    Sim.run_one (fun () ->
        let reg = R.create () in
        let a = R.span reg "combine" in
        R.with_span reg a (fun () -> Sim.tick 10);
        reg)
  in
  check "no events without tracing" 0 (R.n_events reg)

(* ---- zero-divergence: telemetry on vs off ---- *)

open Harness
module Hm = Experiment.Systems (Seqds.Hashmap)

let small_topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }

let run_point ?telemetry () =
  Experiment.run ?telemetry ~seed:90L ~topology:small_topology
    ~duration_ns:400_000 ~warmup_ns:50_000
    ~system:
      (Hm.of_config
         (Prep.Config.make ~log_size:4096 ~flit:true ~dist_rw:true
            ~log_mirror:true ~mode:Prep.Config.Durable ~epsilon:256 ~workers:1
            ()))
    ~workload:(Workload.map_workload ~read_pct:50 ~key_range:512 ~prefill_n:128)
    ~workers:5 ()

let test_experiment_same_with_telemetry () =
  let off = run_point () in
  let on = run_point ~telemetry:(R.create ~tracing:true ()) () in
  check "same ops" off.Experiment.ops on.Experiment.ops;
  check "same clwb" off.Experiment.clwb on.Experiment.clwb;
  check "same clflush" off.Experiment.clflush on.Experiment.clflush;
  check "same sfence" off.Experiment.sfence on.Experiment.sfence;
  check "same elisions" off.Experiment.clwb_elided on.Experiment.clwb_elided;
  Alcotest.(check (list (pair string int)))
    "same legacy counters"
    (Experiment.counters off) (Experiment.counters on)

let test_experiment_phase_coverage () =
  (* acceptance: the phase breakdown's total must be within 5% of the
     wall fiber time — no simulated time escapes the instrumentation *)
  let r = run_point ~telemetry:(R.create ()) () in
  let snap = r.Experiment.telemetry in
  let total = Profile.phase_total snap in
  let wall = snap.R.sn_track_extent in
  check_bool "spans recorded" true (total > 0);
  check_bool
    (Printf.sprintf "phase total %d within 5%% of wall %d" total wall)
    true
    (float_of_int (abs (total - wall)) <= 0.05 *. float_of_int wall);
  (* and the rendering mentions all four core phases *)
  let contains s sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  let rendered = Profile.render snap in
  List.iter
    (fun phase -> check_bool (phase ^ " in profile") true (contains rendered phase))
    Prep.Phases.phase_names

(* ---- zero-divergence: differential crash-point fuzzing ---- *)

module F = Check.Fuzz.Make (Seqds.Hashmap)

let gen_op rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (Seqds.Hashmap.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (Seqds.Hashmap.op_remove, [| k |])
  | 6 | 7 | 8 -> (Seqds.Hashmap.op_get, [| k |])
  | _ -> (Seqds.Hashmap.op_size, [||])

let episode crash =
  {
    Check.Fuzz.workload_seed = 7;
    threads = 4;
    epsilon = 16;
    log_size = 256;
    ops_per_worker = 60;
    bg_period = 2000;
    preempt_prob = 0.02;
    crash;
  }

let outcome_tuple (o : Check.Fuzz.outcome) =
  ( o.Check.Fuzz.crashed,
    o.Check.Fuzz.vacuous,
    o.Check.Fuzz.logged,
    o.Check.Fuzz.completed,
    o.Check.Fuzz.applied,
    o.Check.Fuzz.runtime_ops,
    o.Check.Fuzz.end_time,
    List.length o.Check.Fuzz.violations )

let test_fuzz_differential_telemetry_on_off () =
  let crash_points =
    [ Check.Fuzz.No_crash; Check.Fuzz.At_op 500; Check.Fuzz.At_op 2500;
      Check.Fuzz.At_time 300_000 ]
  in
  List.iter
    (fun crash ->
      let ep = episode crash in
      let run () =
        outcome_tuple
          (F.run_episode ~mode:Prep.Config.Durable ~fault:Prep.Config.No_fault
             ~gen_op ep)
      in
      R.set_current None;
      let off = run () in
      let reg = R.create ~tracing:true () in
      let on = R.with_current reg run in
      check_bool
        (Fmt.str "identical outcome for %a" Check.Fuzz.pp_episode ep)
        true (off = on);
      (* the instrumented run actually recorded something *)
      check_bool "telemetry saw the episode" true
        ((R.snapshot reg).R.sn_counters <> []))
    crash_points

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counters sum" `Quick test_counters;
          Alcotest.test_case "no ambient registry" `Quick
            test_cur_add_without_ambient_registry;
          Alcotest.test_case "with_current restores" `Quick
            test_with_current_restores;
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          Alcotest.test_case "single-value percentiles" `Quick
            test_histogram_single_value_is_exact;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and self-time" `Quick
            test_span_nesting_self_time;
          Alcotest.test_case "with_span exception-safe" `Quick
            test_with_span_exception_safe;
          Alcotest.test_case "unbalanced exit ignored" `Quick
            test_unbalanced_exit_ignored;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "validate trace" `Quick test_validate_trace;
          Alcotest.test_case "validate bench" `Quick test_validate_bench;
        ] );
      ( "trace-export",
        [
          Alcotest.test_case "roundtrip validates" `Quick
            test_trace_export_roundtrip;
          Alcotest.test_case "write self-validates" `Quick
            test_trace_write_validates;
          Alcotest.test_case "no events untraced" `Quick
            test_untraced_registry_has_no_events;
        ] );
      ( "zero-divergence",
        [
          Alcotest.test_case "experiment on/off identical" `Quick
            test_experiment_same_with_telemetry;
          Alcotest.test_case "phase coverage within 5%" `Quick
            test_experiment_phase_coverage;
          Alcotest.test_case "fuzz differential on/off" `Quick
            test_fuzz_differential_telemetry_on_off;
        ] );
    ]
