(* Deterministic budget of crash-point fuzzing: every PR explores crash
   points the seed tests never pinned down, with fixed seeds so CI cannot
   flake. Also validates that the harness has teeth — a deliberately
   broken variant must be caught and shrunk to a small repro — and that
   episodes are exactly reproducible (the shrinker and the printed repro
   commands depend on that). *)

open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module F = Check.Fuzz.Make (Seqds.Hashmap)

(* checker configuration with the given feature flags; the checkers set
   mode, fault, epsilon, log size and workers themselves *)
let cfg = Config.make ~workers:1

module H = Seqds.Hashmap

(* The planted instruction-removal fault: a policy that elides the
   completedTail CLFLUSH durable mode's zero-loss promise rests on. *)
let elide_ct_flush =
  Result.get_ok (Nvm.Persist.of_spec "prep.completed_tail=elide")

(* Same mix as the CLI fuzz workload: 60% updates over a small key range. *)
let gen_op rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (H.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (H.op_remove, [| k |])
  | 6 | 7 | 8 -> (H.op_get, [| k |])
  | _ -> (H.op_size, [||])

(* Every budget in this file is a deterministic count — [iters] episodes
   of [ops] operations per worker, under seed-derived schedules and
   crash points. Nothing loops on wall-clock time ([At_time] crash
   points are *simulated* nanoseconds, advanced by the deterministic
   scheduler), so a run's outcome and its cost are identical on every
   machine and CI never flakes on load. The bounded-exhaustive
   counterpart with the same property lives in test_explore.ml. *)
let template ~seed ~epsilon ~ops =
  {
    Check.Fuzz.workload_seed = seed;
    threads = 6;
    epsilon;
    log_size = 256;
    ops_per_worker = ops;
    bg_period = 2000;
    preempt_prob = 0.02;
    crash = Check.Fuzz.No_crash;
  }

let no_failures label (res : Check.Fuzz.result) =
  List.iter
    (fun { Check.Fuzz.episode; violations } ->
      Alcotest.failf "%s: %s failed: %s" label
        (Fmt.str "%a" Check.Fuzz.pp_episode episode)
        (String.concat "; "
           (List.map Check.Durable_lin.violation_to_string violations)))
    res.Check.Fuzz.failures

let test_fuzz_buffered () =
  let res =
    F.fuzz ~mode:Config.Buffered ~fault:Config.No_fault ~gen_op
      ~template:(template ~seed:4200 ~epsilon:16 ~ops:120)
      ~iters:10 ()
  in
  no_failures "buffered" res;
  check "episodes run" 10 res.Check.Fuzz.episodes;
  check_bool "crash points were explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_durable () =
  let res =
    F.fuzz ~mode:Config.Durable ~fault:Config.No_fault ~gen_op
      ~template:(template ~seed:5200 ~epsilon:16 ~ops:120)
      ~iters:10 ()
  in
  no_failures "durable" res;
  check_bool "crash points were explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_volatile () =
  (* volatile episodes never crash; the harness still checks quiescent
     state against the full-trace replay under randomized preemption *)
  let res =
    F.fuzz ~mode:Config.Volatile ~fault:Config.No_fault ~gen_op
      ~template:(template ~seed:6200 ~epsilon:16 ~ops:120)
      ~iters:4 ()
  in
  no_failures "volatile" res;
  check "no crashes in volatile mode" 0 res.Check.Fuzz.crashes

let test_episode_deterministic () =
  (* the same episode must produce bit-identical outcomes — repro commands
     and the shrinker rely on this *)
  let ep =
    { (template ~seed:777 ~epsilon:16 ~ops:100) with
      crash = Check.Fuzz.At_op 200_000 }
  in
  let run () = F.run_episode ~mode:Config.Buffered ~fault:Config.No_fault ~gen_op ep in
  let a = run () and b = run () in
  check_bool "crashed" true a.Check.Fuzz.crashed;
  check "same logged" a.Check.Fuzz.logged b.Check.Fuzz.logged;
  check "same completed" a.Check.Fuzz.completed b.Check.Fuzz.completed;
  check "same applied" a.Check.Fuzz.applied b.Check.Fuzz.applied;
  check "both clean" 0
    (List.length a.Check.Fuzz.violations + List.length b.Check.Fuzz.violations)

let test_crash_hook_cuts_at_op () =
  (* an op-index crash must actually cut the run short *)
  let quiescent =
    F.run_episode ~mode:Config.Buffered ~fault:Config.No_fault ~gen_op
      (template ~seed:888 ~epsilon:16 ~ops:100)
  in
  check_bool "baseline finishes" false quiescent.Check.Fuzz.crashed;
  let ep =
    { (template ~seed:888 ~epsilon:16 ~ops:100) with
      crash = Check.Fuzz.At_op (quiescent.Check.Fuzz.runtime_ops / 2) }
  in
  let out = F.run_episode ~mode:Config.Buffered ~fault:Config.No_fault ~gen_op ep in
  check_bool "crashed mid-run" true out.Check.Fuzz.crashed;
  check_bool "partial trace" true
    (out.Check.Fuzz.logged < quiescent.Check.Fuzz.logged);
  check "clean" 0 (List.length out.Check.Fuzz.violations)

let test_broken_variant_caught_and_shrunk () =
  (* the known-bad ordering (flush boundary advanced before the persist +
     swap) must be detected within a small budget and shrink to <= 4
     threads with a replayable repro *)
  let mode = Config.Buffered and fault = Config.Early_boundary_advance in
  let tpl = template ~seed:9000 ~epsilon:8 ~ops:120 in
  let res = F.fuzz ~mode ~fault ~gen_op ~template:tpl ~iters:8 () in
  check_bool "broken variant caught" true (res.Check.Fuzz.failures <> []);
  let first = List.hd res.Check.Fuzz.failures in
  check_bool "caught as a loss-bound violation" true
    (List.exists
       (function Check.Durable_lin.Loss_bound_exceeded _ -> true | _ -> false)
       first.Check.Fuzz.violations);
  let small = F.shrink ~mode ~fault ~gen_op first.Check.Fuzz.episode in
  check_bool
    (Fmt.str "shrunk to <= 4 threads (%a)" Check.Fuzz.pp_episode small)
    true
    (small.Check.Fuzz.threads <= 4);
  (* the shrunk episode, replayed from scratch, still reproduces *)
  let out = F.run_episode ~mode ~fault ~gen_op small in
  check_bool "shrunk repro still fails" true (out.Check.Fuzz.violations <> [])

let test_fixed_variant_passes_where_broken_fails () =
  (* same episodes, fault removed: the violations must disappear, pinning
     the failure on the injected bug rather than on the harness *)
  let tpl = template ~seed:9000 ~epsilon:8 ~ops:120 in
  let res =
    F.fuzz ~mode:Config.Buffered ~fault:Config.No_fault ~gen_op ~template:tpl
      ~iters:8 ()
  in
  no_failures "fixed variant" res

(* ---- differential fuzzing of the flush-elimination layer ---- *)

let test_fuzz_flit_differential () =
  (* same seeded crash-point budget with the flush-elimination layer off
     and on: the durable-linearizability checker must find the two
     variants indistinguishable (zero violations on both sides). The
     schedules themselves may diverge — elided flushes change simulated
     time — so the comparison is at the level of the checked guarantees,
     not raw traces. *)
  let tpl = template ~seed:5200 ~epsilon:16 ~ops:120 in
  let base =
    F.fuzz ~mode:Config.Durable ~fault:Config.No_fault ~gen_op ~template:tpl
      ~iters:10 ()
  in
  let flit =
    F.fuzz ~config:(cfg ~flit:true ())
      ~mode:Config.Durable ~fault:Config.No_fault ~gen_op
      ~template:tpl ~iters:10 ()
  in
  no_failures "baseline" base;
  no_failures "flit" flit;
  check "same episode budget" base.Check.Fuzz.episodes flit.Check.Fuzz.episodes;
  check_bool "flit crash points explored" true (flit.Check.Fuzz.crashes > 0);
  (* calibration: with one worker, no crash and no randomized preemption
     the op stream is a pure function of the seed (preemption draws from
     the scheduler rng on every tick, and flit changes the tick count, so
     it would shift the fiber rng seeding), so both variants must log and
     complete the exact same operations *)
  let calib =
    { tpl with
      Check.Fuzz.threads = 1;
      ops_per_worker = 80;
      preempt_prob = 0.0 }
  in
  let a = F.run_episode ~mode:Config.Durable ~fault:Config.No_fault ~gen_op calib in
  let b =
    F.run_episode ~config:(cfg ~flit:true ())
      ~mode:Config.Durable ~fault:Config.No_fault
      ~gen_op calib
  in
  check "calibration: same logged" a.Check.Fuzz.logged b.Check.Fuzz.logged;
  check "calibration: same completed" a.Check.Fuzz.completed
    b.Check.Fuzz.completed;
  check "calibration: same applied" a.Check.Fuzz.applied b.Check.Fuzz.applied

let test_fuzz_flit_buffered () =
  let res =
    F.fuzz ~config:(cfg ~flit:true ())
      ~mode:Config.Buffered ~fault:Config.No_fault ~gen_op
      ~template:(template ~seed:4200 ~epsilon:16 ~ops:120)
      ~iters:10 ()
  in
  no_failures "flit buffered" res;
  check_bool "crash points were explored" true (res.Check.Fuzz.crashes > 0)

let test_flit_elide_ct_flush_caught_and_shrunk () =
  (* the planted fault skips the completedTail flush that the flit
     combiner otherwise relies on the flush-tracking layer to elide
     safely; the fuzzer must catch the resulting post-crash loss of
     completed operations and shrink it to a small replayable repro *)
  let mode = Config.Durable and fault = Config.No_fault in
  let config = cfg ~flit:true ~persist_policy:elide_ct_flush () in
  let tpl = template ~seed:9100 ~epsilon:16 ~ops:120 in
  let res = F.fuzz ~config ~mode ~fault ~gen_op ~template:tpl ~iters:8 () in
  check_bool "planted fault caught" true (res.Check.Fuzz.failures <> []);
  let first = List.hd res.Check.Fuzz.failures in
  check_bool "caught as durable loss" true
    (List.exists
       (function
         | Check.Durable_lin.Loss_bound_exceeded _
         | Check.Durable_lin.Prefix_violation _ -> true
         | _ -> false)
       first.Check.Fuzz.violations);
  let small = F.shrink ~config ~mode ~fault ~gen_op first.Check.Fuzz.episode in
  check_bool
    (Fmt.str "shrunk to <= 4 threads (%a)" Check.Fuzz.pp_episode small)
    true
    (small.Check.Fuzz.threads <= 4);
  let out = F.run_episode ~config ~mode ~fault ~gen_op small in
  check_bool "shrunk repro still fails" true (out.Check.Fuzz.violations <> []);
  (* the printed repro must carry both the policy and the flit flag *)
  let cmd = Check.Fuzz.repro_command ~config ~mode ~fault ~ds:"hashmap" small in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "repro names the policy" true
    (contains cmd "--persist-policy \"prep.completed_tail=elide\"");
  check_bool "repro passes --flit" true (contains cmd "--flit")

let test_flit_fault_needs_flit_combiner () =
  (* without the flush-elimination layer the baseline combiner issues
     per-entry CLFLUSHes that also persist the log payloads, so the same
     fault still loses the completedTail but recovery replays the full
     durable log: the episodes that fail under flit must fail here too —
     the fault elides a flush the durable guarantee depends on in both
     combiners. Running it pins the fault's blast radius. *)
  let res =
    F.fuzz ~config:(cfg ~persist_policy:elide_ct_flush ())
      ~mode:Config.Durable ~fault:Config.No_fault ~gen_op
      ~template:(template ~seed:9100 ~epsilon:16 ~ops:120)
      ~iters:8 ()
  in
  check_bool "fault observable without flit too" true
    (res.Check.Fuzz.failures <> [])

(* ---- differential fuzzing of the NUMA hot-path package ----

   Same methodology as the flit campaigns: each optimisation gets the same
   seeded crash-point budget with the flag off and on, and the
   durable-linearizability checker must find the variants
   indistinguishable. Schedules diverge (the optimisations change the
   memory-op stream and so simulated time), so the comparison is at the
   level of the checked guarantees, plus a single-worker
   preemption-free calibration where the op streams are bit-identical. *)

let calibrate label tpl run_opt =
  let calib =
    { tpl with
      Check.Fuzz.threads = 1;
      ops_per_worker = 80;
      preempt_prob = 0.0 }
  in
  let a =
    F.run_episode ~mode:Config.Durable ~fault:Config.No_fault ~gen_op calib
  in
  let b = run_opt calib in
  check (label ^ ": same logged") a.Check.Fuzz.logged b.Check.Fuzz.logged;
  check (label ^ ": same completed") a.Check.Fuzz.completed
    b.Check.Fuzz.completed;
  check (label ^ ": same applied") a.Check.Fuzz.applied b.Check.Fuzz.applied

let test_fuzz_mirror_differential () =
  let tpl = template ~seed:5300 ~epsilon:16 ~ops:120 in
  let base =
    F.fuzz ~mode:Config.Durable ~fault:Config.No_fault ~gen_op ~template:tpl
      ~iters:10 ()
  in
  let mir =
    F.fuzz ~config:(cfg ~log_mirror:true ())
      ~mode:Config.Durable ~fault:Config.No_fault
      ~gen_op ~template:tpl ~iters:10 ()
  in
  no_failures "baseline" base;
  no_failures "log-mirror" mir;
  check "same episode budget" base.Check.Fuzz.episodes mir.Check.Fuzz.episodes;
  check_bool "mirror crash points explored" true (mir.Check.Fuzz.crashes > 0);
  calibrate "calibration" tpl
    (F.run_episode ~config:(cfg ~log_mirror:true ()) ~mode:Config.Durable
       ~fault:Config.No_fault ~gen_op)

let test_fuzz_dist_rw_differential () =
  let tpl = template ~seed:5400 ~epsilon:16 ~ops:120 in
  let base =
    F.fuzz ~mode:Config.Durable ~fault:Config.No_fault ~gen_op ~template:tpl
      ~iters:10 ()
  in
  let dist =
    F.fuzz ~config:(cfg ~dist_rw:true ())
      ~mode:Config.Durable ~fault:Config.No_fault ~gen_op
      ~template:tpl ~iters:10 ()
  in
  no_failures "baseline" base;
  no_failures "dist-rw" dist;
  check "same episode budget" base.Check.Fuzz.episodes dist.Check.Fuzz.episodes;
  check_bool "dist-rw crash points explored" true (dist.Check.Fuzz.crashes > 0);
  calibrate "calibration" tpl
    (F.run_episode ~config:(cfg ~dist_rw:true ())
      ~mode:Config.Durable ~fault:Config.No_fault
       ~gen_op)

let test_fuzz_package_differential () =
  (* the shipping configuration: everything on at once, over buffered mode
     as well so the epsilon+beta-1 loss bound is exercised too *)
  let tpl = template ~seed:5500 ~epsilon:16 ~ops:120 in
  List.iter
    (fun mode ->
      let res =
        F.fuzz
          ~config:
            (cfg ~flit:true ~dist_rw:true ~log_mirror:true ())
          ~mode ~fault:Config.No_fault ~gen_op ~template:tpl ~iters:10 ()
      in
      no_failures "package" res;
      check_bool "crash points explored" true (res.Check.Fuzz.crashes > 0))
    [ Config.Buffered; Config.Durable ];
  calibrate "calibration" tpl
    (F.run_episode
       ~config:
         (cfg ~flit:true ~dist_rw:true ~log_mirror:true ())
      ~mode:Config.Durable ~fault:Config.No_fault ~gen_op)

let test_mirror_read_recovery_caught_and_shrunk () =
  (* the planted fault serves recovery's log replay from the DRAM mirror —
     volatile, zeroed by the crash — so durably completed operations read
     as holes and are dropped; the fuzzer must catch the durable loss and
     shrink it to a replayable repro *)
  let mode = Config.Durable and fault = Config.Mirror_read_on_recovery in
  let tpl = template ~seed:9300 ~epsilon:16 ~ops:40 in
  let res =
    F.fuzz ~config:(cfg ~log_mirror:true ())
      ~mode ~fault ~gen_op ~template:tpl ~iters:8 ()
  in
  check_bool "planted fault caught" true (res.Check.Fuzz.failures <> []);
  let first = List.hd res.Check.Fuzz.failures in
  check_bool "caught as durable loss" true
    (List.exists
       (function
         | Check.Durable_lin.Loss_bound_exceeded _
         | Check.Durable_lin.Prefix_violation _
         | Check.Durable_lin.State_mismatch _ -> true
         | _ -> false)
       first.Check.Fuzz.violations);
  let small =
    F.shrink ~config:(cfg ~log_mirror:true ())
      ~mode ~fault ~gen_op first.Check.Fuzz.episode
  in
  check_bool
    (Fmt.str "shrunk to <= 4 threads (%a)" Check.Fuzz.pp_episode small)
    true
    (small.Check.Fuzz.threads <= 4);
  let out = F.run_episode ~config:(cfg ~log_mirror:true ())
    ~mode ~fault ~gen_op small in
  check_bool "shrunk repro still fails" true (out.Check.Fuzz.violations <> []);
  let cmd =
    Check.Fuzz.repro_command ~config:(cfg ~log_mirror:true ())
      ~mode ~fault ~ds:"hashmap" small
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "repro names the fault" true (contains cmd "mirror-read-recovery");
  check_bool "repro passes --log-mirror" true (contains cmd "--log-mirror")

let test_mirror_fault_inert_without_mirror () =
  (* without the mirror there is nothing volatile to read from: the fault
     flag must be a no-op, pinning the failure above on the mirror itself *)
  let res =
    F.fuzz ~mode:Config.Durable ~fault:Config.Mirror_read_on_recovery ~gen_op
      ~template:(template ~seed:9300 ~epsilon:16 ~ops:40)
      ~iters:8 ()
  in
  no_failures "fault without mirror" res

(* ---- detectability layer ----

   Same methodology again: the detect protocol (persistent announces,
   combiner-persisted responses) gets a seeded crash-point budget of its
   own, and its planted fault — responses reaching media before the log
   entries they answer for — must be caught and shrunk. *)

let test_fuzz_detect_clean () =
  let res =
    F.fuzz ~config:(cfg ~detect:true ())
      ~mode:Config.Durable ~fault:Config.No_fault ~gen_op
      ~template:(template ~seed:5600 ~epsilon:16 ~ops:120)
      ~iters:10 ()
  in
  no_failures "detect" res;
  check_bool "detect crash points explored" true (res.Check.Fuzz.crashes > 0)

let test_response_before_log_persist_caught_and_shrunk () =
  (* the planted fault persists responses eagerly (CLFLUSH to media) while
     leaving the log entries' write-backs unfenced: a crash in the window
     leaves a response promising seqno s with no durable log entry to back
     it, which recovery surfaces as a resolve mismatch (Completed claimed,
     op not applied) or as completed-op loss *)
  let mode = Config.Durable and fault = Config.Response_before_log_persist in
  let tpl = template ~seed:9400 ~epsilon:16 ~ops:60 in
  let res = F.fuzz ~config:(cfg ~detect:true ())
    ~mode ~fault ~gen_op ~template:tpl ~iters:8 () in
  check_bool "planted fault caught" true (res.Check.Fuzz.failures <> []);
  let first = List.hd res.Check.Fuzz.failures in
  check_bool "caught as resolve mismatch or durable loss" true
    (List.exists
       (function
         | Check.Durable_lin.Resolve_mismatch _
         | Check.Durable_lin.Loss_bound_exceeded _
         | Check.Durable_lin.Prefix_violation _ -> true
         | _ -> false)
       first.Check.Fuzz.violations);
  let small = F.shrink ~config:(cfg ~detect:true ())
    ~mode ~fault ~gen_op first.Check.Fuzz.episode in
  check_bool
    (Fmt.str "shrunk to <= 4 threads (%a)" Check.Fuzz.pp_episode small)
    true
    (small.Check.Fuzz.threads <= 4);
  let out = F.run_episode ~config:(cfg ~detect:true ())
    ~mode ~fault ~gen_op small in
  check_bool "shrunk repro still fails" true (out.Check.Fuzz.violations <> []);
  let cmd =
    Check.Fuzz.repro_command ~config:(cfg ~detect:true ())
      ~mode ~fault ~ds:"hashmap" small
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "repro names the fault" true
    (contains cmd "response-before-log-persist");
  check_bool "repro passes --detect" true (contains cmd "--detect")

(* Detectable execution over the incremental checkpoint: the one recovery
   spine reconciles responses during the lsm backend's replay too. *)
let test_fuzz_detect_lsm_clean () =
  let res =
    F.fuzz ~config:(cfg ~detect:true ~lsm_ckpt:true ())
      ~mode:Config.Durable ~fault:Config.No_fault ~gen_op
      ~template:(template ~seed:1 ~epsilon:16 ~ops:300)
      ~iters:30 ()
  in
  no_failures "detect + lsm" res;
  check_bool "detect + lsm crash points explored" true
    (res.Check.Fuzz.crashes > 0)

(* Under the planted fault the detect scan past the completedTail can take
   a stale-lap entry for a live one, so recovery applies log indexes the
   ghost trace never logged (the first failing episode of the seed-6
   campaign on both backends; the classic seed-5 campaign's first failure
   loses completed ops but applies no unlogged index). The checker
   must report that as a violation rather than raise from its model
   replay, and the shrunk repro must still fail. *)
let test_unlogged_applied_is_a_violation () =
  let mode = Config.Durable and fault = Config.Response_before_log_persist in
  List.iter
    (fun lsm_ckpt ->
      let config = cfg ~detect:true ~lsm_ckpt () in
      let label = if lsm_ckpt then "lsm" else "classic" in
      let res =
        F.fuzz ~config ~mode ~fault ~gen_op
          ~template:(template ~seed:6 ~epsilon:16 ~ops:300)
          ~iters:2 ()
      in
      let first =
        match res.Check.Fuzz.failures with
        | f :: _ -> f
        | [] -> Alcotest.failf "%s: planted fault not caught" label
      in
      check_bool (label ^ ": an unlogged index applied") true
        (List.exists
           (function Check.Durable_lin.Unlogged_applied _ -> true | _ -> false)
           first.Check.Fuzz.violations);
      let small =
        F.shrink ~config ~mode ~fault ~gen_op first.Check.Fuzz.episode
      in
      let out = F.run_episode ~config ~mode ~fault ~gen_op small in
      check_bool (label ^ ": shrunk repro still fails") true
        (out.Check.Fuzz.violations <> []))
    [ false; true ]

let test_response_fault_requires_detect () =
  (* without the detectability layer there are no response records to
     persist early: the config layer rejects the combination outright, so
     the fault can never masquerade as a baseline bug *)
  Alcotest.check_raises "config rejects fault without detect"
    (Invalid_argument
       "Config: response-before-log-persist fault only exists under --detect")
    (fun () ->
      Config.validate ~beta:4
        (Config.make ~mode:Config.Durable
           ~fault:Config.Response_before_log_persist ~workers:1 ()));
  Alcotest.check_raises "config rejects detect outside durable"
    (Invalid_argument
       "Config: detectable execution requires durable mode (a buffered \
        checkpoint cannot be gated on response persistence)")
    (fun () ->
      Config.validate ~beta:4
        (Config.make ~mode:Config.Buffered ~detect:true ~workers:1 ()))

(* A second data structure through the same harness: the fuzzing oracle is
   the pure model, so any Ds_intf.S implementation plugs in. *)
module Fq = Check.Fuzz.Make (Seqds.Queue_ds)

let queue_gen rng =
  if Sim.Rng.int rng 2 = 0 then
    (Seqds.Queue_ds.op_enqueue, [| Sim.Rng.int rng 1000 |])
  else (Seqds.Queue_ds.op_dequeue, [||])

let test_fuzz_queue_durable () =
  let res =
    Fq.fuzz ~mode:Config.Durable ~fault:Config.No_fault ~gen_op:queue_gen
      ~template:(template ~seed:7300 ~epsilon:16 ~ops:120)
      ~iters:6 ()
  in
  List.iter
    (fun { Check.Fuzz.episode; violations } ->
      Alcotest.failf "queue: %s failed: %s"
        (Fmt.str "%a" Check.Fuzz.pp_episode episode)
        (String.concat "; "
           (List.map Check.Durable_lin.violation_to_string violations)))
    res.Check.Fuzz.failures

(* ---- incremental (lsm) checkpointing ----

   The [--lsm-ckpt] backend replaces the whole-replica flush+swap with
   memtable seals into immutable segments under a fenced manifest.
   Behaviourally it must be invisible, so it gets the standard treatment:
   a differential crash-point budget against the classic checkpoint on
   every map implementation, and its planted fault — the manifest record
   published *before* the segments it names are sealed — must be caught
   and shrunk to a replayable repro that carries both flags. *)

module Frb = Check.Fuzz.Make (Seqds.Rbtree)
module Fsl = Check.Fuzz.Make (Seqds.Skiplist)

let test_fuzz_lsm_differential () =
  let tpl = template ~seed:5700 ~epsilon:8 ~ops:120 in
  let base =
    F.fuzz ~mode:Config.Durable ~fault:Config.No_fault ~gen_op ~template:tpl
      ~iters:8 ()
  in
  let lsm =
    F.fuzz ~config:(cfg ~lsm_ckpt:true ())
      ~mode:Config.Durable ~fault:Config.No_fault ~gen_op
      ~template:tpl ~iters:8 ()
  in
  no_failures "baseline" base;
  no_failures "lsm" lsm;
  check "same episode budget" base.Check.Fuzz.episodes lsm.Check.Fuzz.episodes;
  check_bool "lsm crash points explored" true (lsm.Check.Fuzz.crashes > 0);
  calibrate "calibration" tpl
    (F.run_episode ~config:(cfg ~lsm_ckpt:true ())
      ~mode:Config.Durable ~fault:Config.No_fault
       ~gen_op)

let test_fuzz_lsm_all_maps () =
  (* the dirty tracker keys on Ds.classify, so each map implementation's
     key_effect wiring is load-bearing; buffered mode rides along to cover
     the no-replay recovery path *)
  let tpl = template ~seed:5800 ~epsilon:8 ~ops:100 in
  let run label res =
    no_failures label res;
    check_bool (label ^ ": crash points explored") true
      (res.Check.Fuzz.crashes > 0)
  in
  run "lsm rbtree"
    (Frb.fuzz ~config:(cfg ~lsm_ckpt:true ())
      ~mode:Config.Durable ~fault:Config.No_fault
       ~gen_op ~template:tpl ~iters:6 ());
  run "lsm skiplist"
    (Fsl.fuzz ~config:(cfg ~lsm_ckpt:true ())
      ~mode:Config.Durable ~fault:Config.No_fault
       ~gen_op ~template:tpl ~iters:6 ());
  run "lsm buffered hashmap"
    (F.fuzz ~config:(cfg ~lsm_ckpt:true ())
      ~mode:Config.Buffered ~fault:Config.No_fault
       ~gen_op ~template:tpl ~iters:6 ())

let test_manifest_before_seal_caught_and_shrunk () =
  (* the planted fault names segment addresses in a durable manifest
     record before their bodies are sealed: a crash in the window mounts
     nothing at those addresses while sealed_lt already skips their log
     entries, so recovery silently loses sealed effects *)
  let mode = Config.Durable and fault = Config.Manifest_before_segment_seal in
  let tpl = template ~seed:9400 ~epsilon:8 ~ops:120 in
  let res = F.fuzz ~config:(cfg ~lsm_ckpt:true ())
    ~mode ~fault ~gen_op ~template:tpl ~iters:8 () in
  check_bool "planted fault caught" true (res.Check.Fuzz.failures <> []);
  let first = List.hd res.Check.Fuzz.failures in
  check_bool "caught as durable loss" true
    (List.exists
       (function
         | Check.Durable_lin.Loss_bound_exceeded _
         | Check.Durable_lin.Prefix_violation _
         | Check.Durable_lin.State_mismatch _ -> true
         | _ -> false)
       first.Check.Fuzz.violations);
  let small = F.shrink ~config:(cfg ~lsm_ckpt:true ())
    ~mode ~fault ~gen_op first.Check.Fuzz.episode in
  check_bool
    (Fmt.str "shrunk to <= 4 threads (%a)" Check.Fuzz.pp_episode small)
    true
    (small.Check.Fuzz.threads <= 4);
  let out = F.run_episode ~config:(cfg ~lsm_ckpt:true ())
    ~mode ~fault ~gen_op small in
  check_bool "shrunk repro still fails" true (out.Check.Fuzz.violations <> []);
  let cmd = Check.Fuzz.repro_command ~config:(cfg ~lsm_ckpt:true ())
    ~mode ~fault ~ds:"hashmap" small in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "repro names the fault" true (contains cmd "manifest-before-seal");
  check_bool "repro passes --lsm-ckpt" true (contains cmd "--lsm-ckpt")

(* A repro command is only useful if the CLI accepts it: run the printed
   command's arguments through the built [fuzz] subcommand and require
   that it replays the in-process episode exactly — a usage error (also
   exit 124) or a dropped flag shows up as a different outcome line. A
   non-default fanout covers the flag most likely to be missing: at this
   crash point, the default fanout logs 65 ops where fanout 2 logs 62. *)
let test_lsm_repro_parses () =
  let config = cfg ~lsm_ckpt:true ~lsm_fanout:2 () in
  let mode = Config.Durable and fault = Config.No_fault in
  let ep =
    { (template ~seed:5700 ~epsilon:8 ~ops:40) with
      Check.Fuzz.threads = 3;
      crash = Check.Fuzz.At_op 20000 }
  in
  let out = F.run_episode ~config ~mode ~fault ~gen_op ep in
  check_bool "episode crashed" true out.Check.Fuzz.crashed;
  let cmd = Check.Fuzz.repro_command ~config ~mode ~fault ~ds:"hashmap" ep in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length cmd && (String.sub cmd i n = sub || go (i + 1))
    in
    go 0
  in
  check_bool "repro passes the fanout" true (contains " --lsm-fanout 2");
  let prefix = "dune exec bin/prep_cli.exe -- " in
  let n = String.length prefix in
  check_bool "repro runs the CLI" true
    (String.length cmd > n && String.sub cmd 0 n = prefix);
  let args = String.sub cmd n (String.length cmd - n) in
  let log = Filename.temp_file "fuzz_repro" ".out" in
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/prep_cli.exe"
  in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli) args
         (Filename.quote log))
  in
  let lines = In_channel.with_open_text log In_channel.input_all in
  Sys.remove log;
  Alcotest.(check int) (Printf.sprintf "exit code of %s\n%s" cmd lines) 0 code;
  Alcotest.(check string) "replayed outcome"
    (Printf.sprintf
       "episode %s: crashed=%b logged=%d completed=%d applied=%d\n\
        no violations\n"
       (Fmt.str "%a" Check.Fuzz.pp_episode ep)
       out.Check.Fuzz.crashed out.Check.Fuzz.logged out.Check.Fuzz.completed
       out.Check.Fuzz.applied)
    lines

let test_lsm_config_rejections () =
  (* the config layer pins the lsm flag combinations that have no
     semantics, so they can never masquerade as bugs *)
  Alcotest.check_raises "volatile has no checkpoints to replace"
    (Invalid_argument
       "Config: --lsm-ckpt is a checkpoint strategy; the volatile \
        variant has no checkpoints")
    (fun () ->
      Config.validate ~beta:4
        (Config.make ~mode:Config.Volatile ~lsm_ckpt:true ~workers:1 ()));
  Alcotest.check_raises "fanout below 2 cannot converge"
    (Invalid_argument "Config: lsm_fanout must be at least 2")
    (fun () ->
      Config.validate ~beta:4
        (Config.make ~mode:Config.Durable ~lsm_ckpt:true ~lsm_fanout:1
           ~workers:1 ()));
  Alcotest.check_raises "manifest fault needs the lsm backend"
    (Invalid_argument
       "Config: manifest-before-seal fault only exists under --lsm-ckpt")
    (fun () ->
      Config.validate ~beta:4
        (Config.make ~mode:Config.Durable
           ~fault:Config.Manifest_before_segment_seal ~workers:1 ()))

(* ---- durable_lin checker unit tests on synthetic reports ---- *)

module Dl = Check.Durable_lin.Make (H.Model)

let synthetic_trace ops =
  let tr = Trace.create () in
  List.iteri
    (fun i (op, args, completed) ->
      Trace.logged tr i ~op ~args;
      if completed then Trace.completed tr i)
    ops;
  tr

let ins k v completed = (H.op_insert, [| k; v |], completed)

let test_checker_accepts_prefix () =
  let tr = synthetic_trace [ ins 1 10 true; ins 2 20 true; ins 3 30 true ] in
  let model =
    List.fold_left
      (fun m (op, args, _) -> fst (H.Model.apply m ~op ~args))
      H.Model.empty
      [ ins 1 10 true; ins 2 20 true ]
  in
  let v =
    Dl.check ~trace:tr ~prefill:[] ~applied:[ 0; 1 ] ~completed:[ 0; 1; 2 ]
      ~recovered_snapshot:(H.Model.snapshot model) ~loss_bound:1 ()
  in
  check "prefix loss within bound accepted" 0 (List.length v)

let test_checker_rejects_lost_before_survivor () =
  let tr = synthetic_trace [ ins 1 10 true; ins 2 20 true ] in
  let model = fst (H.Model.apply H.Model.empty ~op:H.op_insert ~args:[| 2; 20 |]) in
  let v =
    Dl.check ~trace:tr ~prefill:[] ~applied:[ 1 ] ~completed:[ 0; 1 ]
      ~recovered_snapshot:(H.Model.snapshot model) ~loss_bound:5 ()
  in
  check_bool "completed op lost before survivor rejected" true
    (List.exists
       (function Check.Durable_lin.Prefix_violation _ -> true | _ -> false)
       v)

let test_checker_allows_uncompleted_hole () =
  (* a log hole that never completed may be skipped (durable mode) *)
  let tr = synthetic_trace [ ins 1 10 true; ins 2 20 false; ins 3 30 true ] in
  let model =
    List.fold_left
      (fun m (k, v) -> fst (H.Model.apply m ~op:H.op_insert ~args:[| k; v |]))
      H.Model.empty [ (1, 10); (3, 30) ]
  in
  let v =
    Dl.check ~trace:tr ~prefill:[] ~applied:[ 0; 2 ] ~completed:[ 0; 2 ]
      ~recovered_snapshot:(H.Model.snapshot model) ~loss_bound:0 ()
  in
  check "uncompleted hole tolerated" 0 (List.length v)

let test_checker_rejects_state_mismatch () =
  let tr = synthetic_trace [ ins 1 10 true ] in
  let v =
    Dl.check ~trace:tr ~prefill:[] ~applied:[ 0 ] ~completed:[ 0 ]
      ~recovered_snapshot:[ 1; 99 ] ~loss_bound:0 ()
  in
  check_bool "wrong recovered state rejected" true
    (List.exists
       (function Check.Durable_lin.State_mismatch _ -> true | _ -> false)
       v)

(* A wedge is a failed episode, not a hung checker: over a map whose
   update spins forever, the crash-free episode, an op-indexed crash point
   the run never reaches, and a whole campaign (whose calibration wedges)
   all end at the simulated-time horizon with [Wedged]. *)
module Stuck = struct
  include H

  let execute t ~op ~args =
    if op = op_insert then
      while true do
        Sim.spin ()
      done;
    H.execute t ~op ~args
end

module F_stuck = Check.Fuzz.Make (Stuck)

let test_wedge_is_a_failure () =
  let gen_op rng = (H.op_insert, [| Sim.Rng.int rng 64; 1 |]) in
  let ep =
    { (template ~seed:77 ~epsilon:4 ~ops:2) with Check.Fuzz.threads = 2 }
  in
  let wedged label violations =
    check_bool (label ^ " reported as wedged") true
      (match violations with
       | [ Check.Durable_lin.Wedged { horizon_ns } ] ->
         horizon_ns = F_stuck.horizon_ns ep
       | _ -> false)
  in
  List.iter
    (fun (label, crash) ->
      let out =
        F_stuck.run_episode ~config:(cfg ()) ~mode:Config.Durable
          ~fault:Config.No_fault ~gen_op { ep with Check.Fuzz.crash }
      in
      check_bool (label ^ " did not crash") false out.Check.Fuzz.crashed;
      wedged label out.Check.Fuzz.violations)
    [ ("no-crash", Check.Fuzz.No_crash);
      ("unreached crash-op", Check.Fuzz.At_op 1_000_000_000) ];
  let res =
    F_stuck.fuzz ~config:(cfg ()) ~mode:Config.Durable ~fault:Config.No_fault
      ~gen_op ~template:ep ~iters:4 ()
  in
  match res.Check.Fuzz.failures with
  | [ f ] -> wedged "campaign" f.Check.Fuzz.violations
  | fs -> Alcotest.failf "campaign: %d failures, want 1" (List.length fs)

(* A crash that lands after a spinning insert was logged wedges the
   recovery, whose replay runs that insert: the episode crashes and then
   ends at the fuzzer's horizon with [Wedged] instead of hanging. *)
let test_wedged_recovery_is_a_failure () =
  let gen_op rng = (H.op_insert, [| Sim.Rng.int rng 64; 1 |]) in
  let ep =
    { (template ~seed:77 ~epsilon:4 ~ops:2) with Check.Fuzz.threads = 2 }
  in
  List.iter
    (fun n ->
      let label = Printf.sprintf "crash at op %d" n in
      let out =
        F_stuck.run_episode ~config:(cfg ()) ~mode:Config.Durable
          ~fault:Config.No_fault ~gen_op
          { ep with Check.Fuzz.crash = Check.Fuzz.At_op n }
      in
      check_bool (label ^ " crashed") true out.Check.Fuzz.crashed;
      check_bool (label ^ ": recovery reported as wedged") true
        (out.Check.Fuzz.violations
         = [ Check.Durable_lin.Wedged { horizon_ns = F_stuck.horizon_ns ep } ]))
    [ 200; 400 ]

(* The same wedge through the crash-restart-continue session harness: a
   crash-free session wedges in its clients' run, and a one-crash session
   crashes before the wedge and then wedges in recovery, whose replay
   runs the spinning insert; both end at the fuzzer's horizon with
   [Wedged] instead of hanging. *)
module S_stuck = Harness.Session.Make (Stuck)

let test_session_wedge_is_a_failure () =
  let gen_op rng = (H.op_insert, [| Sim.Rng.int rng 64; 1 |]) in
  let cfg =
    let d = Harness.Session.default_config in
    { d with
      Harness.Session.ops_per_client = 2;
      uc = { d.Harness.Session.uc with Config.workers = 2 } }
  in
  let horizon_ns = Check.Fuzz.wedge_horizon_ns ~ops:4 in
  List.iter
    (fun crashes ->
      let o = S_stuck.run { cfg with Harness.Session.crashes } ~gen_op in
      check "crashes injected" crashes o.Harness.Session.crashes_injected;
      check_bool
        (Printf.sprintf "crashes = %d reported as wedged" crashes)
        true
        (o.Harness.Session.violations
         = [ Check.Durable_lin.Wedged { horizon_ns } ]))
    [ 0; 1 ]

(* A session whose recovery raises ends on that raise, not a wedge: the
   planted [commit-before-copies-persist] fault commits background
   checkpoint copies that never reached media, and the recovery after
   the next crash finds a meta block naming no replica (the CLI's
   [session --ds rbtree --crashes 6 --detect --fault
   commit-before-copies-persist]). *)
module S_rbtree = Harness.Session.Make (Seqds.Rbtree)

let test_session_recovery_raise_is_a_failure () =
  let gen_op rng =
    let k = Sim.Rng.int rng 64 in
    if Sim.Rng.bool rng then (Seqds.Rbtree.op_insert, [| k; Sim.Rng.int rng 1000 |])
    else (Seqds.Rbtree.op_remove, [| k |])
  in
  let o =
    S_rbtree.run
      (let d = Harness.Session.default_config in
       { d with
         Harness.Session.crashes = 6;
         uc =
           { d.Harness.Session.uc with
             Config.fault = Config.Commit_before_copies_persist } })
      ~gen_op
  in
  (match o.Harness.Session.violations with
   | [ Check.Durable_lin.Recovery_raised _ ] -> ()
   | vs ->
     Alcotest.failf "expected one recovery raise, got %d other violations"
       (List.length vs));
  let last = List.nth o.Harness.Session.epochs (List.length o.Harness.Session.epochs - 1) in
  check_bool "the last epoch is listed as recovery raised" true
    (last.Harness.Session.status = Harness.Session.Recovery_raised);
  (* the CLI's --json artifact validates and names the backend, planted
     fault, system and seed it ran, for a faulty classic run and a clean
     lsm one *)
  let open Telemetry.Json in
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/prep_cli.exe"
  in
  let named args =
    let json = Filename.temp_file "session" ".json" in
    ignore
      (Sys.command
         (Printf.sprintf "%s session %s --json %s > /dev/null 2>&1"
            (Filename.quote cli) args (Filename.quote json)));
    let contents = In_channel.with_open_text json In_channel.input_all in
    Sys.remove json;
    check_bool ("artifact validates: " ^ args) true
      (validate_string validate_bench contents = Ok ());
    let v = parse contents in
    match (member "config" v, member "sessions" v) with
    | Some c, Some (List (s :: _)) ->
      [ member "lsm_ckpt" c; member "fault" c; member "system" s;
        Option.bind (member "counters" s) (member "seed") ]
    | _ -> Alcotest.failf "no config or session in the artifact of %s" args
  in
  check_bool "a faulty classic detect run reads as one" true
    (named
       "--ds rbtree --threads 4 --ops 40 --crashes 6 --detect --fault \
        commit-before-copies-persist"
     = [ Some (Bool false); Some (Str "commit-before-copies-persist");
         Some (Str "PREP-Durable/det"); Some (Num 1.) ]);
  check_bool "a clean lsm run reads as one" true
    (named "--ds hashmap --threads 3 --ops 12 --crashes 1 --lsm-ckpt"
     = [ Some (Bool true); Some (Str "none"); Some (Str "PREP-Durable/lsm");
         Some (Num 1.) ]);
  (* a configuration the config layer refuses is a usage error (exit
     124, its reason on the first line), not an uncaught exception *)
  List.iter
    (fun args ->
      let out = Filename.temp_file "session" ".out" in
      let code =
        Sys.command
          (Printf.sprintf "%s session %s > %s 2>&1" (Filename.quote cli) args
             (Filename.quote out))
      in
      let text = In_channel.with_open_text out In_channel.input_all in
      Sys.remove out;
      Alcotest.(check int) (Printf.sprintf "exit code of %s\n%s" args text)
        124 code;
      check_bool ("refused as a usage error: " ^ args) true
        (String.starts_with ~prefix:"prep-cli: " text
        && not (String.starts_with ~prefix:"prep-cli: internal error" text)))
    [ "--fault commit-before-prepare"; "--fault response-before-log-persist";
      "--ds queue --lsm-ckpt" ]

(* ---- the crash-epoch driver's contract ---- *)

module Uc = Prep_uc.Make (H)

let epoch_horizon = 20_000_000

let epoch ~mem ~crash ~set_up ~body =
  Check.Epoch.run ~topology:Check.Fuzz.topology ~seed:1L ~preempt_prob:0.0
    ~mem ~horizon:epoch_horizon ~crash ~set_up ~body

let spin_until ns =
  while Sim.now () < ns do
    Sim.spin ()
  done

(* An [At_op n] plan counts memory operations from the end of set-up,
   whatever set-up issued: a body writing 1, 2, 3, ... to one word loses
   power with exactly [n] of its writes in effect, after a create set-up
   and after a recover set-up alike. *)
let test_epoch_at_op_counts_from_set_up () =
  let n = 37 in
  let mem = Nvm.Memory.make ~bg_period:0 () in
  let fires label set_up =
    let cell = ref 0 in
    let e =
      epoch ~mem ~crash:(Check.Epoch.At_op n) ~set_up ~body:(fun _ ->
          let aid = Nvm.Memory.new_arena mem ~kind:Nvm.Memory.Dram ~home:0 in
          cell := Nvm.Memory.addr_of ~aid ~offset:0;
          for i = 1 to 1_000 do
            Nvm.Memory.write mem !cell i
          done)
    in
    check_bool (label ^ ": crashed") true (e.Check.Epoch.ended = Crashed);
    check (label ^ ": writes in effect") n (Nvm.Memory.peek mem !cell);
    check (label ^ ": runtime ops, the cut one included") (n + 1)
      e.Check.Epoch.runtime_ops;
    Option.get e.Check.Epoch.set_up
  in
  let cfg =
    Config.make ~mode:Config.Durable ~epsilon:4 ~log_size:64 ~workers:1 ()
  in
  let uc = fires "create" (fun () -> Uc.create mem (Nvm.Roots.make mem) cfg) in
  Nvm.Memory.crash mem;
  Nvm.Context.reset ();
  ignore (fires "recover" (fun () -> fst (Uc.recover uc)))

(* The horizon bounds set-up too: a set-up that never returns ends
   [Wedged] with no set-up value. *)
let test_epoch_set_up_wedge () =
  let e =
    epoch ~mem:(Nvm.Memory.make ()) ~crash:Check.Epoch.No_crash
      ~set_up:(fun () -> spin_until max_int)
      ~body:ignore
  in
  check_bool "wedged" true (e.Check.Epoch.ended = Wedged);
  check_bool "no set-up value" true (e.Check.Epoch.set_up = None);
  check "no runtime ops" 0 e.Check.Epoch.runtime_ops

(* Past set-up, the horizon counts from set-up's end: a body that spins
   forever after a 5 ms set-up is last dispatched within one spin of
   5 ms + horizon, not of the horizon alone. *)
let test_epoch_body_wedge_at_horizon () =
  let last = ref 0 in
  let e =
    epoch ~mem:(Nvm.Memory.make ()) ~crash:Check.Epoch.No_crash
      ~set_up:(fun () ->
        spin_until 5_000_000;
        Sim.now ())
      ~body:(fun _ ->
        while true do
          last := Sim.now ();
          Sim.spin ()
        done)
  in
  check_bool "wedged" true (e.Check.Epoch.ended = Wedged);
  let limit = Option.get e.Check.Epoch.set_up + epoch_horizon in
  check_bool "last dispatch within one spin of the horizon" true
    (!last <= limit && limit - !last < Sim.Costs.default.Sim.Costs.spin)

(* An [At_time] plan that lands inside set-up is a crash with no set-up
   value: the fuzzer's vacuous episode. *)
let test_epoch_crash_inside_set_up () =
  let e =
    epoch ~mem:(Nvm.Memory.make ()) ~crash:(Check.Epoch.At_time 500_000)
      ~set_up:(fun () -> spin_until 1_000_000)
      ~body:ignore
  in
  check_bool "crashed" true (e.Check.Epoch.ended = Crashed);
  check_bool "no set-up value" true (e.Check.Epoch.set_up = None);
  let out =
    F.run_episode ~mode:Config.Durable ~fault:Config.No_fault ~gen_op
      { (template ~seed:3 ~epsilon:16 ~ops:10) with
        Check.Fuzz.crash = Check.Fuzz.At_time 1 }
  in
  check_bool "fuzz episode crashed" true out.Check.Fuzz.crashed;
  check_bool "fuzz episode vacuous" true out.Check.Fuzz.vacuous

let () =
  Alcotest.run "fuzz"
    [
      ( "checker",
        [
          Alcotest.test_case "accepts prefix within bound" `Quick
            test_checker_accepts_prefix;
          Alcotest.test_case "rejects lost-before-survivor" `Quick
            test_checker_rejects_lost_before_survivor;
          Alcotest.test_case "allows uncompleted hole" `Quick
            test_checker_allows_uncompleted_hole;
          Alcotest.test_case "rejects state mismatch" `Quick
            test_checker_rejects_state_mismatch;
        ] );
      ( "harness",
        [
          Alcotest.test_case "episode deterministic" `Quick
            test_episode_deterministic;
          Alcotest.test_case "crash hook cuts at op" `Quick
            test_crash_hook_cuts_at_op;
          Alcotest.test_case "wedge is a failure" `Quick
            test_wedge_is_a_failure;
          Alcotest.test_case "wedged recovery is a failure" `Quick
            test_wedged_recovery_is_a_failure;
          Alcotest.test_case "session wedge is a failure" `Quick
            test_session_wedge_is_a_failure;
          Alcotest.test_case "session recovery raise is a failure" `Quick
            test_session_recovery_raise_is_a_failure;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "at-op counts from set-up" `Quick
            test_epoch_at_op_counts_from_set_up;
          Alcotest.test_case "set-up wedge" `Quick test_epoch_set_up_wedge;
          Alcotest.test_case "body wedge at horizon" `Quick
            test_epoch_body_wedge_at_horizon;
          Alcotest.test_case "crash inside set-up" `Quick
            test_epoch_crash_inside_set_up;
        ] );
      ( "fuzzing",
        [
          Alcotest.test_case "buffered clean" `Slow test_fuzz_buffered;
          Alcotest.test_case "durable clean" `Slow test_fuzz_durable;
          Alcotest.test_case "volatile clean" `Slow test_fuzz_volatile;
          Alcotest.test_case "queue durable clean" `Slow test_fuzz_queue_durable;
          Alcotest.test_case "broken variant caught and shrunk" `Slow
            test_broken_variant_caught_and_shrunk;
          Alcotest.test_case "fixed variant passes same episodes" `Slow
            test_fixed_variant_passes_where_broken_fails;
        ] );
      ( "flit",
        [
          Alcotest.test_case "differential: flit indistinguishable" `Slow
            test_fuzz_flit_differential;
          Alcotest.test_case "flit buffered clean" `Slow test_fuzz_flit_buffered;
          Alcotest.test_case "elide-ct-flush caught and shrunk" `Slow
            test_flit_elide_ct_flush_caught_and_shrunk;
          Alcotest.test_case "elide-ct-flush observable without flit" `Slow
            test_flit_fault_needs_flit_combiner;
        ] );
      ( "numa",
        [
          Alcotest.test_case "differential: log mirror indistinguishable" `Slow
            test_fuzz_mirror_differential;
          Alcotest.test_case "differential: dist-rw indistinguishable" `Slow
            test_fuzz_dist_rw_differential;
          Alcotest.test_case "differential: full package indistinguishable"
            `Slow test_fuzz_package_differential;
          Alcotest.test_case "mirror-read-recovery caught and shrunk" `Slow
            test_mirror_read_recovery_caught_and_shrunk;
          Alcotest.test_case "mirror fault inert without mirror" `Slow
            test_mirror_fault_inert_without_mirror;
        ] );
      ( "lsm",
        [
          Alcotest.test_case "differential: lsm ckpt indistinguishable" `Slow
            test_fuzz_lsm_differential;
          Alcotest.test_case "lsm clean on every map + buffered" `Slow
            test_fuzz_lsm_all_maps;
          Alcotest.test_case "manifest-before-seal caught and shrunk" `Slow
            test_manifest_before_seal_caught_and_shrunk;
          Alcotest.test_case "lsm repro parses and replays" `Slow
            test_lsm_repro_parses;
          Alcotest.test_case "config rejects meaningless lsm combinations"
            `Quick test_lsm_config_rejections;
        ] );
      ( "detect",
        [
          Alcotest.test_case "detect clean" `Slow test_fuzz_detect_clean;
          Alcotest.test_case "response-before-log-persist caught and shrunk"
            `Slow test_response_before_log_persist_caught_and_shrunk;
          Alcotest.test_case "response fault requires detect" `Quick
            test_response_fault_requires_detect;
          Alcotest.test_case "detect + lsm clean" `Slow
            test_fuzz_detect_lsm_clean;
          Alcotest.test_case "unlogged applied index is a violation" `Slow
            test_unlogged_applied_is_a_violation;
        ] );
    ]
