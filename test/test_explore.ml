(* Bounded exhaustive schedule-and-crash exploration: the explorer must
   find every planted protocol fault deterministically inside a fixed
   budget, produce decision traces that replay to the same violation,
   exhaust the no-fault small scopes with zero violations, show the
   epsilon+beta-1 loss bound tight, and beat naive enumeration by a wide
   margin. Every budget below is a schedule/state/step count — nothing
   here is wall-clock — so the suite cannot flake under load. *)

open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module E = Check.Explore.Make (Seqds.Hashmap)
module H = Seqds.Hashmap

(* Same op mix as the CLI explore workload; the seeds below were picked
   for their draw under exactly this generator (seed 6 draws updates
   only, so every op is logged and loss-visible). *)
let gen_op rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (H.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (H.op_remove, [| k |])
  | 6 | 7 | 8 -> (H.op_get, [| k |])
  | _ -> (H.op_size, [||])

(* The minimal fault-detection scope: one worker plus the persistence
   thread on its own socket (beta = 1), two update ops, epsilon 1 — the
   smallest workload on which each planted fault is observable at all. *)
let scope_1w =
  {
    Check.Explore.seed = 6;
    threads = 1;
    ops_per_worker = 2;
    epsilon = 1;
    log_size = 16;
    sockets = 2;
    cores_per_socket = 1;
    prune = true;
    persistence = true;
  }

let budget =
  { Check.Explore.default_budget with Check.Explore.max_schedules = 20_000 }

(* checker configuration with the given feature flags; the explorer sets
   mode, fault, epsilon, log size and workers itself *)
let cfg ?flit ?dist_rw ?log_mirror ?detect ?lsm_ckpt ?lsm_fanout
    ?persist_policy () =
  Config.make ?flit ?dist_rw ?log_mirror ?detect ?lsm_ckpt ?lsm_fanout
    ?persist_policy ~workers:1 ()

let explore ?flit ?dist_rw ?log_mirror ?detect ?lsm_ckpt ?lsm_fanout
    ?persist_policy ?(budget = budget) ?(scope = scope_1w) mode fault =
  E.explore
    ~config:
      (cfg ?flit ?dist_rw ?log_mirror ?detect ?lsm_ckpt ?lsm_fanout
         ?persist_policy ())
    ~budget ~mode ~fault ~gen_op ~scope ()

(* The planted instruction-removal fault: a policy that elides the
   completedTail CLFLUSH durable mode's zero-loss promise rests on. *)
let elide_ct_flush =
  Result.get_ok (Nvm.Persist.of_spec "prep.completed_tail=elide")

(* The exact DFS statistics of an exhausted scope, in the order schedules,
   terminals, steps, states, dedup hits, sleep skips, crash points,
   frontiers, recoveries: any change to the schedule search, the ghost
   hashes or the crash-frontier dedup shows here, not only one that
   breaks exhaustion. *)
let pinned label (res : Check.Explore.result) expected =
  let s = res.Check.Explore.stats in
  List.iter2
    (fun (name, got) want -> check (label ^ ": " ^ name) want got)
    [
      ("schedules", s.Check.Explore.schedules);
      ("terminals", s.Check.Explore.terminals);
      ("steps", s.Check.Explore.steps);
      ("states", s.Check.Explore.states);
      ("dedup hits", s.Check.Explore.dedup_hits);
      ("sleep skips", s.Check.Explore.sleep_skips);
      ("crash points", s.Check.Explore.crash_points);
      ("frontiers", s.Check.Explore.frontiers);
      ("recoveries", s.Check.Explore.recoveries);
    ]
    expected

let exhausted_clean label ~stats (res : Check.Explore.result) =
  check_bool (label ^ ": no violation") true
    (res.Check.Explore.violation = None);
  check_bool (label ^ ": exhausted") true res.Check.Explore.exhausted;
  check_bool (label ^ ": reached terminals") true
    (res.Check.Explore.stats.Check.Explore.terminals > 0);
  pinned label res stats

(* A violation's decision trace must replay to the same violation — the
   round-trip through the textual run-length encoding included, because
   that is what the CLI repro command ships. *)
let replay_reproduces ?flit ?dist_rw ?log_mirror ?detect ?lsm_ckpt
    ?lsm_fanout ?persist_policy label mode fault scope
    (v : Check.Explore.violation) =
  let decisions =
    Check.Explore.decisions_of_string
      (Check.Explore.decisions_to_string v.Check.Explore.v_decisions)
  in
  let violations, crashed, logged, completed, applied =
    E.replay
      ~config:
        (cfg ?flit ?dist_rw ?log_mirror ?detect ?lsm_ckpt ?lsm_fanout
           ?persist_policy ())
      ~mode ~fault ~gen_op ~scope ~decisions
      ?crash:v.Check.Explore.v_crash ()
  in
  check_bool (label ^ ": replay violates") true (violations <> []);
  check_bool (label ^ ": replay crashed") true
    (crashed = (v.Check.Explore.v_crash <> None));
  check (label ^ ": replay logged") v.Check.Explore.v_logged logged;
  check (label ^ ": replay completed") v.Check.Explore.v_completed completed;
  check (label ^ ": replay applied") v.Check.Explore.v_applied applied

let is_loss_bound = function
  | Check.Durable_lin.Loss_bound_exceeded _ -> true
  | _ -> false

(* ---- planted faults: found deterministically, traces replay ---- *)

let test_early_boundary_found () =
  (* boundary advanced before the flush+swap: completed ops race a full
     window ahead of the stable checkpoint, so a crash can lose 2 ops
     against the epsilon+beta-1 = 1 bound *)
  let res = explore Config.Buffered Config.Early_boundary_advance in
  match res.Check.Explore.violation with
  | None -> Alcotest.fail "early-boundary fault not found within budget"
  | Some v ->
    check_bool "found as loss-bound violation" true
      (List.exists is_loss_bound v.Check.Explore.v_violations);
    check_bool "found at a crash frontier" true
      (v.Check.Explore.v_crash <> None);
    replay_reproduces "early-boundary" Config.Buffered
      Config.Early_boundary_advance scope_1w v

let test_elide_ct_flush_found () =
  (* durable mode promises zero loss; eliding the completedTail flush
     loses the tail on crash and recovery drops a completed op *)
  let res =
    explore ~persist_policy:elide_ct_flush Config.Durable Config.No_fault
  in
  match res.Check.Explore.violation with
  | None -> Alcotest.fail "elide-ct-flush fault not found within budget"
  | Some v ->
    check_bool "found as loss-bound violation" true
      (List.exists is_loss_bound v.Check.Explore.v_violations);
    replay_reproduces ~persist_policy:elide_ct_flush "elide-ct-flush"
      Config.Durable Config.No_fault scope_1w v

let test_mirror_read_found () =
  (* recovery served from the DRAM log mirror, which the crash zeroed:
     durably completed ops read as holes and are dropped *)
  let res =
    explore ~log_mirror:true Config.Durable Config.Mirror_read_on_recovery
  in
  match res.Check.Explore.violation with
  | None -> Alcotest.fail "mirror-read fault not found within budget"
  | Some v ->
    replay_reproduces ~log_mirror:true "mirror-read" Config.Durable
      Config.Mirror_read_on_recovery scope_1w v

(* ---- determinism: same scope, same budget => identical outcome ---- *)

let test_exploration_deterministic () =
  let run () =
    explore ~persist_policy:elide_ct_flush Config.Durable Config.No_fault
  in
  let a = run () and b = run () in
  match (a.Check.Explore.violation, b.Check.Explore.violation) with
  | Some va, Some vb ->
    check_bool "same decision trace" true
      (va.Check.Explore.v_decisions = vb.Check.Explore.v_decisions);
    check_bool "same crash point" true
      (va.Check.Explore.v_crash = vb.Check.Explore.v_crash);
    check "same schedules to find"
      a.Check.Explore.stats.Check.Explore.schedules
      b.Check.Explore.stats.Check.Explore.schedules
  | _ -> Alcotest.fail "fault not found on one of two identical runs"

(* ---- no-fault scopes explore clean ---- *)

let buffered_clean =
  lazy (explore Config.Buffered Config.No_fault)

let test_no_fault_buffered_exhausts () =
  let res = Lazy.force buffered_clean in
  exhausted_clean "buffered" res
    ~stats:[ 8046; 105; 692429; 3779; 7941; 3472; 53; 313; 123 ];
  (* epsilon + beta - 1 = 1: crashes may lose at most one completed op,
     and some crash does lose one *)
  check "max completed-op loss at the bound" 1
    res.Check.Explore.stats.Check.Explore.max_completed_loss;
  check "single quiescent state" 1
    (List.length res.Check.Explore.terminal_states)

let test_no_fault_flit_exhausts () =
  let res = explore ~flit:true Config.Buffered Config.No_fault in
  exhausted_clean "flit" res
    ~stats:[ 8069; 105; 694550; 3779; 7964; 3499; 53; 313; 123 ]

(* Full NUMA hot-path package (distributed reader locks, DRAM log
   mirror) plus flush elimination, in durable mode — shared between the
   exhaustion test and the combined flag-equivalence test below. *)
let package_clean =
  lazy
    (explore ~flit:true ~dist_rw:true ~log_mirror:true Config.Durable
       Config.No_fault)

let test_no_fault_package_exhausts () =
  let res = Lazy.force package_clean in
  exhausted_clean "numa package" res
    ~stats:[ 8785; 109; 857536; 4225; 8676; 3901; 128; 1033; 274 ];
  check "durable: no completed op ever lost" 0
    res.Check.Explore.stats.Check.Explore.max_completed_loss

(* ---- epsilon+beta-1 tightness (epsilon = 2, beta = 1) ---- *)

let test_loss_bound_tight () =
  (* three update ops against a bound of 2: exhaustive search must
     exhibit a crash losing exactly 2 completed ops (the bound is
     attained) and none losing more (the bound holds) *)
  let scope = { scope_1w with Check.Explore.ops_per_worker = 3; epsilon = 2 } in
  let res = explore ~scope Config.Buffered Config.No_fault in
  exhausted_clean "tightness" res
    ~stats:[ 12668; 82; 1440561; 6560; 12586; 6067; 69; 623; 233 ];
  check "worst crash loses exactly epsilon+beta-1 = 2" 2
    res.Check.Explore.stats.Check.Explore.max_completed_loss

(* ---- DPOR-style pruning vs naive enumeration ---- *)

let test_pruning_reduction () =
  (* The pruned explorer finishes the whole space of the one-op scope in
     S schedules; naive enumeration given the same S cannot. The full
     >=10x factor is too slow for runtest, so it lives in the CI explore
     smoke job and EXPERIMENTS.md: naive given 10x S (39,150 schedules)
     still does not exhaust — measured at >10x on schedules and >20x on
     distinct states for both the one-op and two-op scopes. *)
  let scope = { scope_1w with Check.Explore.ops_per_worker = 1 } in
  let pruned = explore ~scope Config.Buffered Config.No_fault in
  exhausted_clean "pruned one-op scope" pruned
    ~stats:[ 3915; 125; 246440; 1635; 3790; 1636; 31; 203; 69 ];
  let ps = pruned.Check.Explore.stats in
  check_bool "sleep sets fired" true (ps.Check.Explore.sleep_skips > 0);
  check_bool "state dedup fired" true (ps.Check.Explore.dedup_hits > 0);
  let naive =
    explore
      ~budget:
        { budget with Check.Explore.max_schedules = ps.Check.Explore.schedules }
      ~scope:{ scope with Check.Explore.prune = false }
      Config.Buffered Config.No_fault
  in
  check_bool "naive finds no violation either" true
    (naive.Check.Explore.violation = None);
  check_bool
    (Printf.sprintf
       "naive has not exhausted the space pruned finished in %d schedules"
       ps.Check.Explore.schedules)
    true
    (not naive.Check.Explore.exhausted)

(* ---- flag equivalence on exhaustively explored small scopes ----

   The gated optimisations must be observationally equivalent to the
   baseline: over the fully explored schedule space of the same workload
   the set of distinct quiescent states must coincide (here the scope is
   confluent: a single terminal state, equal across configurations, and
   zero violations on every side). *)

let equivalent label ~stats base opt =
  check_bool (label ^ ": baseline clean") true
    (base.Check.Explore.violation = None && base.Check.Explore.exhausted);
  check_bool (label ^ ": optimised clean") true
    (opt.Check.Explore.violation = None && opt.Check.Explore.exhausted);
  check_bool (label ^ ": same terminal states") true
    (base.Check.Explore.terminal_states = opt.Check.Explore.terminal_states);
  pinned (label ^ " baseline") base
    [ 8572; 105; 790341; 4027; 8467; 3644; 128; 999; 274 ];
  pinned label opt stats

let durable_base = lazy (explore Config.Durable Config.No_fault)

let test_equiv_dist_rw () =
  equivalent "dist-rw" (Lazy.force durable_base)
    (explore ~dist_rw:true Config.Durable Config.No_fault)
    ~stats:[ 8636; 109; 807770; 4128; 8527; 3755; 128; 999; 274 ]

let test_equiv_log_mirror () =
  equivalent "log-mirror" (Lazy.force durable_base)
    (explore ~log_mirror:true Config.Durable Config.No_fault)
    ~stats:[ 8758; 105; 853685; 4154; 8653; 3762; 128; 999; 274 ]

let test_equiv_combined () =
  equivalent "combined" (Lazy.force durable_base) (Lazy.force package_clean)
    ~stats:[ 8785; 109; 857536; 4225; 8676; 3901; 128; 1033; 274 ]

(* Two workers, three ops each (six ops total): the interleaving space
   is too large to exhaust in runtest, so each flag configuration gets
   the same fixed schedule budget and must stay violation-free across
   every explored interleaving and crash frontier. Durable mode makes
   the check sharp — any completed-op loss at any explored crash point
   is a violation. *)
let test_equiv_two_thread_budgeted () =
  let scope =
    {
      Check.Explore.seed = 1;
      threads = 2;
      ops_per_worker = 3;
      epsilon = 2;
      log_size = 16;
      sockets = 2;
      cores_per_socket = 2;
      prune = true;
    persistence = true;
    }
  in
  let budget =
    { Check.Explore.default_budget with Check.Explore.max_schedules = 1_500 }
  in
  List.iter
    (fun (label, dist_rw, log_mirror) ->
      let res =
        explore ~dist_rw ~log_mirror ~budget ~scope Config.Durable
          Config.No_fault
      in
      check_bool (label ^ ": no violation in budget") true
        (res.Check.Explore.violation = None);
      check (label ^ ": durable, no loss at any explored crash") 0
        res.Check.Explore.stats.Check.Explore.max_completed_loss;
      check_bool (label ^ ": crash frontiers were checked") true
        (res.Check.Explore.stats.Check.Explore.recoveries > 0))
    [
      ("baseline", false, false);
      ("dist-rw", true, false);
      ("log-mirror", false, true);
      ("combined", true, true);
    ]

(* ---- detectability layer ----

   Durable mode with persistent announces and combiner-persisted
   responses: every explored crash frontier runs recovery *and* the
   resolve consistency check (a response claiming seqno s with s not
   applied, or a Lost/Unannounced verdict contradicting the replayed
   log, is a violation). Exhausting a scope therefore proves that no
   reachable crash point can make a client lose or duplicate an op it
   resolves on. *)

let test_detect_scope_exhausts () =
  let res = explore ~detect:true Config.Durable Config.No_fault in
  exhausted_clean "detect" res
    ~stats:[ 9238; 105; 1089952; 4341; 9133; 3896; 297; 2901; 606 ];
  check "durable+detect: no completed op ever lost" 0
    res.Check.Explore.stats.Check.Explore.max_completed_loss;
  check_bool "crash frontiers ran resolve checks" true
    (res.Check.Explore.stats.Check.Explore.recoveries > 0);
  check "single quiescent state" 1
    (List.length res.Check.Explore.terminal_states)

let test_detect_two_thread_budgeted () =
  (* two announcing clients racing the combiner and the crash frontier:
     the interleaving space is too large to exhaust in runtest, so the
     scope gets a fixed schedule budget (the CI explore smoke job runs
     the exhaustive version) and must stay free of resolve and
     exactly-once violations across every explored frontier *)
  let scope =
    {
      Check.Explore.seed = 1;
      threads = 2;
      ops_per_worker = 2;
      epsilon = 2;
      log_size = 16;
      sockets = 2;
      cores_per_socket = 2;
      prune = true;
    persistence = true;
    }
  in
  let budget =
    { Check.Explore.default_budget with Check.Explore.max_schedules = 1_500 }
  in
  let res = explore ~detect:true ~budget ~scope Config.Durable Config.No_fault in
  check_bool "no violation in budget" true
    (res.Check.Explore.violation = None);
  check "durable+detect: no loss at any explored crash" 0
    res.Check.Explore.stats.Check.Explore.max_completed_loss;
  check_bool "crash frontiers were checked" true
    (res.Check.Explore.stats.Check.Explore.recoveries > 0)

let test_detect_response_fault_found () =
  (* responses flushed to media while the log write-backs stay unfenced:
     the explorer must find a frontier where a response promises an op
     the replayed log cannot back, deterministically, and the decision
     trace must replay to the same violation *)
  let res =
    explore ~detect:true Config.Durable Config.Response_before_log_persist
  in
  match res.Check.Explore.violation with
  | None ->
    Alcotest.fail "response-before-log-persist fault not found within budget"
  | Some v ->
    check_bool "found at a crash frontier" true
      (v.Check.Explore.v_crash <> None);
    check_bool "found as resolve mismatch or durable loss" true
      (List.exists
         (function
           | Check.Durable_lin.Resolve_mismatch _
           | Check.Durable_lin.Loss_bound_exceeded _
           | Check.Durable_lin.Prefix_violation _ -> true
           | _ -> false)
         v.Check.Explore.v_violations);
    replay_reproduces ~detect:true "response-before-log-persist"
      Config.Durable Config.Response_before_log_persist scope_1w v

(* ---- incremental (lsm) checkpointing ----

   The seal/compact/crash interleaving space of the [--lsm-ckpt] backend:
   memtable seals into segments, background compaction sharing the
   persistence core, manifest publishes, and crash frontiers through all
   of it. Fanout 2 keeps compaction reachable inside the tiny scope. *)

let lsm_budget =
  (* the extra persistence-core fiber (compaction) and the seal-watermark
     stable tail roughly double the interleavings of the classic scope;
     measured exhaustion is ~68k schedules, the budget leaves headroom
     without masking a blow-up *)
  { Check.Explore.default_budget with Check.Explore.max_schedules = 100_000 }

let test_lsm_scope_exhausts () =
  let res =
    explore ~lsm_ckpt:true ~lsm_fanout:2 ~budget:lsm_budget Config.Durable
      Config.No_fault
  in
  exhausted_clean "lsm" res
    ~stats:[ 67778; 474; 9223397; 16789; 66608; 16559; 132; 319; 110 ];
  check "durable: no completed op ever lost" 0
    res.Check.Explore.stats.Check.Explore.max_completed_loss

let test_manifest_before_seal_found () =
  (* the manifest record goes durable naming segments whose bodies are
     still dirty: the explorer must find a crash frontier that keeps the
     record and drops the segments, losing sealed effects recovery no
     longer replays (sealed_lt already skips their log entries) *)
  let res =
    explore ~lsm_ckpt:true ~lsm_fanout:2 ~budget:lsm_budget Config.Durable
      Config.Manifest_before_segment_seal
  in
  match res.Check.Explore.violation with
  | None -> Alcotest.fail "manifest-before-seal fault not found within budget"
  | Some v ->
    check_bool "found at a crash frontier" true
      (v.Check.Explore.v_crash <> None);
    check_bool "found as durable loss or state mismatch" true
      (List.exists
         (function
           | Check.Durable_lin.Loss_bound_exceeded _
           | Check.Durable_lin.Prefix_violation _
           | Check.Durable_lin.State_mismatch _ -> true
           | _ -> false)
         v.Check.Explore.v_violations);
    replay_reproduces ~lsm_ckpt:true ~lsm_fanout:2 "manifest-before-seal"
      Config.Durable Config.Manifest_before_segment_seal scope_1w v

(* ---- decision-trace encoding ---- *)

let test_rle_roundtrip () =
  let cases =
    [ []; [ 0 ]; [ 1; 1; 1 ]; [ 0; 2; 2; 1; 0; 0; 0; 2 ]; List.init 40 (fun i -> i mod 3) ]
  in
  List.iter
    (fun ds ->
      let s = Check.Explore.decisions_to_string ds in
      check_bool (Printf.sprintf "roundtrip %S" s) true
        (Check.Explore.decisions_of_string s = ds))
    cases

let () =
  Alcotest.run "explore"
    [
      ( "encoding",
        [ Alcotest.test_case "decision-trace RLE roundtrip" `Quick test_rle_roundtrip ] );
      ( "faults",
        [
          Alcotest.test_case "early-boundary found and replays" `Slow
            test_early_boundary_found;
          Alcotest.test_case "elide-ct-flush found and replays" `Slow
            test_elide_ct_flush_found;
          Alcotest.test_case "mirror-read found and replays" `Slow
            test_mirror_read_found;
          Alcotest.test_case "exploration deterministic" `Slow
            test_exploration_deterministic;
        ] );
      ( "no-fault",
        [
          Alcotest.test_case "buffered scope exhausts clean" `Slow
            test_no_fault_buffered_exhausts;
          Alcotest.test_case "flit scope exhausts clean" `Slow
            test_no_fault_flit_exhausts;
          Alcotest.test_case "numa package scope exhausts clean" `Slow
            test_no_fault_package_exhausts;
          Alcotest.test_case "loss bound tight at eps=2 beta=1" `Slow
            test_loss_bound_tight;
        ] );
      ( "reduction",
        [ Alcotest.test_case "pruning beats naive 10x" `Slow test_pruning_reduction ] );
      ( "equivalence",
        [
          Alcotest.test_case "dist-rw terminal states" `Slow test_equiv_dist_rw;
          Alcotest.test_case "log-mirror terminal states" `Slow
            test_equiv_log_mirror;
          Alcotest.test_case "full package terminal states" `Slow
            test_equiv_combined;
          Alcotest.test_case "two threads, six ops, budgeted sweep" `Slow
            test_equiv_two_thread_budgeted;
        ] );
      ( "lsm",
        [
          Alcotest.test_case "lsm scope exhausts clean" `Slow
            test_lsm_scope_exhausts;
          Alcotest.test_case "manifest-before-seal found and replays" `Slow
            test_manifest_before_seal_found;
        ] );
      ( "detect",
        [
          Alcotest.test_case "detect scope exhausts clean" `Slow
            test_detect_scope_exhausts;
          Alcotest.test_case "two announcing clients, budgeted sweep" `Slow
            test_detect_two_thread_budgeted;
          Alcotest.test_case "response-before-log-persist found and replays"
            `Slow test_detect_response_fault_found;
        ] );
    ]
