(* Tests for the per-site persistency-policy layer and the
   optimize-persist inference pass:

   - policy action semantics against the simulated cache/media model
     (elide removes durability, downgrade trades blocking for deferred,
     defer leaves the write-pending queue for the next emitted fence);
   - spec and JSON round-trips for every site;
   - the explorer oracle: known-unsafe one-site weakenings produce a
     durable-linearizability violation, the proven set exhausts clean;
   - differential fuzz of the proven policy on all three map structures;
   - the full greedy inference loop end-to-end on the smallest scope. *)

open Nvm

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let in_sim f = Sim.run_one f
let fresh () = Memory.make ~bg_period:0 ()

let policy_of_spec spec =
  match Persist.of_spec spec with
  | Ok p -> p
  | Error m -> Alcotest.failf "bad spec %S: %s" spec m

(* The canonical proven set (bench persistgain's default; CI's
   persist-smoke job re-derives it). *)
let proven =
  "log.fence_payload=defer-to-next-fence,\
   prep.checkpoint=defer-to-next-fence,prep.init=elide"

(* ---- action semantics against the memory model ---- *)

(* one NVM word, written but not yet persisted *)
let dirty_word m =
  let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
  let a = Memory.addr_of ~aid ~offset:8 in
  Memory.write m a 77;
  a

let test_default_policy_emits () =
  in_sim (fun () ->
      let m = fresh () in
      check_bool "fresh memory runs the default policy" true
        (Persist.is_default (Memory.policy m));
      let a = dirty_word m in
      Memory.clflush ~site:Persist.Test m a;
      Memory.crash m;
      check "clflush under Emit is durable" 77 (Memory.peek m a);
      let st = Memory.stats m in
      check "no policy accounting" 0
        (st.Memory.policy_elided + st.Memory.policy_downgraded
       + st.Memory.policy_deferred))

let test_elide_clflush () =
  in_sim (fun () ->
      let m = fresh () in
      let p = Persist.default () in
      Persist.set p Persist.Test Persist.Elide;
      Memory.set_policy m p;
      let a = dirty_word m in
      Memory.clflush ~site:Persist.Test m a;
      let st = Memory.stats m in
      check "instruction removed" 0 st.Memory.clflush;
      check "accounted as policy-elided" 1 st.Memory.policy_elided;
      Memory.crash m;
      check "write lost: elision removed durability" 0 (Memory.peek m a))

let test_downgrade_clflush () =
  (* downgraded CLFLUSH = CLWB: not durable alone, durable after a fence *)
  in_sim (fun () ->
      let m = fresh () in
      let p = Persist.default () in
      Persist.set p Persist.Test Persist.Downgrade_to_clwb;
      Memory.set_policy m p;
      let a = dirty_word m in
      Memory.clflush ~site:Persist.Test m a;
      let st = Memory.stats m in
      check "no blocking flush" 0 st.Memory.clflush;
      check "downgrade accounted" 1 st.Memory.policy_downgraded;
      Memory.sfence ~site:Persist.Log_fence m;
      Memory.crash m;
      check "downgraded write durable after fence" 77 (Memory.peek m a));
  in_sim (fun () ->
      let m = fresh () in
      let p = Persist.default () in
      Persist.set p Persist.Test Persist.Downgrade_to_clwb;
      Memory.set_policy m p;
      let a = dirty_word m in
      Memory.clflush ~site:Persist.Test m a;
      Memory.crash m;
      check "but not durable without one" 0 (Memory.peek m a))

let test_defer_sfence () =
  (* deferred SFENCE: the write-pending queue survives to the next
     emitted fence — exactly the crash window the oracle must clear *)
  in_sim (fun () ->
      let m = fresh () in
      let p = Persist.default () in
      Persist.set p Persist.Test Persist.Defer_to_next_fence;
      Memory.set_policy m p;
      let a = dirty_word m in
      Memory.clwb ~site:Persist.Log_fence m a;
      Memory.sfence ~site:Persist.Test m;
      let st = Memory.stats m in
      check "fence skipped" 0 st.Memory.sfence;
      check "defer accounted" 1 st.Memory.policy_deferred;
      Memory.crash m;
      check "write lost in the deferral window" 0 (Memory.peek m a));
  in_sim (fun () ->
      let m = fresh () in
      let p = Persist.default () in
      Persist.set p Persist.Test Persist.Defer_to_next_fence;
      Memory.set_policy m p;
      let a = dirty_word m in
      Memory.clwb ~site:Persist.Log_fence m a;
      Memory.sfence ~site:Persist.Test m;
      Memory.sfence ~site:Persist.Log_fence m;
      Memory.crash m;
      check "next emitted fence drains the queue" 77 (Memory.peek m a))

let test_elide_clwb () =
  in_sim (fun () ->
      let m = fresh () in
      let p = Persist.default () in
      Persist.set p Persist.Test Persist.Elide;
      Memory.set_policy m p;
      let a = dirty_word m in
      Memory.clwb ~site:Persist.Test m a;
      let st = Memory.stats m in
      check "clwb removed" 0 st.Memory.clwb;
      check "accounted" 1 st.Memory.policy_elided;
      Memory.sfence ~site:Persist.Log_fence m;
      Memory.crash m;
      check "nothing queued, so the fence saves nothing" 0 (Memory.peek m a))

let test_policy_scoped_to_site () =
  (* the same primitive at a different site is untouched *)
  in_sim (fun () ->
      let m = fresh () in
      let p = Persist.default () in
      Persist.set p Persist.Test Persist.Elide;
      Memory.set_policy m p;
      let a = dirty_word m in
      Memory.clflush ~site:Persist.Roots_set m a;
      Memory.crash m;
      check "other sites still emit" 77 (Memory.peek m a))

(* ---- spec / JSON round-trips ---- *)

let test_every_site_roundtrips () =
  Array.iteri
    (fun i s ->
      check ("index of " ^ Persist.to_string s) i (Persist.index s);
      match Persist.of_string (Persist.to_string s) with
      | Some s' ->
        check_bool ("of_string (to_string) " ^ Persist.to_string s) true
          (s = s')
      | None -> Alcotest.failf "site %s does not parse back" (Persist.to_string s))
    Persist.all

let test_spec_roundtrip () =
  let p = policy_of_spec proven in
  check "three weakenings" 3 (List.length (Persist.weakenings p));
  check_bool "not default" false (Persist.is_default p);
  let p' = policy_of_spec (Persist.to_spec p) in
  check_bool "spec round-trip" true (Persist.equal p p');
  check_str "empty policy spec" "none" (Persist.to_spec (Persist.default ()));
  check_bool "\"none\" parses to the default" true
    (Persist.is_default (policy_of_spec "none"))

let test_json_roundtrip () =
  let p = policy_of_spec proven in
  match Persist.of_json (Persist.to_json p) with
  | Ok p' -> check_bool "json round-trip" true (Persist.equal p p')
  | Error m -> Alcotest.failf "round-trip failed: %s" m

let test_bad_inputs_rejected () =
  let is_err = function Error _ -> true | Ok _ -> false in
  check_bool "unknown site" true
    (is_err (Persist.of_spec "log.no_such_site=elide"));
  check_bool "unknown action" true
    (is_err (Persist.of_spec "prep.init=vaporize"));
  check_bool "missing =" true (is_err (Persist.of_spec "prep.init"));
  check_bool "not json" true (is_err (Persist.of_json "{"));
  check_bool "wrong schema" true
    (is_err (Persist.of_json "{\"schema\": \"nope/9\", \"sites\": {}}"));
  check_bool "non-string action" true
    (is_err
       (Persist.of_json
          ("{\"schema\": \"" ^ Persist.schema
         ^ "\", \"sites\": {\"prep.init\": 3}}")))

let test_load_inline () =
  match Persist.load "prep.init=elide" with
  | Ok p -> check "inline load" 1 (List.length (Persist.weakenings p))
  | Error m -> Alcotest.failf "inline load failed: %s" m

let test_split_counter () =
  (match Persist.split_counter "nvm.clwb@log.persist_range" with
   | Some ("clwb", Persist.Log_persist_range) -> ()
   | _ -> Alcotest.fail "emitted counter did not split");
  (match Persist.split_counter "nvm.sfence_deferred@prep.checkpoint" with
   | Some ("sfence_deferred", Persist.Prep_checkpoint) -> ()
   | _ -> Alcotest.fail "deferral counter did not split");
  check_bool "non-site counters pass through" true
    (Persist.split_counter "prep.combines" = None
    && Persist.split_counter "nvm.clwb@no.such.site" = None)

(* ---- explorer oracle: unsafe weakenings violate, the proven set
   exhausts.  Scope and generator match test_explore's minimal
   fault-detection scope (seed 6 draws updates only). ---- *)

module H = Seqds.Hashmap
module E = Check.Explore.Make (H)
module F = Check.Fuzz.Make (H)

let gen_op rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (H.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (H.op_remove, [| k |])
  | 6 | 7 | 8 -> (H.op_get, [| k |])
  | _ -> (H.op_size, [||])

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

let max_schedules = 20_000

(* checker configuration carrying [persist_policy]; the checkers set mode,
   fault, epsilon, log size and workers themselves *)
let policy_config persist_policy =
  Prep.Config.make ?persist_policy ~workers:1 ()

let explore_policy spec =
  E.explore
    ~config:(policy_config (Some (policy_of_spec spec)))
    ~max_schedules ~mode:Prep.Config.Durable ~fault:Prep.Config.No_fault ~gen_op
    ~scope:scope_1w ()

let rejected label (res : Check.Explore.result) =
  match res.Check.Explore.violation with
  | Some _ -> ()
  | None -> Alcotest.failf "%s: unsafe weakening not caught by explorer" label

let test_unsafe_ct_elide_rejected () =
  (* dropping the completedTail CLFLUSH of §5.2 un-persists completions:
     a crash loses more than the epsilon+beta-1 bound *)
  rejected "prep.completed_tail=elide"
    (explore_policy "prep.completed_tail=elide")

let test_unsafe_ct_downgrade_rejected () =
  (* even the gentler downgrade leaves completions in the WPQ *)
  rejected "prep.completed_tail=downgrade-to-clwb"
    (explore_policy "prep.completed_tail=downgrade-to-clwb")

let test_unsafe_publish_defer_rejected () =
  (* the publish fence is the combine commit point *)
  rejected "log.fence_publish=defer-to-next-fence"
    (explore_policy "log.fence_publish=defer-to-next-fence")

let test_proven_set_exhausts_clean () =
  let res = explore_policy proven in
  check_bool "no violation" true (res.Check.Explore.violation = None);
  check_bool "exhausted" true res.Check.Explore.exhausted;
  check_bool "reached terminals" true
    (res.Check.Explore.stats.Check.Explore.terminals > 0)

(* ---- differential fuzz: the proven policy on all three maps ---- *)

let template ~seed =
  {
    Check.Fuzz.workload_seed = seed;
    threads = 4;
    epsilon = 8;
    log_size = 128;
    ops_per_worker = 80;
    bg_period = 2000;
    preempt_prob = 0.02;
    crash = Check.Fuzz.No_crash;
  }

(* all three map structures share the hashmap's op codes, so one
   generator drives each functor instantiation *)
let fuzz_clean run label seed =
  let res = run (policy_of_spec proven) (template ~seed) in
  check (label ^ ": episodes run") 10 res.Check.Fuzz.episodes;
  List.iter
    (fun { Check.Fuzz.episode; violations } ->
      Alcotest.failf "%s: %s -> %d violations" label
        (Fmt.str "%a" Check.Fuzz.pp_episode episode)
        (List.length violations))
    res.Check.Fuzz.failures

module Frb = Check.Fuzz.Make (Seqds.Rbtree)
module Fsl = Check.Fuzz.Make (Seqds.Skiplist)

let test_fuzz_hashmap () =
  fuzz_clean
    (fun p t ->
      F.fuzz ~config:(policy_config (Some p)) ~mode:Prep.Config.Durable
        ~fault:Prep.Config.No_fault ~gen_op ~template:t ~iters:10 ())
    "hashmap" 7100

let test_fuzz_rbtree () =
  fuzz_clean
    (fun p t ->
      Frb.fuzz ~config:(policy_config (Some p)) ~mode:Prep.Config.Durable
        ~fault:Prep.Config.No_fault ~gen_op ~template:t ~iters:10 ())
    "rbtree" 7200

let test_fuzz_skiplist () =
  fuzz_clean
    (fun p t ->
      Fsl.fuzz ~config:(policy_config (Some p)) ~mode:Prep.Config.Durable
        ~fault:Prep.Config.No_fault ~gen_op ~template:t ~iters:10 ())
    "skiplist" 7300

let test_differential_crash_free () =
  (* a policy that only removes redundant persistency must not change
     crash-free results: same logged/completed/applied as the baseline *)
  let run policy =
    F.run_episode ~config:(policy_config policy) ~mode:Prep.Config.Durable
      ~fault:Prep.Config.No_fault ~gen_op (template ~seed:7400)
  in
  let a = run None and b = run (Some (policy_of_spec proven)) in
  check_bool "baseline clean" true (a.Check.Fuzz.violations = []);
  check_bool "policy clean" true (b.Check.Fuzz.violations = []);
  check "same logged" a.Check.Fuzz.logged b.Check.Fuzz.logged;
  check "same completed" a.Check.Fuzz.completed b.Check.Fuzz.completed;
  check "same applied" a.Check.Fuzz.applied b.Check.Fuzz.applied

(* ---- FliT's dropped payload fence is the policy's deferral ---- *)

(* Per-site NVM counters ("sfence_deferred@log.fence_payload", ...) of one
   crash-free durable hashmap episode under [config]. *)
let site_counts config =
  let reg = Telemetry.Registry.create () in
  let out =
    Telemetry.Registry.with_current reg (fun () ->
        F.run_episode ~config ~mode:Prep.Config.Durable
          ~fault:Prep.Config.No_fault ~gen_op (template ~seed:7500))
  in
  check_bool "episode clean" true (out.Check.Fuzz.violations = []);
  let counters =
    (Telemetry.Registry.snapshot reg).Telemetry.Registry.sn_counters
  in
  fun name -> Option.value ~default:0 (List.assoc_opt ("nvm." ^ name) counters)

let test_flit_defers_payload_fence () =
  let flit = Prep.Config.make ~flit:true ~workers:1 () in
  let n = site_counts flit in
  check_bool "flit defers the payload fence" true
    (n "sfence_deferred@log.fence_payload" > 0);
  check "flit emits no payload fence" 0 (n "sfence@log.fence_payload");
  check "one deferral per combine round"
    (n "sfence@log.fence_publish" + n "sfence_flit_elided@log.fence_publish")
    (n "sfence_deferred@log.fence_payload");
  check_str "the installed deferral stays out of repro flags" " --flit"
    (Prep.Config.to_flags flit);
  (* a configured action at the site wins over FliT's deferral *)
  let n =
    site_counts
      (Prep.Config.make ~flit:true ~workers:1
         ~persist_policy:(policy_of_spec "log.fence_payload=elide") ())
  in
  check_bool "configured elide stands" true
    (n "sfence_policy_elided@log.fence_payload" > 0);
  check "nothing deferred" 0 (n "sfence_deferred@log.fence_payload");
  (* without FliT both fences are emitted, once per non-empty round *)
  let n = site_counts (policy_config None) in
  check_bool "baseline combines" true (n "sfence@log.fence_publish" > 0);
  check "baseline payload fence once per round"
    (n "sfence@log.fence_publish") (n "sfence@log.fence_payload");
  check "baseline defers nothing" 0 (n "sfence_deferred@log.fence_payload")

(* ---- the inference loop end-to-end on the smallest scope ---- *)

module PI = Check.Persist_infer.Make (H)

let test_infer_end_to_end () =
  let report =
    PI.infer ~mode:Prep.Config.Durable ~gen_op ~scope:scope_1w ~max_schedules
      ~template:{ (template ~seed:6) with Check.Fuzz.threads = 1;
                  ops_per_worker = 60 }
      ~fuzz_iters:6 ~ds:"hashmap" ()
  in
  let ws = Persist.weakenings report.Check.Persist_infer.r_policy in
  check_bool "at least one weakening admitted" true (ws <> []);
  check_bool "final policy explorer-exhausted" true
    report.Check.Persist_infer.r_exhausted;
  check_bool "fence count reduced" true
    (report.Check.Persist_infer.r_policy_fences
    < report.Check.Persist_infer.r_baseline_fences);
  (* the greedy log and the final policy must agree *)
  List.iter
    (fun (d : Check.Persist_infer.decision) ->
      let in_policy =
        List.mem_assoc d.Check.Persist_infer.d_site ws
      in
      match d.Check.Persist_infer.d_verdict with
      | Check.Persist_infer.Admitted ->
        check_bool
          ("admitted site in policy: "
          ^ Persist.to_string d.Check.Persist_infer.d_site)
          true in_policy
      | Check.Persist_infer.Rejected_explorer _
      | Check.Persist_infer.Rejected_fuzz _ -> (
        (* every rejection ships a copy-pasteable repro *)
        match d.Check.Persist_infer.d_repro with
        | Some cmd ->
          check_bool "repro is a CLI command" true
            (String.length cmd > 9 && String.sub cmd 0 9 = "dune exec")
        | None ->
          Alcotest.failf "rejection of %s has no repro"
            (Persist.to_string d.Check.Persist_infer.d_site))
      | Check.Persist_infer.Rejected_differential
      | Check.Persist_infer.Unproven -> ())
    report.Check.Persist_infer.r_decisions;
  (* the known-unsafe completedTail site must never be admitted *)
  check_bool "completed_tail never weakened" false
    (List.mem_assoc Persist.Prep_completed_tail ws)

(* A repro command names the configuration that failed. FliT changes the
   protocol under test (clean-line elision, and the payload-fence deferral
   it installs unless the candidate sets that site), so a FliT repro must
   pass --flit, and the printed command itself — policy, decision trace,
   crash point — must replay to a violation under FliT. *)
let test_infer_flit_repro_replays () =
  let config = Prep.Config.make ~flit:true ~workers:1 () in
  let report =
    PI.infer ~config ~mode:Prep.Config.Durable ~gen_op ~scope:scope_1w
      ~max_schedules
      ~template:{ (template ~seed:6) with Check.Fuzz.threads = 1;
                  ops_per_worker = 60 }
      ~fuzz_iters:6 ~ds:"hashmap" ()
  in
  let repros =
    List.filter_map
      (fun (d : Check.Persist_infer.decision) ->
        match d.Check.Persist_infer.d_verdict with
        | Check.Persist_infer.Rejected_explorer _ ->
          d.Check.Persist_infer.d_repro
        | _ -> None)
      report.Check.Persist_infer.r_decisions
  in
  check_bool "some candidate rejected by the explorer" true (repros <> []);
  List.iter
    (fun cmd ->
      let words = String.split_on_char ' ' cmd in
      let rec arg flag = function
        | f :: v :: _ when f = flag -> Some v
        | _ :: rest -> arg flag rest
        | [] -> None
      in
      let unquote v = String.sub v 1 (String.length v - 2) in
      check_bool ("repro passes --flit: " ^ cmd) true (List.mem "--flit" words);
      let policy =
        match arg "--persist-policy" words with
        | Some spec -> policy_of_spec (unquote spec)
        | None -> Alcotest.failf "repro names no policy: %s" cmd
      in
      let decisions =
        match arg "--replay" words with
        | Some t -> Check.Explore.decisions_of_string (unquote t)
        | None -> Alcotest.failf "repro has no decision trace: %s" cmd
      in
      let crash =
        match (arg "--crash-step" words, arg "--frontier" words) with
        | Some st, Some m -> Some (int_of_string st, int_of_string m)
        | _ -> None
      in
      let violations, _, _, _, _ =
        E.replay
          ~config:{ config with Prep.Config.persist_policy = Some policy }
          ~mode:Prep.Config.Durable ~fault:Prep.Config.No_fault ~gen_op
          ~scope:scope_1w ~decisions ?crash ()
      in
      check_bool ("repro replays to a violation: " ^ cmd) true
        (violations <> []))
    repros

(* Eliding the root-directory flushes leaves recovery a torn header to
   copy from, and the clone raises on it. That raise is a checker verdict:
   the CI derivation scope exits 124 with a VIOLATION and a replay
   command that reproduces it, instead of dying on the exception. *)
let test_recovery_raise_is_a_violation () =
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/prep_cli.exe"
  in
  let run args =
    let log = Filename.temp_file "persist_cli" ".out" in
    let code =
      Sys.command
        (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli) args
           (Filename.quote log))
    in
    let lines = In_channel.with_open_text log In_channel.input_lines in
    Sys.remove log;
    (code, lines)
  in
  let has_violation lines =
    List.exists (String.starts_with ~prefix:"VIOLATION: recovery raised") lines
  in
  let code, lines =
    run
      "explore --variant durable --ds hashmap --threads 1 --ops 2 --epsilon 1 \
       --log-size 16 --seed 6 --sockets 2 --cores 1 --persist-policy \
       roots.set=elide"
  in
  let out = String.concat "\n" lines in
  check ("explore exit code\n" ^ out) 124 code;
  check_bool ("recovery raise reported\n" ^ out) true (has_violation lines);
  let prefix = "  dune exec bin/prep_cli.exe -- " in
  match List.find_opt (String.starts_with ~prefix) lines with
  | None -> Alcotest.failf "no replay command\n%s" out
  | Some cmd ->
    let n = String.length prefix in
    let code, lines = run (String.sub cmd n (String.length cmd - n)) in
    let out = String.concat "\n" lines in
    check ("replay exit code\n" ^ out) 124 code;
    check_bool ("replay reproduces the raise\n" ^ out) true
      (has_violation lines)

let () =
  Alcotest.run "persist"
    [
      ( "semantics",
        [
          Alcotest.test_case "default policy emits" `Quick
            test_default_policy_emits;
          Alcotest.test_case "elide clflush" `Quick test_elide_clflush;
          Alcotest.test_case "downgrade clflush" `Quick test_downgrade_clflush;
          Alcotest.test_case "defer sfence" `Quick test_defer_sfence;
          Alcotest.test_case "elide clwb" `Quick test_elide_clwb;
          Alcotest.test_case "policy is per-site" `Quick
            test_policy_scoped_to_site;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "every site round-trips" `Quick
            test_every_site_roundtrips;
          Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "bad inputs rejected" `Quick
            test_bad_inputs_rejected;
          Alcotest.test_case "load inline spec" `Quick test_load_inline;
          Alcotest.test_case "split_counter" `Quick test_split_counter;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "completed-tail elide rejected" `Slow
            test_unsafe_ct_elide_rejected;
          Alcotest.test_case "completed-tail downgrade rejected" `Slow
            test_unsafe_ct_downgrade_rejected;
          Alcotest.test_case "recovery raise is a violation" `Quick
            test_recovery_raise_is_a_violation;
          Alcotest.test_case "publish-fence defer rejected" `Slow
            test_unsafe_publish_defer_rejected;
          Alcotest.test_case "proven set exhausts clean" `Slow
            test_proven_set_exhausts_clean;
        ] );
      ( "differential",
        [
          Alcotest.test_case "hashmap fuzz clean" `Slow test_fuzz_hashmap;
          Alcotest.test_case "rbtree fuzz clean" `Slow test_fuzz_rbtree;
          Alcotest.test_case "skiplist fuzz clean" `Slow test_fuzz_skiplist;
          Alcotest.test_case "crash-free runs identical" `Quick
            test_differential_crash_free;
          Alcotest.test_case "flit payload fence is the policy's deferral"
            `Quick test_flit_defers_payload_fence;
        ] );
      ( "inference",
        [
          Alcotest.test_case "greedy loop end-to-end" `Slow
            test_infer_end_to_end;
          Alcotest.test_case "flit repro replays its violation" `Slow
            test_infer_flit_repro_replays;
        ] );
    ]
