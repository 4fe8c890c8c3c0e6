(* The Harness.Campaign contract: a campaign's merged output is
   byte-identical at any [-j]. These tests pin that for the runner itself
   and for each harness that rides on it (fuzz episodes, session
   campaigns), including the property CI leans on hardest — a parallel
   fuzz run finds the *same* counterexample and shrinks it to the *same*
   minimal episode as a serial run. *)

open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module H = Seqds.Hashmap
module F = Check.Fuzz.Make (H)
module S = Harness.Session.Make (H)
module Campaign = Harness.Campaign

(* ---- the runner itself ---- *)

(* Results land in task order whatever domain computed them. The tasks
   are deliberately uneven (task i burns i*1000 iterations) so a greedy
   work queue finishes them out of order. *)
let test_run_order_and_equality () =
  let tasks () =
    Array.init 16 (fun i () ->
        let acc = ref (i * 7919) in
        for _ = 1 to i * 1000 do
          acc := (!acc * 1103515245) + 12345
        done;
        (i, !acc))
  in
  let serial = Campaign.run ~j:1 (tasks ()) in
  let parallel = Campaign.run ~j:4 (tasks ()) in
  check_bool "j=1 equals j=4" true (serial = parallel);
  Array.iteri (fun i (idx, _) -> check "slot i holds task i" i idx) parallel

let test_map () =
  let items = Array.init 10 (fun i -> i) in
  check_bool "map squares in order" true
    (Campaign.map ~j:3 (fun x -> x * x) items
    = Array.map (fun x -> x * x) items)

(* Lowest-indexed failure wins, and — in the parallel path — the rest of
   the queue still drains first (a campaign's surviving results must not
   depend on where an unrelated task failed). *)
let test_exception_policy () =
  let ran = Atomic.make 0 in
  let tasks =
    Array.init 8 (fun i () ->
        Atomic.incr ran;
        if i = 2 then failwith "low";
        if i = 5 then failwith "high";
        i)
  in
  (match Campaign.run ~j:4 tasks with
   | _ -> Alcotest.fail "expected the campaign to re-raise"
   | exception Failure msg ->
     Alcotest.(check string) "lowest-indexed failure re-raised" "low" msg);
  check "every task ran despite the failures" 8 (Atomic.get ran)

(* ---- fuzz campaigns through the runner ---- *)

(* Same mix as test_fuzz.ml. *)
let gen_op rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (H.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (H.op_remove, [| k |])
  | 6 | 7 | 8 -> (H.op_get, [| k |])
  | _ -> (H.op_size, [||])

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

let fuzz_at ~j ~mode ~fault ~template ~iters =
  let lines = ref [] in
  let res =
    F.fuzz ~mode ~fault ~gen_op ~template ~iters
      ~log:(fun l -> lines := l :: !lines)
      ~runner:(Campaign.run ~j) ()
  in
  (res, List.rev !lines)

let test_fuzz_parallel_identical () =
  let template = template ~seed:4200 ~epsilon:16 ~ops:120 in
  let mode = Config.Buffered and fault = Config.No_fault in
  let serial, slog = fuzz_at ~j:1 ~mode ~fault ~template ~iters:8 in
  let parallel, plog = fuzz_at ~j:4 ~mode ~fault ~template ~iters:8 in
  check "same episodes" serial.Check.Fuzz.episodes
    parallel.Check.Fuzz.episodes;
  check "same crashes" serial.Check.Fuzz.crashes parallel.Check.Fuzz.crashes;
  check_bool "same failures" true
    (serial.Check.Fuzz.failures = parallel.Check.Fuzz.failures);
  check_bool "clean campaign" true (serial.Check.Fuzz.failures = []);
  check_bool "same log lines in the same order" true (slog = plog)

(* The property CI leans on: a planted fault found under -j 4 is the SAME
   counterexample a serial run finds, and it shrinks to the SAME minimal
   episode — the whole plan is drawn before any episode runs and merged
   in episode order, so parallelism cannot change which failure is
   "first". *)
let test_fuzz_counterexample_equivalence () =
  let mode = Config.Buffered and fault = Config.Early_boundary_advance in
  let template = template ~seed:9000 ~epsilon:8 ~ops:120 in
  let serial, slog = fuzz_at ~j:1 ~mode ~fault ~template ~iters:8 in
  let parallel, plog = fuzz_at ~j:4 ~mode ~fault ~template ~iters:8 in
  check_bool "planted fault caught serially" true
    (serial.Check.Fuzz.failures <> []);
  check_bool "identical failure lists" true
    (serial.Check.Fuzz.failures = parallel.Check.Fuzz.failures);
  check_bool "identical log lines" true (slog = plog);
  let first_serial = (List.hd serial.Check.Fuzz.failures).Check.Fuzz.episode in
  let first_parallel =
    (List.hd parallel.Check.Fuzz.failures).Check.Fuzz.episode
  in
  check_bool "identical first counterexample" true
    (first_serial = first_parallel);
  let shrunk_serial = F.shrink ~mode ~fault ~gen_op first_serial in
  let shrunk_parallel = F.shrink ~mode ~fault ~gen_op first_parallel in
  check_bool
    (Fmt.str "identical shrunk episode (%a)" Check.Fuzz.pp_episode
       shrunk_serial)
    true
    (shrunk_serial = shrunk_parallel);
  let out = F.run_episode ~mode ~fault ~gen_op shrunk_serial in
  check_bool "shrunk repro still fails" true (out.Check.Fuzz.violations <> [])

(* ---- session campaigns through the runner ---- *)

let session_cfg ~seed =
  {
    Harness.Session.seed;
    ops_per_client = 12;
    crashes = 2;
    uc =
      Config.make ~mode:Config.Durable ~log_size:256 ~epsilon:4 ~detect:true
        ~workers:3 ();
  }

let test_session_campaign_parallel_identical () =
  let run j = S.campaign ~j (session_cfg ~seed:3) ~gen_op ~sessions:3 in
  let serial = run 1 and parallel = run 4 in
  check "same session count" (List.length serial) (List.length parallel);
  check_bool "outcome lists structurally identical" true (serial = parallel);
  List.iteri
    (fun i (o : Harness.Session.outcome) ->
      check (Printf.sprintf "session %d clean" i) 0
        (List.length o.Harness.Session.violations))
    serial

let () =
  Alcotest.run "campaign"
    [
      ( "runner",
        [
          Alcotest.test_case "task-order results, j-invariant" `Quick
            test_run_order_and_equality;
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "exception policy" `Quick test_exception_policy;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean campaign identical at -j 4" `Slow
            test_fuzz_parallel_identical;
          Alcotest.test_case "counterexample equivalence at -j 4" `Slow
            test_fuzz_counterexample_equivalence;
        ] );
      ( "session",
        [
          Alcotest.test_case "campaign identical at -j 4" `Slow
            test_session_campaign_parallel_identical;
        ] );
    ]
