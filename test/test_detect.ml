(* The detectability layer, bottom-up: the announce/response records'
   crash atomicity and seqno discipline (unit + property tests), the
   recovery-side resolve verdict after log replay, the invisibility of
   the layer when nothing crashes (differential fuzz), and the
   end-to-end exactly-once contract through crash-restart-continue
   sessions. The crash-point fuzz and exhaustive-exploration campaigns
   for the layer live in test_fuzz.ml and test_explore.ml. *)

open Nvm
open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module H = Seqds.Hashmap
module Uc = Prep_uc.Make (H)
module F = Check.Fuzz.Make (H)

(* checker configuration with the given feature flags; the checkers set
   mode, fault, epsilon, log size and workers themselves *)
let cfg = Config.make ~workers:1

module S = Harness.Session.Make (H)

let gen_op rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (H.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (H.op_remove, [| k |])
  | 6 | 7 | 8 -> (H.op_get, [| k |])
  | _ -> (H.op_size, [||])

(* ---- announce/response record unit tests ---- *)

let with_table ~threads f =
  Sim.run_one (fun () ->
      let m = Memory.make ~bg_period:0 () in
      let al = Alloc.create_persistent m ~home:0 in
      let a = Announce.create al ~threads in
      f a m)

let test_announce_lifecycle () =
  with_table ~threads:2 (fun a m ->
      check "fresh table: seqno 0" 0 (Announce.peek_seqno a 0);
      check_bool "fresh announce empty" true
        (Announce.announced a ~tid:0 = Announce.Empty);
      check_bool "fresh response empty" true
        (Announce.response a ~tid:0 = Announce.Empty);
      Announce.announce a ~tid:0 ~seqno:1 ~op:7 ~args:[| 3; 4 |];
      (match Announce.announced a ~tid:0 with
       | Announce.Valid { seqno; payload; args } ->
         check "announced seqno" 1 seqno;
         check "announced op" 7 payload;
         Alcotest.(check (array int)) "announced args" [| 3; 4 |] args
       | _ -> Alcotest.fail "announce did not read back Valid");
      check_bool "other thread untouched" true
        (Announce.announced a ~tid:1 = Announce.Empty);
      Announce.write_response a ~tid:0 ~seqno:1 ~result:42;
      Announce.flush_response a ~tid:0;
      (match Announce.response a ~tid:0 with
       | Announce.Valid { seqno; payload; args } ->
         check "response seqno" 1 seqno;
         check "response result" 42 payload;
         check "responses carry no args" 0 (Array.length args)
       | _ -> Alcotest.fail "response did not read back Valid");
      check "response_seqno" 1 (Announce.response_seqno a ~tid:0);
      (* the announce was CLFLUSHed, the response explicitly flushed:
         both survive a power failure bit-exactly *)
      Memory.crash m;
      check_bool "announce survives crash" true
        (match Announce.announced a ~tid:0 with
         | Announce.Valid { seqno = 1; payload = 7; _ } -> true
         | _ -> false);
      check_bool "response survives crash" true
        (match Announce.response a ~tid:0 with
         | Announce.Valid { seqno = 1; payload = 42; _ } -> true
         | _ -> false))

let test_announce_seqno_discipline () =
  with_table ~threads:1 (fun a _m ->
      Announce.announce a ~tid:0 ~seqno:2 ~op:1 ~args:[||];
      (* equal seqno is a resubmission and must be accepted *)
      Announce.announce a ~tid:0 ~seqno:2 ~op:1 ~args:[||];
      (* gaps forward are fine (client counts privately) *)
      Announce.announce a ~tid:0 ~seqno:5 ~op:1 ~args:[||];
      Alcotest.check_raises "regression rejected"
        (Invalid_argument "Announce.announce: seqno regressed") (fun () ->
          Announce.announce a ~tid:0 ~seqno:4 ~op:1 ~args:[||]);
      Alcotest.check_raises "seqno 0 rejected"
        (Invalid_argument "Announce.announce: seqno must be positive")
        (fun () -> Announce.announce a ~tid:0 ~seqno:0 ~op:1 ~args:[||]);
      Alcotest.check_raises "too many args rejected"
        (Invalid_argument "Announce.announce: too many args") (fun () ->
          Announce.announce a ~tid:0 ~seqno:6 ~op:1 ~args:[| 1; 2; 3; 4 |]))

let test_torn_announce_never_trusted () =
  (* A background flush may capture the announce line between the seqno
     write and the commit write; if the crash lands before the final
     CLFLUSH drains, media holds a half-rewritten record. Reproduce that
     exact media state by hand (the partial writes plus a flush standing
     in for the background capture) and check the reader reports Torn
     rather than trusting the payload. *)
  with_table ~threads:1 (fun a m ->
      Announce.announce a ~tid:0 ~seqno:1 ~op:7 ~args:[| 3 |];
      let base = Announce.base a in
      (* the rewrite for seqno 2, interrupted after the seqno word: commit
         retracted, payload replaced, seqno written, commit still 0 *)
      Memory.write m (base + 6) 0 (* an_commit *);
      Memory.write m (base + 1) 9 (* an_op *);
      Memory.write m base 2 (* an_seq *);
      Memory.clflush ~site:Persist.Test m base (* the background flush capturing mid-write *);
      Memory.crash m;
      match Announce.announced a ~tid:0 with
      | Announce.Torn { seqno; commit } ->
        check "torn seqno" 2 seqno;
        check "torn commit" 0 commit
      | Announce.Valid _ -> Alcotest.fail "torn record trusted as Valid"
      | Announce.Empty -> Alcotest.fail "torn record read as Empty")

let prop_announce_roundtrip_survives_crash =
  QCheck.Test.make ~count:80
    ~name:"any announce sequence: last record survives crash bit-exactly"
    QCheck.(
      pair (int_bound 30)
        (small_list (triple (int_bound 50) (small_list (int_bound 100)) (int_bound 3))))
    (fun (gap0, steps) ->
      steps = []
      || with_table ~threads:1 (fun a m ->
             let seq = ref gap0 in
             let last = ref (0, [||]) in
             List.iter
               (fun (op, args, gap) ->
                 let args =
                   Array.of_list (List.filteri (fun i _ -> i < 3) args)
                 in
                 seq := !seq + 1 + gap;
                 Announce.announce a ~tid:0 ~seqno:!seq ~op ~args;
                 last := (op, args))
               steps;
             Memory.crash m;
             let op, args = !last in
             match Announce.announced a ~tid:0 with
             | Announce.Valid { seqno; payload; args = got } ->
               seqno = !seq && payload = op && got = args
             | Announce.Torn _ | Announce.Empty -> false))

(* ---- resolve after recovery's log replay ---- *)

let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }
let beta = topology.Sim.Topology.cores_per_socket

let test_resolve_completed_after_quiescent_crash () =
  (* one client, three announced inserts, clean shutdown, power failure:
     recovery must replay everything and resolve must name the frontier *)
  let mem = Memory.make ~bg_period:0 ~sockets:2 () in
  let sim = Sim.create ~seed:3L topology in
  let uc_ref = ref None in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Roots.make mem in
         let cfg =
           Config.make ~mode:Config.Durable ~log_size:64 ~epsilon:4
             ~detect:true ~workers:1 ()
         in
         let uc = Uc.create mem roots cfg in
         uc_ref := Some uc;
         Uc.start_persistence uc;
         Uc.register_worker uc;
         for k = 1 to 3 do
           check "insert fresh" 1
             (Uc.execute uc ~op:H.op_insert ~args:[| k; k * 10 |])
         done;
         Uc.stop uc;
         Uc.sync uc));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  let uc = Option.get !uc_ref in
  Memory.crash mem;
  Context.reset ();
  let sim2 = Sim.create ~seed:4L topology in
  let out = ref None in
  ignore
    (Sim.spawn sim2 ~socket:0 (fun () ->
         let uc', report = Uc.recover uc in
         out := Some (report, Uc.resolve uc' ~tid:0, Uc.resolve uc' ~tid:1)));
  (match Sim.run sim2 () with `Done -> () | `Cut _ -> Alcotest.fail "cut2");
  let report, r0, r1 = Option.get !out in
  check "all three ops recovered" 3 (List.length report.Prep_uc.applied);
  (match r0 with
   | Prep_uc.Completed { seqno; result } ->
     check "resolve names the last seqno" 3 seqno;
     check "resolve carries the durable result" 1 result
   | Prep_uc.Lost _ -> Alcotest.fail "quiescent op resolved Lost"
   | Prep_uc.Unannounced -> Alcotest.fail "quiescent op resolved Unannounced");
  (* threads that never announced resolve Unannounced *)
  check_bool "idle thread unannounced" true (r1 = Prep_uc.Unannounced)

let test_resolve_consistent_after_midrun_crash () =
  (* four clients cut mid-run by a power failure: after recovery every
     verdict must agree with the ghost trace — Completed s iff s is the
     thread's latest applied seqno, Lost a only if a never applied *)
  List.iter
    (fun seed ->
      let mem = Memory.make ~bg_period:2000 ~sockets:2 () in
      let sim = Sim.create ~seed ~preempt_prob:0.02 topology in
      let workers = 4 in
      let uc_ref = ref None in
      ignore
        (Sim.spawn sim ~socket:0 (fun () ->
             let roots = Roots.make mem in
             let cfg =
               Config.make ~mode:Config.Durable ~log_size:128 ~epsilon:8
                 ~detect:true ~workers ()
             in
             let uc = Uc.create mem roots cfg in
             uc_ref := Some uc;
             Uc.start_persistence uc;
             for w = 0 to workers - 1 do
               let socket, core = Sim.Topology.place topology w in
               Sim.spawn_here ~socket ~core (fun () ->
                   Uc.register_worker uc;
                   let rng = Sim.fiber_rng () in
                   while true do
                     let k = Sim.Rng.int rng 50 in
                     ignore
                       (Uc.execute uc ~op:H.op_insert
                          ~args:[| k; Sim.Rng.int rng 1000 |])
                   done)
             done));
      (match Sim.run ~until:2_000_000 sim () with
       | `Cut _ -> ()
       | `Done -> Alcotest.fail "workload finished before the crash point");
      let uc = Option.get !uc_ref in
      let trace = Uc.trace uc in
      Memory.crash mem;
      Context.reset ();
      let sim2 = Sim.create ~seed:(Int64.add seed 1L) topology in
      let out = ref None in
      ignore
        (Sim.spawn sim2 ~socket:0 (fun () ->
             let uc', report = Uc.recover uc in
             let resolutions =
               List.init workers (fun w ->
                   let socket, core = Sim.Topology.place topology w in
                   let tid = (socket * beta) + core in
                   (tid, Uc.resolve uc' ~tid))
             in
             out := Some (report, resolutions)));
      (match Sim.run sim2 () with
       | `Done -> ()
       | `Cut _ -> Alcotest.fail "cut2");
      let report, resolutions = Option.get !out in
      let applied_seqno =
        let tbl : (int, int) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun i ->
            let e = Trace.get trace i in
            if e.Trace.seqno > 0 then
              let cur =
                Option.value ~default:0 (Hashtbl.find_opt tbl e.Trace.tid)
              in
              if e.Trace.seqno > cur then
                Hashtbl.replace tbl e.Trace.tid e.Trace.seqno)
          report.Prep_uc.applied;
        fun tid -> Option.value ~default:0 (Hashtbl.find_opt tbl tid)
      in
      let vs =
        Check.Durable_lin.check_resolutions ~resolutions ~applied_seqno
      in
      if vs <> [] then
        Alcotest.failf "seed %Ld: %s" seed
          (String.concat "; "
             (List.map Check.Durable_lin.violation_to_string vs)))
    [ 51L; 52L; 53L ]

(* ---- differential: detect invisible without crashes ---- *)

let template ~seed ~ops =
  {
    Check.Fuzz.workload_seed = seed;
    threads = 4;
    epsilon = 16;
    log_size = 256;
    ops_per_worker = ops;
    bg_period = 2000;
    preempt_prob = 0.02;
    crash = Check.Fuzz.No_crash;
  }

let test_detect_invisible_without_crash () =
  (* crash-free episodes with the layer off and on must both be clean,
     and in the single-worker preemption-free calibration (where the op
     stream is a pure function of the seed) the layer must not change
     which ops are logged, completed or applied — announces and
     responses only add memory traffic, never semantics *)
  let base =
    F.run_episode ~mode:Config.Durable ~fault:Config.No_fault ~gen_op
      (template ~seed:31 ~ops:120)
  in
  let det =
    F.run_episode ~config:(cfg ~detect:true ())
      ~mode:Config.Durable ~fault:Config.No_fault
      ~gen_op (template ~seed:31 ~ops:120)
  in
  check "no-crash base clean" 0 (List.length base.Check.Fuzz.violations);
  check "no-crash detect clean" 0 (List.length det.Check.Fuzz.violations);
  let calib =
    { (template ~seed:31 ~ops:80) with
      Check.Fuzz.threads = 1;
      preempt_prob = 0.0 }
  in
  let a = F.run_episode ~mode:Config.Durable ~fault:Config.No_fault ~gen_op calib in
  let b =
    F.run_episode ~config:(cfg ~detect:true ())
      ~mode:Config.Durable ~fault:Config.No_fault
      ~gen_op calib
  in
  check "calibration: same logged" a.Check.Fuzz.logged b.Check.Fuzz.logged;
  check "calibration: same completed" a.Check.Fuzz.completed
    b.Check.Fuzz.completed;
  check "calibration: same applied" a.Check.Fuzz.applied b.Check.Fuzz.applied

(* ---- crash-restart-continue sessions: the exactly-once contract ---- *)

let session_cfg ~seed ~crashes ~detect =
  {
    Harness.Session.default_config with
    Harness.Session.seed;
    threads = 3;
    ops_per_client = 12;
    epsilon = 4;
    log_size = 256;
    crashes;
    detect;
  }

let test_session_exactly_once_with_detect () =
  let outcomes =
    S.campaign (session_cfg ~seed:3 ~crashes:2 ~detect:true) ~gen_op
      ~sessions:2
  in
  List.iteri
    (fun i (o : Harness.Session.outcome) ->
      let label f = Printf.sprintf "session %d: %s" i f in
      if o.Harness.Session.violations <> [] then
        Alcotest.failf "session %d: %s" i
          (String.concat "; "
             (List.map Check.Durable_lin.violation_to_string
                o.Harness.Session.violations));
      check (label "every scripted op applied exactly once") (3 * 12)
        o.Harness.Session.completed;
      check (label "zero lost") 0 o.Harness.Session.lost;
      check (label "zero duplicated") 0 o.Harness.Session.duplicated;
      check_bool (label "crashes were injected") true
        (o.Harness.Session.crashes_injected > 0);
      check (label "one epoch per crash plus the final run")
        (o.Harness.Session.crashes_injected + 1)
        (List.length o.Harness.Session.epochs))
    outcomes

let test_session_baseline_documents_the_gap () =
  (* without detectability the honest client skips its uncertain
     in-flight op instead of risking a duplicate: the session must stay
     duplicate- and violation-free, and any losses are precisely the gap
     the detect layer closes (the campaign seeds here do lose ops; a
     zero would mean the harness stopped exercising the window) *)
  let outcomes =
    S.campaign (session_cfg ~seed:3 ~crashes:2 ~detect:false) ~gen_op
      ~sessions:2
  in
  let lost = ref 0 in
  List.iteri
    (fun i (o : Harness.Session.outcome) ->
      if o.Harness.Session.violations <> [] then
        Alcotest.failf "session %d: %s" i
          (String.concat "; "
             (List.map Check.Durable_lin.violation_to_string
                o.Harness.Session.violations));
      check
        (Printf.sprintf "session %d: no duplicates without resubmission" i)
        0 o.Harness.Session.duplicated;
      check
        (Printf.sprintf "session %d: no resubmission without detect" i)
        0 o.Harness.Session.resubmitted;
      lost := !lost + o.Harness.Session.lost)
    outcomes;
  check_bool "the baseline loses ops the detect campaign kept" true (!lost > 0)

let test_session_deterministic () =
  let run () = S.run (session_cfg ~seed:5 ~crashes:1 ~detect:true) ~gen_op in
  let a = run () and b = run () in
  check "same submitted" a.Harness.Session.submitted b.Harness.Session.submitted;
  check "same resubmitted" a.Harness.Session.resubmitted
    b.Harness.Session.resubmitted;
  check "same history" a.Harness.Session.history_len
    b.Harness.Session.history_len;
  check "same crashes" a.Harness.Session.crashes_injected
    b.Harness.Session.crashes_injected

let () =
  Alcotest.run "detect"
    [
      ( "announce",
        [
          Alcotest.test_case "record lifecycle" `Quick test_announce_lifecycle;
          Alcotest.test_case "seqno discipline" `Quick
            test_announce_seqno_discipline;
          Alcotest.test_case "torn record never trusted" `Quick
            test_torn_announce_never_trusted;
          QCheck_alcotest.to_alcotest prop_announce_roundtrip_survives_crash;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "completed after quiescent crash" `Quick
            test_resolve_completed_after_quiescent_crash;
          Alcotest.test_case "consistent after mid-run crash" `Slow
            test_resolve_consistent_after_midrun_crash;
        ] );
      ( "differential",
        [
          Alcotest.test_case "invisible without crashes" `Slow
            test_detect_invisible_without_crash;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "exactly-once with detect" `Slow
            test_session_exactly_once_with_detect;
          Alcotest.test_case "baseline documents the gap" `Slow
            test_session_baseline_documents_the_gap;
          Alcotest.test_case "session deterministic" `Slow
            test_session_deterministic;
        ] );
    ]
