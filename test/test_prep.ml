(* Tests for the PREP-UC universal construction: all three modes, the
   baselines, crash/recovery, and the paper's loss bounds. *)

open Nvm
open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

module Uc = Prep_uc.Make (Seqds.Hashmap)
module H = Seqds.Hashmap

let ins k v = (H.op_insert, [| k; v |])

(* Build a simulation, a memory with roots, and run [body] as a fiber. *)
let with_world ?(seed = 1L) ?(bg_period = 0)
    ?(topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }) body =
  let sim = Sim.create ~seed topology in
  let mem = Memory.make ~bg_period ~sockets:topology.Sim.Topology.sockets () in
  let result = ref None in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      let roots = Roots.make mem in
      result := Some (body sim mem roots)));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  Option.get !result

(* Spawn [workers] fibers that each run [ops_per_worker] random hashmap
   ops through [uc], then return. Returns when all are spawned (they run
   within the same Sim.run). *)
let spawn_workers sim uc ~topology ~workers ~ops_per_worker ~keyspace
    ~update_pct ~done_count =
  for w = 0 to workers - 1 do
    let socket, core = Sim.Topology.place topology w in
    ignore
      (Sim.spawn sim ~socket ~core (fun () ->
           Uc.register_worker uc;
           let rng = Sim.fiber_rng () in
           for _ = 1 to ops_per_worker do
             let k = Sim.Rng.int rng keyspace in
             if Sim.Rng.int rng 100 < update_pct then
               if Sim.Rng.bool rng then
                 ignore (Uc.execute uc ~op:H.op_insert ~args:[| k; Sim.Rng.int rng 1000 |])
               else ignore (Uc.execute uc ~op:H.op_remove ~args:[| k |])
             else ignore (Uc.execute uc ~op:H.op_get ~args:[| k |])
           done;
           incr done_count))
  done

(* Replay the UC's prefill + trace prefix through the pure model. *)
let model_of_ops ops =
  List.fold_left
    (fun m (op, args) -> fst (H.Model.apply m ~op ~args))
    H.Model.empty ops

let trace_ops trace idxs =
  List.map
    (fun i ->
      let e = Trace.get trace i in
      (e.Trace.op, e.Trace.args))
    idxs

(* ---- volatile (PREP-V / NR-UC) ---- *)

let test_volatile_single_worker () =
  with_world (fun _sim mem roots ->
      let cfg = Config.make ~mode:Config.Volatile ~workers:1 () in
      let uc = Uc.create mem roots cfg in
      Uc.register_worker uc;
      check "insert" 1 (Uc.execute uc ~op:H.op_insert ~args:[| 1; 10 |]);
      check "insert2" 1 (Uc.execute uc ~op:H.op_insert ~args:[| 2; 20 |]);
      check "get" 10 (Uc.execute uc ~op:H.op_get ~args:[| 1 |]);
      check "replace" 0 (Uc.execute uc ~op:H.op_insert ~args:[| 1; 11 |]);
      check "get2" 11 (Uc.execute uc ~op:H.op_get ~args:[| 1 |]);
      check "remove" 1 (Uc.execute uc ~op:H.op_remove ~args:[| 2 |]);
      check "gone" (-1) (Uc.execute uc ~op:H.op_get ~args:[| 2 |]);
      check "size" 1 (Uc.execute uc ~op:H.op_size ~args:[||]))

let test_volatile_prefill () =
  with_world (fun _sim mem roots ->
      let cfg = Config.make ~mode:Config.Volatile ~workers:1 () in
      let uc = Uc.create ~prefill:[ ins 7 70; ins 8 80 ] mem roots cfg in
      Uc.register_worker uc;
      check "prefilled" 70 (Uc.execute uc ~op:H.op_get ~args:[| 7 |]);
      check "prefilled2" 80 (Uc.execute uc ~op:H.op_get ~args:[| 8 |]))

let concurrent_final_state_matches_trace mode =
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  with_world ~topology (fun sim mem roots ->
      let workers = 6 in
      let cfg =
        Config.make ~mode ~log_size:256 ~epsilon:64 ~workers ()
      in
      let uc = Uc.create ~prefill:[ ins 0 1 ] mem roots cfg in
      Uc.start_persistence uc;
      let done_count = ref 0 in
      spawn_workers sim uc ~topology ~workers ~ops_per_worker:120 ~keyspace:40
        ~update_pct:60 ~done_count;
      (* wait for the workers inside this orchestration fiber *)
      while !done_count < workers do
        Sim.tick 10_000
      done;
      Uc.stop uc;
      Uc.sync uc;
      (* final state must equal the model replay of the linearization *)
      let trace = Uc.trace uc in
      let all = List.init (Trace.length trace) (fun i -> i) in
      let expected =
        model_of_ops (Uc.prefill_ops uc @ trace_ops trace all)
      in
      check_list "final state = trace replay" (H.Model.snapshot expected)
        (Uc.snapshot uc);
      (* every logged update completed (quiescent run) *)
      check "all ops completed" (Trace.length trace)
        (List.length (Trace.completed_indexes trace)))

let test_volatile_concurrent () = concurrent_final_state_matches_trace Config.Volatile
let test_buffered_concurrent () = concurrent_final_state_matches_trace Config.Buffered
let test_durable_concurrent () = concurrent_final_state_matches_trace Config.Durable

let test_log_wraps () =
  (* run enough ops through a tiny log to wrap it several times *)
  with_world (fun _sim mem roots ->
      let cfg = Config.make ~mode:Config.Volatile ~log_size:16 ~workers:1 () in
      let uc = Uc.create mem roots cfg in
      Uc.register_worker uc;
      for i = 0 to 99 do
        ignore (Uc.execute uc ~op:H.op_insert ~args:[| i mod 10; i |])
      done;
      for i = 0 to 9 do
        check "wrapped state" (90 + i) (Uc.execute uc ~op:H.op_get ~args:[| i |])
      done)

(* ---- crash & recovery ---- *)

(* Run a workload, cut the simulation at [crash_at] ns (a power failure),
   crash the memory, then recover in a fresh simulation and return
   (uc', report, old trace, old prefill, epsilon, beta). *)
let crash_and_recover ~mode ~seed ~crash_at ~workers ~epsilon ~log_size
    ?(bg_period = 2000) ?(flit = false) ?(dist_rw = false)
    ?(log_mirror = false) ?(flush = Config.Wbinvd) () =
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  let sim = Sim.create ~seed topology in
  let mem = Memory.make ~bg_period ~sockets:2 () in
  let uc_ref = ref None in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      let roots = Roots.make mem in
      let cfg =
        Config.make ~mode ~log_size ~epsilon ~workers ~flush ~flit ~dist_rw
          ~log_mirror ()
      in
      let uc = Uc.create ~prefill:[ ins 1000 1 ] mem roots cfg in
      Uc.start_persistence uc;
      uc_ref := Some uc;
      let done_count = ref 0 in
      spawn_workers sim uc ~topology ~workers ~ops_per_worker:100_000
        ~keyspace:50 ~update_pct:100 ~done_count));
  (* the cut is the power failure: fibers are abandoned mid-operation *)
  (match Sim.run ~until:crash_at sim () with
   | `Cut _ -> ()
   | `Done -> Alcotest.fail "workload finished before the crash point");
  let uc = Option.get !uc_ref in
  Memory.crash mem;
  Context.reset ();
  (* recover in a fresh simulation (fresh threads, same memory) *)
  let sim2 = Sim.create ~seed:(Int64.add seed 1L) topology in
  let out = ref None in
  ignore (Sim.spawn sim2 ~socket:0 (fun () ->
      out := Some (Uc.recover uc)));
  (match Sim.run sim2 () with `Done -> () | `Cut _ -> Alcotest.fail "cut2");
  let uc', report = Option.get !out in
  (uc', report, Uc.trace uc, Uc.prefill_ops uc, epsilon)

let beta = 4 (* cores per socket in these tests *)

let test_buffered_crash_prefix_and_bound () =
  List.iter
    (fun seed ->
      let uc', report, trace, prefill, epsilon =
        crash_and_recover ~mode:Config.Buffered ~seed ~crash_at:3_000_000
          ~workers:6 ~epsilon:32 ~log_size:128 ()
      in
      check_bool "recovered a contiguous prefix" true
        report.Prep_uc.contiguous_prefix;
      check_bool
        (Printf.sprintf "loss %d within epsilon+beta-1 = %d"
           report.Prep_uc.lost_completed (epsilon + beta - 1))
        true
        (report.Prep_uc.lost_completed <= epsilon + beta - 1);
      (* the recovered state must be exactly the replay of the prefix *)
      let expected =
        model_of_ops (prefill @ trace_ops trace report.Prep_uc.applied)
      in
      check_list "recovered state = prefix replay" (H.Model.snapshot expected)
        (Uc.snapshot uc'))
    [ 11L; 12L; 13L; 14L ]

(* The 5-worker runs leave socket 1's replica one worker, so its
   combiner collects only its caller's slot while socket 0's sweeps all
   beta. *)
let test_durable_crash_no_completed_loss () =
  List.iter
    (fun (seed, workers) ->
      let uc', report, trace, prefill, _ =
        crash_and_recover ~mode:Config.Durable ~seed ~crash_at:3_000_000
          ~workers ~epsilon:32 ~log_size:128 ()
      in
      check "no completed op lost" 0 report.Prep_uc.lost_completed;
      check "no completed op skipped as hole" 0 report.Prep_uc.skipped_completed;
      let expected =
        model_of_ops (prefill @ trace_ops trace report.Prep_uc.applied)
      in
      check_list "recovered state = applied replay" (H.Model.snapshot expected)
        (Uc.snapshot uc'))
    [ (21L, 6); (22L, 6); (23L, 6); (24L, 6); (29L, 5) ]

(* ---- FliT flush-elimination equivalence ---- *)

(* The flush-elimination layer must be semantically invisible: with a
   single worker the op stream is a deterministic function of the seed
   (fiber RNG streams do not depend on simulated time), so a baseline and
   a flit run of the same seed must produce bit-identical linearizations,
   responses and final states. Run the comparison over all three
   sequential maps (they share op codes) to exercise different replica
   write patterns under the optimized combiner. *)
module Flit_equiv (D : Seqds.Ds_intf.S) = struct
  module U = Prep_uc.Make (D)

  let run ?(dist_rw = false) ?(log_mirror = false) ~flit () =
    with_world ~seed:17L ~bg_period:2000 (fun _sim mem roots ->
        let cfg =
          Config.make ~mode:Config.Durable ~log_size:128 ~epsilon:32
            ~workers:1 ~flit ~dist_rw ~log_mirror ()
        in
        let uc = U.create mem roots cfg in
        U.start_persistence uc;
        U.register_worker uc;
        let rng = Sim.fiber_rng () in
        let responses = ref [] in
        for _ = 1 to 400 do
          let k = Sim.Rng.int rng 40 in
          let op, args =
            (* op codes shared by hashmap / rbtree / skiplist *)
            match Sim.Rng.int rng 10 with
            | 0 | 1 | 2 | 3 -> (H.op_insert, [| k; Sim.Rng.int rng 1000 |])
            | 4 | 5 -> (H.op_remove, [| k |])
            | 6 | 7 | 8 -> (H.op_get, [| k |])
            | _ -> (H.op_size, [||])
          in
          responses := U.execute uc ~op ~args :: !responses
        done;
        U.stop uc;
        U.sync uc;
        let trace = U.trace uc in
        let lin =
          List.init (Trace.length trace) (fun i ->
              let e = Trace.get trace i in
              (e.Trace.op, Array.to_list e.Trace.args))
        in
        (List.rev !responses, lin, U.snapshot uc))

  let equal_runs (resp_b, lin_b, snap_b) (resp_o, lin_o, snap_o) =
    check_bool "identical linearization" true (lin_b = lin_o);
    check_list "identical responses" resp_b resp_o;
    check_list "identical final state" snap_b snap_o;
    check_bool "nonempty run" true (List.length lin_b > 0)

  let test () = equal_runs (run ~flit:false ()) (run ~flit:true ())
end

module Eq_hm = Flit_equiv (Seqds.Hashmap)
module Eq_rb = Flit_equiv (Seqds.Rbtree)
module Eq_sl = Flit_equiv (Seqds.Skiplist)

let test_flit_equiv_hashmap () = Eq_hm.test ()
let test_flit_equiv_rbtree () = Eq_rb.test ()
let test_flit_equiv_skiplist () = Eq_sl.test ()

(* ---- NUMA hot-path package equivalence ----

   The distributed reader lock and the DRAM log mirror must each be as
   semantically invisible as flit: same seed, same linearization,
   responses and final state whether the flag is on or off. The last
   case turns everything on at once (the shipping configuration). *)

let test_dist_rw_equiv_hashmap () =
  Eq_hm.equal_runs (Eq_hm.run ~flit:false ())
    (Eq_hm.run ~dist_rw:true ~flit:false ())

let test_log_mirror_equiv_hashmap () =
  Eq_hm.equal_runs (Eq_hm.run ~flit:false ())
    (Eq_hm.run ~log_mirror:true ~flit:false ())

let test_numa_package_equiv_hashmap () =
  Eq_hm.equal_runs
    (Eq_hm.run ~flit:false ())
    (Eq_hm.run ~dist_rw:true ~log_mirror:true ~flit:true ())

let test_numa_package_equiv_rbtree () =
  Eq_rb.equal_runs
    (Eq_rb.run ~flit:false ())
    (Eq_rb.run ~dist_rw:true ~log_mirror:true ~flit:true ())

let test_durable_flit_crash_no_completed_loss () =
  (* durable guarantees are mode properties, not flush-layer properties:
     with flit on, a crash must still lose no completed operation *)
  List.iter
    (fun seed ->
      let uc', report, trace, prefill, _ =
        crash_and_recover ~mode:Config.Durable ~flit:true ~seed
          ~crash_at:3_000_000 ~workers:6 ~epsilon:32 ~log_size:128 ()
      in
      check "no completed op lost" 0 report.Prep_uc.lost_completed;
      check "no completed op skipped as hole" 0 report.Prep_uc.skipped_completed;
      let expected =
        model_of_ops (prefill @ trace_ops trace report.Prep_uc.applied)
      in
      check_list "recovered state = applied replay" (H.Model.snapshot expected)
        (Uc.snapshot uc'))
    [ 21L; 22L; 23L; 24L ]

let test_durable_numa_crash_no_completed_loss () =
  (* durable guarantees must survive the whole hot-path package: the DRAM
     mirror is never consulted by recovery, the distributed lock protects
     the same sections *)
  List.iter
    (fun (seed, workers) ->
      let uc', report, trace, prefill, _ =
        crash_and_recover ~mode:Config.Durable ~flit:true ~dist_rw:true
          ~log_mirror:true ~seed ~crash_at:3_000_000 ~workers ~epsilon:32
          ~log_size:128 ()
      in
      check "no completed op lost" 0 report.Prep_uc.lost_completed;
      check "no completed op skipped as hole" 0 report.Prep_uc.skipped_completed;
      let expected =
        model_of_ops (prefill @ trace_ops trace report.Prep_uc.applied)
      in
      check_list "recovered state = applied replay" (H.Model.snapshot expected)
        (Uc.snapshot uc'))
    [ (25L, 6); (26L, 6); (27L, 6); (28L, 6); (30L, 5) ]

(* ---- the one-worker slot sweep ----

   A replica whose socket hosts one worker collects only its caller's
   slot. That must stay safe when the count is wrong: an instance built
   for one worker but driven by two fibers on socket 0 still completes
   every operation, because each publisher combines for itself. *)
module Lin = Check.Linearizability.Make (H.Model)

let test_solo_sweep_miscounted () =
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  let sim = Sim.create ~seed:41L topology in
  let mem = Memory.make ~bg_period:2000 ~sockets:2 () in
  let history = Check.History.create () in
  let prefill = [ ins 0 1 ] in
  let fibers = 2 and ops_each = 25 in
  let done_count = ref 0 and out = ref None in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      let cfg =
        Config.make ~mode:Config.Durable ~log_size:64 ~epsilon:16 ~workers:1 ()
      in
      let uc = Uc.create ~prefill mem (Roots.make mem) cfg in
      Uc.start_persistence uc;
      for w = 0 to fibers - 1 do
        Sim.spawn_here ~socket:0 ~core:w (fun () ->
            Uc.register_worker uc;
            let rng = Sim.fiber_rng () in
            for _ = 1 to ops_each do
              let k = Sim.Rng.int rng 3 in
              let op, args =
                match Sim.Rng.int rng 3 with
                | 0 -> (H.op_insert, [| k; Sim.Rng.int rng 100 |])
                | 1 -> (H.op_remove, [| k |])
                | _ -> (H.op_get, [| k |])
              in
              ignore
                (Check.History.wrap history ~thread:w (Uc.execute uc) ~op ~args)
            done;
            incr done_count)
      done;
      while !done_count < fibers do
        Sim.tick 10_000
      done;
      Uc.stop uc;
      Uc.sync uc;
      out := Some uc));
  (match Sim.run ~until:50_000_000 sim () with
   | `Done -> ()
   | `Cut _ -> Alcotest.fail "wedged: a publisher's slot was never collected");
  let uc = Option.get !out in
  check "every operation completed" (fibers * ops_each)
    (Check.History.length history);
  check_bool "history linearizes" true
    (Lin.check_with_prefill ~prefill (Check.History.events history)
     = Lin.Linearizable);
  let trace = Uc.trace uc in
  let all = List.init (Trace.length trace) Fun.id in
  check_list "final state = sequential replay"
    (H.Model.snapshot (model_of_ops (prefill @ trace_ops trace all)))
    (Uc.snapshot uc)

(* ---- readers must help (Algorithm 3) ----

   Regression for a deadlock in [execute_readonly]'s spin path: a reader
   waiting for its replica's combiner lock must service updateReplicaNow.
   Construction: worker 0 on replica 0 wraps a tiny log while replica 1
   never advances; once logMin is pinned, worker 0 sets updateReplicaNow(1)
   and spins. Its direct-help fallback is defeated by a fiber that sits on
   replica 1's combiner lock, so the only thread able to catch replica 1 up
   is the reader spinning in [execute_readonly] — exactly the path that
   used to omit [help_if_asked] and wedged this schedule forever. *)
let test_readonly_spin_helps () =
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  let sim = Sim.create ~seed:91L topology in
  let mem = Memory.make ~bg_period:0 ~sockets:2 () in
  let reader_done = ref false in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      let roots = Roots.make mem in
      let cfg =
        (* workers:5 > beta so that two replicas exist (one per socket) *)
        Config.make ~mode:Config.Volatile ~log_size:16 ~workers:5 ()
      in
      let uc = Uc.create ~prefill:[ ins 1000 10 ] mem roots cfg in
      (* blocker: camp on replica 1's combiner lock until the reader is
         through, defeating the combiner's direct-help fallback *)
      ignore (Sim.spawn sim ~socket:1 ~core:0 (fun () ->
          let r1 = uc.Uc.replicas.(1) in
          while not (Locks.Trylock.try_acquire r1.Uc.combiner) do
            Sim.spin ()
          done;
          while not !reader_done do Sim.spin () done;
          Locks.Trylock.release r1.Uc.combiner));
      (* writer: wraps the 16-entry log several times over; wedges in
         update_or_wait_on_log_min once replica 1 pins logMin *)
      ignore (Sim.spawn sim ~socket:0 ~core:0 (fun () ->
          Uc.register_worker uc;
          for i = 1 to 60 do
            ignore (Uc.execute uc ~op:H.op_insert ~args:[| i mod 8; i |])
          done));
      (* reader on replica 1, arriving after the writer is stuck *)
      ignore (Sim.spawn sim ~socket:1 ~core:1 (fun () ->
          Uc.register_worker uc;
          Sim.tick 300_000;
          check "reader sees prefill" 10
            (Uc.execute uc ~op:H.op_get ~args:[| 1000 |]);
          reader_done := true))));
  (match Sim.run ~until:50_000_000 sim () with
   | `Done -> ()
   | `Cut _ -> Alcotest.fail "system wedged: reader never helped its replica");
  check_bool "reader completed" true !reader_done

let test_recovered_uc_still_works () =
  let uc', _, _, _, _ =
    crash_and_recover ~mode:Config.Durable ~seed:31L ~crash_at:2_000_000
      ~workers:6 ~epsilon:32 ~log_size:128 ()
  in
  (* run more operations on the recovered instance *)
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  let sim = Sim.create ~seed:32L topology in
  let passed = ref false in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      Uc.register_worker uc';
      Uc.start_persistence uc';
      check "insert after recovery" 1
        (Uc.execute uc' ~op:H.op_insert ~args:[| 77777; 1 |]);
      check "get after recovery" 1
        (Uc.execute uc' ~op:H.op_get ~args:[| 77777 |]);
      Uc.stop uc';
      passed := true));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  check_bool "ran" true !passed

let test_double_crash () =
  (* crash, recover, run more, crash again, recover again *)
  let uc1, _, _, _, _ =
    crash_and_recover ~mode:Config.Buffered ~seed:41L ~crash_at:2_000_000
      ~workers:6 ~epsilon:32 ~log_size:128 ()
  in
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  let sim = Sim.create ~seed:42L topology in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      Uc.start_persistence uc1;
      let done_count = ref 0 in
      spawn_workers sim uc1 ~topology ~workers:4 ~ops_per_worker:100_000
        ~keyspace:50 ~update_pct:100 ~done_count));
  (match Sim.run ~until:2_000_000 sim () with
   | `Cut _ -> ()
   | `Done -> Alcotest.fail "finished before second crash");
  let mem = (fun (u : Uc.t) -> u.Uc.mem) uc1 in
  Memory.crash mem;
  Context.reset ();
  let sim2 = Sim.create ~seed:43L topology in
  let out = ref None in
  ignore (Sim.spawn sim2 ~socket:0 (fun () -> out := Some (Uc.recover uc1)));
  (match Sim.run sim2 () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  let uc2, report = Option.get !out in
  check_bool "second recovery is a prefix" true report.Prep_uc.contiguous_prefix;
  check_bool "loss bound holds again" true
    (report.Prep_uc.lost_completed <= 32 + beta - 1);
  let expected =
    model_of_ops
      (Uc.prefill_ops uc1 @ trace_ops (Uc.trace uc1) report.Prep_uc.applied)
  in
  check_list "second recovery state" (H.Model.snapshot expected) (Uc.snapshot uc2)

(* The durable twin of [test_double_crash], under both checkpoint flush
   strategies: zero loss across both power failures, the second cut once
   before and once after the recovered instance's first checkpoint. *)
let test_durable_double_crash () =
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  List.iter
    (fun (flush, after_ckpt) ->
      let label =
        Printf.sprintf "%s, %s the first checkpoint"
          (match flush with Config.Wbinvd -> "wbinvd" | Config.Flush_heap -> "flush-heap")
          (if after_ckpt then "after" else "before")
      in
      let uc1, report1, _, _, _ =
        crash_and_recover ~mode:Config.Durable ~flush ~seed:41L ~crash_at:2_000_000
          ~workers:6 ~epsilon:32 ~log_size:128 ()
      in
      check (label ^ ": first recovery loses nothing") 0 report1.Prep_uc.lost_completed;
      let sim = Sim.create ~seed:42L topology in
      ignore (Sim.spawn sim ~socket:0 (fun () ->
          Uc.start_persistence uc1;
          let done_count = ref 0 in
          spawn_workers sim uc1 ~topology ~workers:4 ~ops_per_worker:100_000
            ~keyspace:50 ~update_pct:100 ~done_count));
      (* resume the run in 10 us steps until the cut condition holds *)
      let rec run_to until =
        (match Sim.run ~until sim () with
         | `Cut _ -> ()
         | `Done -> Alcotest.fail "finished before the second crash");
        let ready =
          if after_ckpt then uc1.Uc.ckpt_count >= 1
          else Trace.length (Uc.trace uc1) >= 16
        in
        if not ready then run_to (until + 10_000)
      in
      run_to 10_000;
      check_bool (label ^ ": cut on its side of the checkpoint") after_ckpt
        (uc1.Uc.ckpt_count >= 1);
      Memory.crash uc1.Uc.mem;
      Context.reset ();
      let sim2 = Sim.create ~seed:43L topology in
      let out = ref None in
      ignore (Sim.spawn sim2 ~socket:0 (fun () -> out := Some (Uc.recover uc1)));
      (match Sim.run sim2 () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
      let uc2, report = Option.get !out in
      check (label ^ ": second recovery loses nothing") 0 report.Prep_uc.lost_completed;
      check (label ^ ": no completed op skipped") 0 report.Prep_uc.skipped_completed;
      check_bool (label ^ ": a prefix") true report.Prep_uc.contiguous_prefix;
      let expected =
        model_of_ops
          (Uc.prefill_ops uc1 @ trace_ops (Uc.trace uc1) report.Prep_uc.applied)
      in
      check_list (label ^ ": state") (H.Model.snapshot expected) (Uc.snapshot uc2))
    [ (Config.Wbinvd, false); (Config.Wbinvd, true);
      (Config.Flush_heap, false); (Config.Flush_heap, true) ]

(* Recovery writes no pre-crash NVM word before its first root, so a power
   failure anywhere before that root leaves the media recovery started
   from: the media of every pre-crash NVM arena (the stable replica's
   among them) is bit-identical afterwards, and recovering again gives the
   uninterrupted recovery's state and report. *)
exception Power_failure

module Cut_recovery (Ds : Seqds.Ds_intf.S) = struct
  module U = Prep_uc.Make (Ds)

  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }

  let nvm_media mem ~arenas =
    List.filter_map
      (fun aid ->
        if Memory.arena_kind mem aid = Memory.Nvm then
          Some
            (Array.init Memory.arena_words (fun offset ->
                 Memory.peek_media mem (Memory.addr_of ~aid ~offset)))
        else None)
      (List.init arenas Fun.id)

  (* [f] of the recovered instance and its report *)
  let recover_with ?keep ?cores f uc =
    Context.reset ();
    let sim = Sim.create ~seed:6L topology in
    let out = ref None in
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           let uc', report = U.recover ?keep ?cores uc in
           out := Some (f uc' report)));
    (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
    Option.get !out

  let recover ?keep ?cores uc =
    recover_with ?keep ?cores (fun uc' report -> (U.snapshot uc', report)) uc

  (* a 4-worker run of [gen] ops cut by a power failure at 1.5 ms *)
  let crash_run ?(lsm_ckpt = false) ?(fault = Config.No_fault) ?(workers = 4)
      ~mode ~prefill ~gen () =
    let sim = Sim.create ~seed:5L topology in
    let mem = Memory.make ~bg_period:2000 ~sockets:2 () in
    let uc_ref = ref None in
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           let cfg =
             Config.make ~mode ~lsm_ckpt ~fault ~log_size:128 ~epsilon:32
               ~workers ()
           in
           let uc = U.create ~prefill mem (Roots.make mem) cfg in
           U.start_persistence uc;
           uc_ref := Some uc;
           for w = 0 to workers - 1 do
             let socket, core = Sim.Topology.place topology w in
             Sim.spawn_here ~socket ~core (fun () ->
                 U.register_worker uc;
                 let rng = Sim.fiber_rng () in
                 while true do
                   let op, args = gen rng in
                   ignore (U.execute uc ~op ~args)
                 done)
           done));
    (match Sim.run ~until:1_500_000 sim () with
     | `Cut _ -> ()
     | `Done -> Alcotest.fail "finished before the crash");
    Memory.crash mem;
    (Option.get !uc_ref, mem)

  (* [one_fiber]: also check that the uninterrupted recovery equals one
     whose copies get no helper cores ([~cores:1]) *)
  let check_cuts ?(one_fiber = false) ~mode ~prefill ~gen label =
    let uc, mem = crash_run ~mode ~prefill ~gen () in
    let crashed = Memory.snapshot mem in
    let arenas = Memory.arena_count mem in
    let media = nvm_media mem ~arenas in
    (* the uninterrupted recovery, and the index of its first root write *)
    let start = Memory.op_index mem in
    let first_root = ref max_int in
    Memory.set_access_hook mem (fun _ addr write _ ->
        if write && addr > 0 && addr < Roots.max_slots && !first_root = max_int
        then first_root := Memory.op_index mem - 1);
    let want = recover uc in
    Memory.clear_access_hook mem;
    check_bool (label ^ ": a root is written") true (!first_root < max_int);
    if one_fiber then begin
      Memory.restore mem crashed;
      let got = recover ~cores:1 uc in
      check_list (label ^ ": one-fiber state") (fst want) (fst got);
      check_bool (label ^ ": one-fiber report") true (snd want = snd got)
    end;
    List.iter
      (fun k ->
        let cut = start + ((!first_root - start) * k / 4) in
        let at = Printf.sprintf "%s, cut at op %d of %d" label (cut - start)
            (!first_root - start) in
        Memory.restore mem crashed;
        Memory.set_crash_hook mem (fun i -> if i >= cut then raise Power_failure);
        (match recover uc with
         | _ -> Alcotest.fail (at ^ ": recovery finished")
         | exception Power_failure -> ());
        Memory.clear_crash_hook mem;
        Memory.crash mem;
        check_bool (at ^ ": pre-crash media untouched") true
          (nvm_media mem ~arenas = media);
        let got = recover uc in
        check_list (at ^ ": state") (fst want) (fst got);
        check_bool (at ^ ": report") true (snd want = snd got))
      [ 0; 1; 2; 3; 4 ]

  let test ~prefill ~gen () =
    check_cuts ~mode:Config.Buffered ~prefill ~gen (Ds.name ^ " buffered");
    check_cuts ~mode:Config.Durable ~prefill ~gen (Ds.name ^ " durable")

  (* ---- the gap: from a recovery's install to its background commit ---- *)

  (* One recovery of [old] from the memory's current media in a fresh
     simulation: [rebuild], [install], then [after t] on the recovering
     fiber, run to the end or to a power failure as memory op [cut]
     starts; with a [cut], the power fails at the end if the run gets
     there first. Returns the rebuilt instance, once [rebuild] has
     returned, its state and report, once [install] has, and whether any
     fiber wrote an NVM arena of the media it started from other than the
     root directory: none may, without [--detect], until the commit
     leaves them behind. [on_root] sees every root write with its op
     index. *)
  let gap_run ?(cut = max_int) ?(after = ignore) ?(on_root = fun _ _ _ -> ())
      mem old =
    Context.reset ();
    let frozen = Memory.arena_count mem and touched = ref false in
    let sim = Sim.create ~seed:6L topology in
    let built = ref None and out = ref None in
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           let t, report, install = U.rebuild old in
           built := Some t;
           install ();
           out := Some (U.snapshot t, report);
           after t));
    Memory.set_access_hook mem (fun _ addr write v ->
        let aid = addr lsr Memory.arena_shift in
        if write && addr > 0 then
          if addr < Roots.max_slots then on_root (Memory.op_index mem - 1) addr v
          else if aid > 0 && aid < frozen && Memory.arena_kind mem aid = Memory.Nvm
          then touched := true);
    Memory.set_crash_hook mem (fun i -> if i >= cut then raise Power_failure);
    let crashed =
      match Sim.run sim () with
      | `Done -> false
      | `Cut _ -> Alcotest.fail "cut"
      | exception Power_failure -> true
    in
    Memory.clear_crash_hook mem;
    Memory.clear_access_hook mem;
    if crashed || cut < max_int then Memory.crash mem;
    (Option.get !built, !out, !touched)

  (* The root writes of one uninterrupted recovery of [old] from
     [image], as (op index, slot, value). *)
  let root_writes mem image old =
    Memory.restore mem image;
    let writes = ref [] in
    ignore (gap_run ~on_root:(fun i a v -> writes := (i, a, v) :: !writes) mem old);
    List.rev !writes

  (* What is wrong with recovering [old] from the memory's current media:
     the state must be [old]'s prefill plus the trace entries the report
     applies, a contiguous prefix losing no completed op (durable) or at
     most ε+β−1 (buffered), and a second recovery of the same media must
     give the same state, report and media. Returns the recovered state
     and report with the failures. *)
  let judge ~mode label mem old =
    let image = Memory.snapshot mem in
    let once () =
      Memory.restore mem image;
      match gap_run mem old with
      | _, Some out, _ -> Ok (out, nvm_media mem ~arenas:(Memory.arena_count mem))
      | _, None, _ -> Error "recovery did not return"
      | exception (Invalid_argument m | Failure m) -> Error ("recovery raised " ^ m)
    in
    match (once (), once ()) with
    | Error e, _ | _, Error e -> (None, [ label ^ ": " ^ e ])
    | Ok (((state, report) as got), media), Ok ((state', report'), media') ->
      let model =
        List.fold_left
          (fun m (op, args) -> fst (Ds.Model.apply m ~op ~args))
          Ds.Model.empty
          (U.prefill_ops old
          @ List.map
              (fun i ->
                let e = Trace.get (U.trace old) i in
                (e.Trace.op, e.Trace.args))
              report.Prep_uc.applied)
      in
      let bound = if mode = Config.Durable then 0 else 32 + 4 - 1 in
      let fail cond what = if cond then [] else [ label ^ ": " ^ what ] in
      ( Some got,
        fail (Ds.Model.snapshot model = state) "state is not the applied prefix"
        @ fail report.Prep_uc.contiguous_prefix "not a contiguous prefix"
        @ fail
            (report.Prep_uc.lost_completed <= bound)
            (Printf.sprintf "%d completed ops lost" report.Prep_uc.lost_completed)
        @ fail (state = state' && report = report') "second recovery differs"
        @ fail (media = media') "second recovery's media differ" )

  (* Cut the gap of one recovery of [old], from [image], at op [cut] and
     judge the crash image with the instance the gap ran in. *)
  let cut_gap ?after ~mode label mem image old ~cut =
    Memory.restore mem image;
    let t, _, touched = gap_run ?after ~cut mem old in
    let _, fs = judge ~mode label mem t in
    (t, if touched then (label ^ ": wrote the media it started from") :: fs else fs)

  (* Crash a recovery in its gap, and judge every crash image:
     - right after each of its root writes: the gap record's, the new
       log's, and each of the background commit's;
     - after [k] updates that completed in the gap (durably, in durable
       mode), each one returning before the persistent copies are
       committed: the first op after recovery need not wait for them,
       and the persistence thread, started at once, touches nothing
       before the commit;
     - in the gap of the recovery from that first gap record, after each
       of its root writes.
     Returns the failures. *)
  let gap_failures ?(fault = Config.No_fault) ~mode ~prefill ~gen label =
    let uc, mem = crash_run ~fault ~mode ~prefill ~gen () in
    let image = Memory.snapshot mem in
    let writes = root_writes mem image uc in
    (* the gap record, the new log's roots, then the commit: the copies'
       meta blocks, the active one, and the gap record cleared *)
    let pending = Prep_uc.slot_pending in
    let expected =
      (pending :: (if mode = Config.Durable then [ 4; 5 ] else []))
      @ [ 2; 3; 1; pending ]
    in
    let failures = ref [] in
    let note fs = failures := !failures @ fs in
    if List.map (fun (_, a, _) -> a) writes <> expected then
      note [ label ^ ": unexpected root writes" ];
    let after_write (i, _, _) = i + 2 in
    let first = List.hd writes in
    (* right after each root write, the gap record's first *)
    List.iteri
      (fun j w ->
        let l = Printf.sprintf "%s, after root write %d" label (j + 1) in
        note (snd (cut_gap ~mode l mem image uc ~cut:(after_write w))))
      writes;
    (* [k] updates in the gap *)
    List.iter
      (fun k ->
        let in_gap = ref true in
        let after t =
          U.start_persistence t;
          U.register_worker t;
          let rng = Sim.fiber_rng () in
          for _ = 1 to k do
            let rec update () =
              let op, args = gen rng in
              if Ds.is_readonly ~op then update () else (op, args)
            in
            let op, args = update () in
            ignore (U.execute t ~op ~args);
            if Memory.peek mem Prep_uc.slot_pending = Memory.null then
              in_gap := false
          done;
          raise Power_failure
        in
        let l = Printf.sprintf "%s, %d updates in the gap" label k in
        let _, fs = cut_gap ~after ~mode l mem image uc ~cut:max_int in
        note fs;
        if not !in_gap then note [ l ^ ": an update waited for the commit" ])
      [ 1; 8 ];
    (* in the gap of the recovery from the first gap record *)
    Memory.restore mem image;
    let gap_t, _, _ = gap_run ~cut:(after_write first) mem uc in
    let gap_image = Memory.snapshot mem in
    let nested = root_writes mem gap_image gap_t in
    List.iteri
      (fun j w ->
        let l = Printf.sprintf "%s, nested recovery write %d" label (j + 1) in
        note (snd (cut_gap ~mode l mem gap_image gap_t ~cut:(after_write w))))
      nested;
    !failures

  let test_gap ~prefill ~gen () =
    List.iter
      (fun (mode, name) ->
        match gap_failures ~mode ~prefill ~gen (Ds.name ^ " " ^ name) with
        | [] -> ()
        | f :: _ -> Alcotest.fail f)
      [ (Config.Durable, "durable"); (Config.Buffered, "buffered") ]
end

(* Sharded recovery's [keep] filter sees each kept payload as it is read,
   under either checkpoint backend: a filter that keeps every entry costs
   recovery no memory operation, and one that keeps none drops the
   replayed suffix. *)
let test_replay_keep_reads_once () =
  let module C = Cut_recovery (Seqds.Hashmap) in
  List.iter
    (fun lsm_ckpt ->
      let label = if lsm_ckpt then "lsm: " else "classic: " in
      let uc, mem =
        C.crash_run ~lsm_ckpt ~mode:Config.Durable
          ~prefill:(List.init 20 (fun k -> ins k k))
          ~gen:(fun rng ->
            (H.op_insert, [| Sim.Rng.int rng 50; Sim.Rng.int rng 1000 |]))
          ()
      in
      let crashed = Memory.snapshot mem in
      let recover ?keep () =
        Memory.restore mem crashed;
        let start = Memory.op_index mem in
        let _, report = C.recover ?keep uc in
        (Memory.op_index mem - start, List.length report.Prep_uc.applied)
      in
      let ops, applied = recover () in
      let kept_ops, kept_applied =
        recover ~keep:(fun ~op:_ ~args:_ -> true) ()
      in
      let _, none_applied = recover ~keep:(fun ~op:_ ~args:_ -> false) () in
      check (label ^ "a keep-all filter costs no memory operation") ops
        kept_ops;
      check (label ^ "a keep-all filter keeps the suffix") applied kept_applied;
      check_bool (label ^ "the suffix is not empty") true
        (none_applied < applied))
    [ false; true ]

let map_gen ~insert ~remove ~get rng =
  let k = Sim.Rng.int rng 50 in
  match Sim.Rng.int rng 3 with
  | 0 -> (insert, [| k; Sim.Rng.int rng 1000 |])
  | 1 -> (remove, [| k |])
  | _ -> (get, [| k |])

let test_cut_recovery_hashmap =
  let module C = Cut_recovery (Seqds.Hashmap) in
  C.test
    ~prefill:(List.init 20 (fun k -> ins k k))
    ~gen:(map_gen ~insert:H.op_insert ~remove:H.op_remove ~get:H.op_get)

let test_cut_recovery_rbtree =
  let module R = Seqds.Rbtree in
  let module C = Cut_recovery (R) in
  C.test
    ~prefill:(List.init 20 (fun k -> (R.op_insert, [| k; k |])))
    ~gen:(map_gen ~insert:R.op_insert ~remove:R.op_remove ~get:R.op_get)

(* A tree of two arenas and more: every copy splits across its helper
   cores, and recovery still writes no pre-crash word before its first
   root and equals the one-fiber recovery. *)
let split_tree_keys = (2 * Memory.arena_words / Seqds.Rbtree.node_words) + 64

let test_cut_recovery_split () =
  let module R = Seqds.Rbtree in
  let module C = Cut_recovery (R) in
  C.check_cuts ~one_fiber:true ~mode:Config.Durable
    ~prefill:(List.init split_tree_keys (fun k -> (R.op_insert, [| k; k |])))
    ~gen:(map_gen ~insert:R.op_insert ~remove:R.op_remove ~get:R.op_get)
    "rbtree, 2 arenas"

(* No two recovery fibers that run at once share a (socket, core) — the
   simulator would not charge for the second — while the copies of a
   two-arena tree run on helper cores too. A fiber's span runs from its
   first memory access to its last. The recovered instance's workers
   start updating as soon as recovery returns, while the persistent
   copies still run: those keep their cores to the end, and every one of
   them is the persistence core or a core no worker is placed on. Four
   workers leave socket 1 to the copies; six take two of its cores. *)
let test_recovery_cores () =
  let module R = Seqds.Rbtree in
  let module C = Cut_recovery (R) in
  let topology = C.topology in
  List.iter
    (fun workers ->
      let label = Printf.sprintf "%d workers: " workers in
      let uc, mem =
        C.crash_run ~workers ~mode:Config.Durable
          ~prefill:(List.init split_tree_keys (fun k -> (R.op_insert, [| k; k |])))
          ~gen:(map_gen ~insert:R.op_insert ~remove:R.op_remove ~get:R.op_get)
          ()
      in
      let spans = Hashtbl.create 16 in
      Memory.set_access_hook mem (fun _ _ _ _ ->
          let f = Sim.self () and now = Sim.now () in
          let first =
            match Hashtbl.find_opt spans f.Sim.fid with
            | Some (_, _, first, _) -> first
            | None -> now
          in
          Hashtbl.replace spans f.Sim.fid (f.Sim.socket, f.Sim.core, first, now));
      Context.reset ();
      let sim = Sim.create ~seed:6L topology in
      let returned = ref 0 and fids = ref [] and committed_late = ref false in
      ignore
        (Sim.spawn sim ~socket:0 (fun () ->
             let t, _ = C.U.recover uc in
             returned := Sim.now ();
             committed_late := Memory.peek mem Prep_uc.slot_pending <> Memory.null;
             for w = 0 to workers - 1 do
               let socket, core = Sim.Topology.place topology w in
               Sim.spawn_here ~socket ~core (fun () ->
                   fids := (Sim.self ()).Sim.fid :: !fids;
                   C.U.register_worker t;
                   for k = 1 to 4 do
                     ignore (C.U.execute t ~op:R.op_insert ~args:[| k; w |])
                   done)
             done));
      (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
      Memory.clear_access_hook mem;
      let spans = Hashtbl.fold (fun fid span l -> (fid, span) :: l) spans [] in
      (* this fiber, the scan, two persistent copies, and their helpers *)
      check_bool (label ^ "helpers ran") true (List.length spans > 4);
      check_bool (label ^ "the copies commit after recovery returns") true
        !committed_late;
      List.iter
        (fun (a, (s, c, a0, a1)) ->
          List.iter
            (fun (b, (s', c', b0, b1)) ->
              if a < b && a0 < b1 && b0 < a1 && s = s' && c = c' then
                Alcotest.failf "%sfibers %d and %d share core %d.%d" label a b s c)
            spans)
        spans;
      let worker_cores = List.init workers (Sim.Topology.place topology) in
      let background =
        List.filter
          (fun (fid, (_, _, _, last)) -> last > !returned && not (List.mem fid !fids))
          spans
      in
      check_bool (label ^ "copies run past recovery") true (background <> []);
      List.iter
        (fun (fid, (s, c, _, _)) ->
          if List.mem (s, c) worker_cores then
            Alcotest.failf "%sbackground fiber %d on worker core %d.%d" label fid s c)
        background)
    [ 4; 6 ]

(* The arena count of the rebuilt persistent allocator, read once the
   background commit has adopted the copies' sub-heaps, must not grow.
   On the two-arena tree at this topology the four workers leave socket
   1's four cores to the persistent copies, a copy and a helper each,
   and each copy clones its just over two arenas of nodes into the 3
   arenas of its sub-heap, its helper carving chunks of them: 7 with the
   allocator's own, the fewest whole arenas those words fit. *)
let test_recovery_arenas () =
  let module R = Seqds.Rbtree in
  let module C = Cut_recovery (R) in
  let uc, _ =
    C.crash_run ~mode:Config.Durable
      ~prefill:(List.init split_tree_keys (fun k -> (R.op_insert, [| k; k |])))
      ~gen:(map_gen ~insert:R.op_insert ~remove:R.op_remove ~get:R.op_get)
      ()
  in
  (* [recover_with] runs its simulation to the end, past the commit *)
  let uc' = C.recover_with (fun uc' _ -> uc') uc in
  let arenas = List.length (Alloc.arenas (Option.get uc'.C.U.p_alloc)) in
  check_bool (Printf.sprintf "%d arenas, at most 7" arenas) true (arenas <= 7)

(* A crash anywhere in a recovery's gap — between its install and the
   background commit of its persistent copies — or in the recovery from
   that gap loses nothing the checkers allow, for either variant. *)
let test_gap_hashmap =
  let module C = Cut_recovery (Seqds.Hashmap) in
  C.test_gap
    ~prefill:(List.init 20 (fun k -> ins k k))
    ~gen:(map_gen ~insert:H.op_insert ~remove:H.op_remove ~get:H.op_get)

let test_gap_rbtree =
  let module R = Seqds.Rbtree in
  let module C = Cut_recovery (R) in
  C.test_gap
    ~prefill:(List.init 20 (fun k -> (R.op_insert, [| k; k |])))
    ~gen:(map_gen ~insert:R.op_insert ~remove:R.op_remove ~get:R.op_get)

(* The planted [commit-before-copies-persist] fault commits copies whose
   heaps never reached media: a crash right after the commit recovers a
   checkpoint that is not there, which the gap checks catch. *)
let test_gap_fault_caught () =
  let module C = Cut_recovery (Seqds.Hashmap) in
  let failures =
    C.gap_failures ~fault:Config.Commit_before_copies_persist
      ~mode:Config.Durable
      ~prefill:(List.init 20 (fun k -> ins k k))
      ~gen:(map_gen ~insert:H.op_insert ~remove:H.op_remove ~get:H.op_get)
      "planted fault"
  in
  check_bool "the fault is caught" true (failures <> [])

let test_cut_recovery_stack =
  let module S = Seqds.Stack_ds in
  let module C = Cut_recovery (S) in
  C.test
    ~prefill:(List.init 20 (fun v -> (S.op_push, [| v |])))
    ~gen:(fun rng ->
      if Sim.Rng.bool rng then (S.op_push, [| Sim.Rng.int rng 1000 |])
      else (S.op_pop, [||]))

(* Crash-time fuzzing: random crash points and seeds; the §5.1/§5.2
   guarantees must hold at every cut. *)
let test_crash_fuzz_buffered () =
  let rng = Sim.Rng.create 777L in
  for episode = 1 to 12 do
    let seed = Int64.of_int (1000 + episode) in
    let crash_at = 400_000 + Sim.Rng.int rng 4_000_000 in
    let epsilon = 8 + Sim.Rng.int rng 56 in
    let uc', report, trace, prefill, _ =
      crash_and_recover ~mode:Config.Buffered ~seed ~crash_at ~workers:6
        ~epsilon ~log_size:256 ()
    in
    check_bool
      (Printf.sprintf "ep%d: prefix (crash %d, eps %d)" episode crash_at epsilon)
      true report.Prep_uc.contiguous_prefix;
    check_bool
      (Printf.sprintf "ep%d: loss %d <= %d" episode
         report.Prep_uc.lost_completed (epsilon + beta - 1))
      true
      (report.Prep_uc.lost_completed <= epsilon + beta - 1);
    let expected =
      model_of_ops (prefill @ trace_ops trace report.Prep_uc.applied)
    in
    check_list
      (Printf.sprintf "ep%d: state replay" episode)
      (H.Model.snapshot expected) (Uc.snapshot uc')
  done

let test_crash_fuzz_durable () =
  let rng = Sim.Rng.create 888L in
  for episode = 1 to 12 do
    let seed = Int64.of_int (2000 + episode) in
    let crash_at = 400_000 + Sim.Rng.int rng 4_000_000 in
    let epsilon = 8 + Sim.Rng.int rng 56 in
    let uc', report, trace, prefill, _ =
      crash_and_recover ~mode:Config.Durable ~seed ~crash_at ~workers:6
        ~epsilon ~log_size:256 ()
    in
    check (Printf.sprintf "ep%d: zero loss (crash %d)" episode crash_at) 0
      report.Prep_uc.lost_completed;
    check (Printf.sprintf "ep%d: zero skipped" episode) 0
      report.Prep_uc.skipped_completed;
    let expected =
      model_of_ops (prefill @ trace_ops trace report.Prep_uc.applied)
    in
    check_list
      (Printf.sprintf "ep%d: state replay" episode)
      (H.Model.snapshot expected) (Uc.snapshot uc')
  done

(* ---- epsilon validation ---- *)

let test_epsilon_validation () =
  with_world (fun _sim mem roots ->
      let cfg = Config.make ~mode:Config.Buffered ~log_size:64 ~epsilon:64 ~workers:2 () in
      (try
         ignore (Uc.create mem roots cfg);
         Alcotest.fail "expected Invalid_argument"
       with Invalid_argument _ -> ());
      ())

(* ---- GL baseline ---- *)

module Gl = Gl_uc.Make (Seqds.Hashmap)

let test_gl_uc () =
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  with_world ~topology (fun sim mem _roots ->
      let gl = Gl.create ~prefill:[ ins 1 10 ] mem in
      let done_count = ref 0 in
      let total = Atomic.make 0 in
      for w = 0 to 3 do
        let socket, core = Sim.Topology.place topology w in
        ignore (Sim.spawn sim ~socket ~core (fun () ->
            Gl.register_worker gl;
            for i = 0 to 49 do
              ignore (Gl.execute gl ~op:H.op_insert ~args:[| (w * 100) + i; i |]);
              Atomic.incr total
            done;
            incr done_count))
      done;
      while !done_count < 4 do Sim.tick 10_000 done;
      check "gl size" 200 (Gl.execute gl ~op:H.op_size ~args:[||]);
      check "all ops ran" 200 (Atomic.get total))

(* ---- CX-PUC ---- *)

module Cx = Cx_puc.Make (Seqds.Hashmap)

let test_cx_sequential () =
  with_world (fun _sim mem roots ->
      let cx = Cx.create ~prefill:[ ins 5 50 ] mem roots ~workers:2 in
      Cx.register_worker cx;
      check "prefilled get" 50 (Cx.execute cx ~op:H.op_get ~args:[| 5 |]);
      check "insert" 1 (Cx.execute cx ~op:H.op_insert ~args:[| 6; 60 |]);
      check "get" 60 (Cx.execute cx ~op:H.op_get ~args:[| 6 |]);
      check "remove" 1 (Cx.execute cx ~op:H.op_remove ~args:[| 5 |]);
      check "gone" (-1) (Cx.execute cx ~op:H.op_get ~args:[| 5 |]))

let test_cx_concurrent () =
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  with_world ~topology (fun sim mem roots ->
      let workers = 4 in
      let cx = Cx.create mem roots ~workers in
      let done_count = ref 0 in
      for w = 0 to workers - 1 do
        let socket, core = Sim.Topology.place topology w in
        ignore (Sim.spawn sim ~socket ~core (fun () ->
            Cx.register_worker cx;
            for i = 0 to 29 do
              ignore (Cx.execute cx ~op:H.op_insert ~args:[| (w * 1000) + i; i |])
            done;
            incr done_count))
      done;
      while !done_count < workers do Sim.tick 10_000 done;
      (* all 120 distinct inserts must be present in the published replica *)
      Cx.register_worker cx;
      let missing = ref 0 in
      for w = 0 to workers - 1 do
        for i = 0 to 29 do
          if Cx.execute cx ~op:H.op_get ~args:[| (w * 1000) + i |] <> i then
            incr missing
        done
      done;
      check "no inserts lost" 0 !missing)

let test_cx_crash_recovery () =
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  let sim = Sim.create ~seed:55L topology in
  let mem = Memory.make ~bg_period:2000 ~sockets:2 () in
  let cx_ref = ref None in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      let roots = Roots.make mem in
      let cx = Cx.create mem roots ~workers:4 in
      cx_ref := Some cx;
      for w = 0 to 3 do
        let socket, core = Sim.Topology.place topology w in
        ignore (Sim.spawn sim ~socket ~core (fun () ->
            Cx.register_worker cx;
            for i = 0 to 10_000 do
              ignore (Cx.execute cx ~op:H.op_insert ~args:[| (w * 100_000) + i; i |])
            done))
      done));
  (match Sim.run ~until:5_000_000 sim () with
   | `Cut _ -> ()
   | `Done -> Alcotest.fail "cx finished before crash");
  let cx = Option.get !cx_ref in
  (* read the queue's coherent contents before the crash destroys it *)
  let qtail = Memory.peek mem cx.Cx.qtail_addr in
  let queue_ops =
    List.init qtail (fun i ->
        let a = Log.entry_addr cx.Cx.queue i in
        let argc = Memory.peek mem (a + 2) in
        ( Memory.peek mem (a + 1),
          Array.init argc (fun j -> Memory.peek mem (a + 3 + j)) ))
  in
  Memory.crash mem;
  Context.reset ();
  let sim2 = Sim.create ~seed:56L topology in
  let out = ref None in
  ignore (Sim.spawn sim2 ~socket:0 (fun () ->
      Context.bind ~default:(Alloc.create_volatile mem ~home:0) ();
      out := Some (Cx.recover cx)));
  (match Sim.run sim2 () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  let recovered, applied = Option.get !out in
  (* recovered state must equal the replay of the first [applied] queue ops *)
  let expected =
    List.fold_left
      (fun m (op, args) -> fst (H.Model.apply m ~op ~args))
      H.Model.empty
      (List.filteri (fun i _ -> i < applied) queue_ops)
  in
  check_list "cx recovered = queue prefix replay" (H.Model.snapshot expected)
    (H.snapshot recovered)

(* ---- SOFT hashtable ---- *)

let test_soft_basic () =
  with_world (fun _sim mem _roots ->
      let s = Soft_hash.create ~nbuckets:64 mem in
      check "insert" 1 (Soft_hash.execute s ~op:Soft_hash.op_insert ~args:[| 1; 10 |]);
      check "get" 10 (Soft_hash.execute s ~op:Soft_hash.op_get ~args:[| 1 |]);
      check "replace" 0 (Soft_hash.execute s ~op:Soft_hash.op_insert ~args:[| 1; 20 |]);
      check "get2" 20 (Soft_hash.execute s ~op:Soft_hash.op_get ~args:[| 1 |]);
      check "remove" 1 (Soft_hash.execute s ~op:Soft_hash.op_remove ~args:[| 1 |]);
      check "gone" (-1) (Soft_hash.execute s ~op:Soft_hash.op_get ~args:[| 1 |]);
      check "size" 0 (Soft_hash.execute s ~op:Soft_hash.op_size ~args:[||]))

let test_soft_durability () =
  (* every completed insert must survive a crash *)
  let topology = Sim.Topology.default in
  let sim = Sim.create ~seed:66L topology in
  let mem = Memory.make ~bg_period:2000 ~sockets:2 () in
  let s_ref = ref None in
  let completed = Hashtbl.create 256 in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      let s = Soft_hash.create ~nbuckets:64 mem in
      s_ref := Some s;
      for w = 0 to 3 do
        let socket, core = Sim.Topology.place topology w in
        ignore (Sim.spawn sim ~socket ~core (fun () ->
            Soft_hash.register_worker s;
            for i = 0 to 100_000 do
              let k = (w * 1_000_000) + i in
              ignore (Soft_hash.execute s ~op:Soft_hash.op_insert ~args:[| k; k + 1 |]);
              Hashtbl.replace completed k (k + 1)
            done))
      done));
  (match Sim.run ~until:3_000_000 sim () with
   | `Cut _ -> ()
   | `Done -> Alcotest.fail "soft finished before crash");
  let s = Option.get !s_ref in
  Memory.crash mem;
  Context.reset ();
  let sim2 = Sim.create ~seed:67L topology in
  let out = ref None in
  ignore (Sim.spawn sim2 ~socket:0 (fun () ->
      out := Some (Soft_hash.recover s ~nbuckets:64)));
  (match Sim.run sim2 () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  let recovered = Option.get !out in
  check_bool "some inserts completed before crash" true (Hashtbl.length completed > 0);
  let lost = ref 0 in
  Hashtbl.iter
    (fun k v ->
      let rec pairs = function
        | a :: b :: rest -> if a = k && b = v then true else pairs rest
        | _ -> false
      in
      if not (pairs (Soft_hash.snapshot recovered)) then incr lost)
    completed;
  check "no completed insert lost" 0 !lost

(* ---- trace ---- *)

let test_trace_sentinels_independent () =
  (* regression: [create]/grow used [Array.make] with one shared sentinel
     record, so marking any never-logged index completed marked them all —
     silently weakening every completed-op durability check *)
  let tr = Trace.create () in
  Trace.logged tr 0 ~op:1 ~args:[| 42 |];
  Trace.completed tr 5;
  check_bool "other unlogged slot not completed" false (Trace.get tr 7).Trace.completed;
  check_bool "logged slot not completed" false (Trace.get tr 0).Trace.completed;
  (* same property across the grow path (capacity doubles to 2048) *)
  Trace.logged tr 2000 ~op:2 ~args:[||];
  Trace.completed tr 2020;
  check_bool "post-grow slots independent" false (Trace.get tr 2021).Trace.completed;
  check_bool "marked slot is completed" true (Trace.get tr 2020).Trace.completed

let () =
  Alcotest.run "prep"
    [
      ( "volatile",
        [
          Alcotest.test_case "single worker" `Quick test_volatile_single_worker;
          Alcotest.test_case "prefill" `Quick test_volatile_prefill;
          Alcotest.test_case "concurrent matches trace" `Quick test_volatile_concurrent;
          Alcotest.test_case "log wraps" `Quick test_log_wraps;
        ] );
      ( "persistent-modes",
        [
          Alcotest.test_case "buffered concurrent" `Quick test_buffered_concurrent;
          Alcotest.test_case "durable concurrent" `Quick test_durable_concurrent;
          Alcotest.test_case "epsilon validation" `Quick test_epsilon_validation;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "buffered: prefix + loss bound" `Quick
            test_buffered_crash_prefix_and_bound;
          Alcotest.test_case "durable: no completed loss" `Quick
            test_durable_crash_no_completed_loss;
          Alcotest.test_case "recovered uc still works" `Quick
            test_recovered_uc_still_works;
          Alcotest.test_case "double crash" `Quick test_double_crash;
          Alcotest.test_case "durable double crash" `Quick test_durable_double_crash;
          Alcotest.test_case "cut recovery: hashmap" `Quick test_cut_recovery_hashmap;
          Alcotest.test_case "cut recovery: rbtree" `Quick test_cut_recovery_rbtree;
          Alcotest.test_case "cut recovery: stack" `Quick test_cut_recovery_stack;
          Alcotest.test_case "cut recovery: split copies" `Quick
            test_cut_recovery_split;
          Alcotest.test_case "cut recovery: the gap, hashmap" `Quick
            test_gap_hashmap;
          Alcotest.test_case "cut recovery: the gap, rbtree" `Quick
            test_gap_rbtree;
          Alcotest.test_case "commit-before-copies-persist is caught" `Quick
            test_gap_fault_caught;
          Alcotest.test_case "recovery fibers never share a core" `Quick
            test_recovery_cores;
          Alcotest.test_case "rebuilt heap's arena count" `Quick
            test_recovery_arenas;
          Alcotest.test_case "replay_keep reads each payload once" `Quick
            test_replay_keep_reads_once;
          Alcotest.test_case "buffered crash fuzz" `Slow test_crash_fuzz_buffered;
          Alcotest.test_case "durable crash fuzz" `Slow test_crash_fuzz_durable;
        ] );
      ( "flit",
        [
          Alcotest.test_case "hashmap equivalence" `Quick
            test_flit_equiv_hashmap;
          Alcotest.test_case "rbtree equivalence" `Quick test_flit_equiv_rbtree;
          Alcotest.test_case "skiplist equivalence" `Quick
            test_flit_equiv_skiplist;
          Alcotest.test_case "durable crash: no completed loss" `Quick
            test_durable_flit_crash_no_completed_loss;
        ] );
      ( "numa-package",
        [
          Alcotest.test_case "dist-rw equivalence" `Quick
            test_dist_rw_equiv_hashmap;
          Alcotest.test_case "log-mirror equivalence" `Quick
            test_log_mirror_equiv_hashmap;
          Alcotest.test_case "all-flags equivalence (hashmap)" `Quick
            test_numa_package_equiv_hashmap;
          Alcotest.test_case "all-flags equivalence (rbtree)" `Quick
            test_numa_package_equiv_rbtree;
          Alcotest.test_case "durable crash with package: no completed loss"
            `Quick test_durable_numa_crash_no_completed_loss;
          Alcotest.test_case "readonly spin path helps" `Quick
            test_readonly_spin_helps;
        ] );
      ( "slot-sweep",
        [
          Alcotest.test_case "one-worker sweep, two publishers" `Quick
            test_solo_sweep_miscounted;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sentinels independent" `Quick
            test_trace_sentinels_independent;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "global lock" `Quick test_gl_uc;
          Alcotest.test_case "cx sequential" `Quick test_cx_sequential;
          Alcotest.test_case "cx concurrent" `Quick test_cx_concurrent;
          Alcotest.test_case "cx crash recovery" `Quick test_cx_crash_recovery;
          Alcotest.test_case "soft basic" `Quick test_soft_basic;
          Alcotest.test_case "soft durability" `Quick test_soft_durability;
        ] );
    ]
