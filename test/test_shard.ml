(* Sharded PREP-UC: router correctness, cross-shard transaction
   atomicity, and the crash-fuzz campaigns of the sharded construction.
   All budgets are deterministic counts under fixed seeds. *)

open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module H = Seqds.Hashmap
module S = Sharded_uc.Make (Seqds.Hashmap)
module FS = Check.Fuzz.Make (Seqds.Hashmap)
module ES = Check.Explore.Make (Seqds.Hashmap)

(* checker configuration of an [nshards]-way construction; the checkers
   set mode, fault, epsilon, log size and workers themselves *)
let sharded ?flit ?dist_rw ?log_mirror ?lsm_ckpt ?lsm_fanout nshards =
  Config.make ?flit ?dist_rw ?log_mirror ?lsm_ckpt ?lsm_fanout
    ~shards:nshards ~workers:1 ()

let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }

(* Run [ops] (a per-worker list of (op, args)) over [nshards] shards with
   [workers] workers; return the merged final snapshot. *)
let run_sharded ?(fault = Config.No_fault) ~nshards ~workers ops =
  let sim = Sim.create ~seed:11L topology in
  let mem = Nvm.Memory.make ~seed:12L ~sockets:2 () in
  let snap = ref [] in
  let uc_out = ref None in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Nvm.Roots.make mem in
         let cfg =
           Config.make ~mode:Config.Durable ~log_size:256 ~epsilon:16
             ~shards:nshards ~fault ~workers ()
         in
         let uc = S.create mem roots cfg in
         uc_out := Some uc;
         S.start_persistence uc;
         let done_count = ref 0 in
         for w = 0 to workers - 1 do
           let socket, core = Sim.Topology.place topology w in
           Sim.spawn_here ~socket ~core (fun () ->
               S.register_worker uc;
               List.iter
                 (fun (op, args) -> ignore (S.execute uc ~op ~args))
                 ops;
               incr done_count)
         done;
         while !done_count < workers do
           Sim.tick 10_000
         done;
         S.stop uc;
         S.sync uc;
         snap := S.snapshot uc));
  (match Sim.run sim () with `Done -> () | `Cut _ -> assert false);
  (Option.get !uc_out, !snap)

(* ---- router ---- *)

let test_route_partition () =
  (* every key owned by exactly one shard, all shards populated *)
  let nshards = 4 in
  let seen = Array.make nshards 0 in
  for k = 0 to 9999 do
    let s = Sharded_uc.route_key ~nshards k in
    check_bool "shard in range" true (s >= 0 && s < nshards);
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      check_bool (Printf.sprintf "shard %d gets a fair share" i) true
        (n > 1500))
    seen

(* ---- sequential equivalence across shard counts ---- *)

let test_shard_count_invariance () =
  (* one worker = a sequential history: the merged final state must be
     identical whatever the shard count *)
  let rng = Sim.Rng.create 77L in
  let ops =
    List.init 300 (fun _ ->
        let k = Sim.Rng.int rng 512 in
        match Sim.Rng.int rng 10 with
        | 0 | 1 | 2 ->
          (Sharded_uc.op_multi_put, [| k; Sim.Rng.int rng 512; k + 1 |])
        | 3 | 4 ->
          (Sharded_uc.op_transfer, [| k; Sim.Rng.int rng 512; 3 |])
        | 5 | 6 | 7 -> (H.op_insert, [| k; k * 2 |])
        | 8 -> (H.op_remove, [| k |])
        | _ -> (H.op_get, [| k |]))
  in
  let _, s1 = run_sharded ~nshards:1 ~workers:1 ops in
  let _, s2 = run_sharded ~nshards:2 ~workers:1 ops in
  let _, s4 = run_sharded ~nshards:4 ~workers:1 ops in
  check_bool "snapshot non-trivial" true (List.length s1 > 10);
  Alcotest.(check (list int)) "1 shard = 2 shards" s1 s2;
  Alcotest.(check (list int)) "1 shard = 4 shards" s1 s4

let test_multi_put_and_transfer () =
  let ops =
    [
      (H.op_insert, [| 1; 100 |]);
      (H.op_insert, [| 2; 50 |]);
      (Sharded_uc.op_transfer, [| 1; 2; 30 |]);
      (* both keys set to one value, across whatever shards own them *)
      (Sharded_uc.op_multi_put, [| 10; 11; 7 |]);
      (* transfer with an absent destination: delta lands as the value *)
      (Sharded_uc.op_transfer, [| 2; 20; 5 |]);
    ]
  in
  let uc, snap = run_sharded ~nshards:4 ~workers:1 ops in
  let assoc k = List.assoc k (List.combine (List.filteri (fun i _ -> i mod 2 = 0) snap) (List.filteri (fun i _ -> i mod 2 = 1) snap)) in
  check "transfer debits" 70 (assoc 1);
  check "transfer credits then debits" 75 (assoc 2);
  check "multi_put first key" 7 (assoc 10);
  check "multi_put second key" 7 (assoc 11);
  check "transfer into absent key" 5 (assoc 20);
  (* every transaction decided at quiescence *)
  Hashtbl.iter
    (fun txid _ ->
      check_bool "txn committed" true (S.committed uc txid))
    uc.S.txn_intent

(* ---- decision table ---- *)

let test_decision_table_chunks () =
  (* capacity spanning several chunks: slots land in the right chunk and
     survive a crash *)
  let sim = Sim.create ~seed:5L topology in
  let mem = Nvm.Memory.make ~seed:6L ~sockets:2 () in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Nvm.Roots.make mem in
         let d = Sharded_uc.Decision.create mem roots ~cap:100_000 in
         let probes = [ 1; 2; 32767; 32768; 32769; 99_999; 100_007 ] in
         List.iter (fun txid -> Sharded_uc.Decision.commit d txid) probes;
         List.iter
           (fun txid ->
             check_bool "committed" true (Sharded_uc.Decision.committed d txid))
           probes;
         check_bool "uncommitted stays uncommitted" false
           (Sharded_uc.Decision.committed d 12345);
         Nvm.Memory.crash mem;
         let d' = Sharded_uc.Decision.attach mem roots in
         List.iter
           (fun txid ->
             check_bool "survives crash" true
               (Sharded_uc.Decision.committed_peek d' txid))
           probes;
         check_bool "uncommitted survives as uncommitted" false
           (Sharded_uc.Decision.committed_peek d' 12345)));
  match Sim.run sim () with `Done -> () | `Cut _ -> assert false

(* ---- crash fuzz campaigns ---- *)

let gen_sharded ~nshards ~multi_pct ~cross_pct =
  let w =
    Harness.Workload.map_workload_sharded ~read_pct:20 ~multi_pct ~cross_pct
      ~nshards ~key_range:128 ~prefill_n:0
  in
  fun rng -> w.Harness.Workload.next rng ~phase:0

let template ~seed ~ops =
  {
    Check.Fuzz.workload_seed = seed;
    threads = 6;
    epsilon = 16;
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

let campaign ?flit ?dist_rw ?log_mirror ?lsm_ckpt ?lsm_fanout ?(ops = 100)
    ?log ~seed ~nshards ~multi_pct ~cross_pct ~iters () =
  FS.fuzz
    ~config:(sharded ?flit ?dist_rw ?log_mirror ?lsm_ckpt ?lsm_fanout nshards)
    ~mode:Config.Durable ~fault:Config.No_fault
    ~gen_op:(gen_sharded ~nshards ~multi_pct ~cross_pct)
    ~template:(template ~seed ~ops) ~iters ?log ()

let test_fuzz_single_key () =
  let res = campaign ~seed:8100 ~nshards:4 ~multi_pct:0 ~cross_pct:0 ~iters:8 () in
  no_failures "0% multi" res;
  check_bool "crash points explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_cross_10 () =
  let res =
    campaign ~seed:8200 ~nshards:4 ~multi_pct:10 ~cross_pct:100 ~iters:8 ()
  in
  no_failures "10% multi, all cross" res;
  check_bool "crash points explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_cross_50 () =
  let res =
    campaign ~seed:8300 ~nshards:2 ~multi_pct:50 ~cross_pct:50 ~iters:8 ()
  in
  no_failures "50% multi on 2 shards" res;
  check_bool "crash points explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_flit_cross_40 () =
  (* the benchmark's sharded-2pc configuration: 4 shards under FliT,
     40% multi-key transactions, all of them cross-shard *)
  let res =
    campaign ~flit:true ~seed:8600 ~nshards:4 ~multi_pct:40 ~cross_pct:100
      ~iters:8 ()
  in
  no_failures "flit, 40% multi, all cross" res;
  check_bool "crash points explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_lsm_cross_40 () =
  (* every shard checkpoints through the log-structured backend, fanout 2
     so compaction runs inside the episodes; transfers drive balances
     negative, which the memtable and the seal must carry as values *)
  let res =
    campaign ~lsm_ckpt:true ~lsm_fanout:2 ~seed:8700 ~nshards:4 ~multi_pct:40
      ~cross_pct:100 ~iters:8 ()
  in
  no_failures "lsm, 40% multi, all cross" res;
  check_bool "crash points explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_numa_cross_40 () =
  (* the NUMA read path (distributed reader lock, DRAM log mirror) on
     every shard, at the CLI's default campaign: seed 42, 300 ops per
     worker, 30 episodes *)
  let lines = ref [] in
  let res =
    campaign ~dist_rw:true ~log_mirror:true ~ops:300
      ~log:(fun l -> lines := l :: !lines)
      ~seed:42 ~nshards:4 ~multi_pct:40 ~cross_pct:100 ~iters:30 ()
  in
  no_failures "dist-rw + log-mirror, 40% multi, all cross" res;
  check_bool "calibration pinned" true
    (List.mem "calibration: 2327 ops logged, 5186253 mem-ops, 46861667 ns"
       !lines);
  check "episodes" 30 res.Check.Fuzz.episodes;
  check "crashed" 30 res.Check.Fuzz.crashes

(* Combiner self-deadlock: a worker whose cross-shard prepare was logged
   but not yet decided saw its slot empty, then won the combiner lock
   after its response had landed, and combined a round that blocked at
   the flush boundary on that very prepare. These crash-free episodes of
   the benchmark's sharded mix (FliT, 40% multi-key, all cross-shard) at
   epsilon 8 wedged that way; the double check in [try_collect] ends them
   clean. Each is [fuzz --variant durable --uc-shards 4 --multi-pct 40
   --cross-pct 100 --epsilon 8 --no-crash --flit --seed N]. *)
let test_combiner_no_self_deadlock seed () =
  let nshards = 4 in
  let out =
    FS.run_episode ~config:(sharded ~flit:true nshards) ~mode:Config.Durable
      ~fault:Config.No_fault
      ~gen_op:(gen_sharded ~nshards ~multi_pct:40 ~cross_pct:100)
      { (template ~seed ~ops:300) with Check.Fuzz.epsilon = 8 }
  in
  List.iter
    (fun v ->
      Alcotest.failf "seed %d: %s" seed
        (Check.Durable_lin.violation_to_string v))
    out.Check.Fuzz.violations;
  check "every logged op completed" out.Check.Fuzz.logged
    out.Check.Fuzz.completed

let test_lsm_negative_balance_survives () =
  (* a transfer leaves key 87 at -1, which [op_get] also answers for an
     absent key: the recovery re-seal once read it as a deletion and the
     recovered state lost the key. With that [key_get] put back, this
     crash fails with key 87 missing (so does every crash from 296,250 to
     298,750 ns) *)
  let nshards = 4 in
  let ep =
    { (template ~seed:60 ~ops:37) with
      Check.Fuzz.threads = 4;
      crash = Check.Fuzz.At_time 297000 }
  in
  let out =
    FS.run_episode ~config:(sharded ~lsm_ckpt:true nshards)
      ~mode:Config.Durable ~fault:Config.No_fault
      ~gen_op:(gen_sharded ~nshards ~multi_pct:25 ~cross_pct:75)
      ep
  in
  check_bool "crashed" true out.Check.Fuzz.crashed;
  List.iter
    (fun v ->
      Alcotest.failf "negative balance: %s"
        (Check.Durable_lin.violation_to_string v))
    out.Check.Fuzz.violations

(* ---- the planted commit-ordering fault ---- *)

let test_fuzz_catches_planted_fault () =
  let nshards = 4 in
  let gen_op = gen_sharded ~nshards ~multi_pct:40 ~cross_pct:100 in
  let res =
    FS.fuzz ~config:(sharded nshards) ~mode:Config.Durable ~fault:Config.Commit_before_prepare_persist ~gen_op
      ~template:(template ~seed:8400 ~ops:100) ~iters:20 ()
  in
  check_bool "planted commit-before-prepare fault caught" true
    (res.Check.Fuzz.failures <> []);
  (* every reported violation is the cross-shard atomicity kind *)
  let f = List.hd res.Check.Fuzz.failures in
  check_bool "violation names a partially-applied committed txn" true
    (List.exists
       (function
         | Check.Durable_lin.Atomicity_violation { committed = true; _ } ->
           true
         | _ -> false)
       f.Check.Fuzz.violations);
  (* and it shrinks to a smaller reproducible episode *)
  let small =
    FS.shrink ~config:(sharded nshards) ~mode:Config.Durable ~fault:Config.Commit_before_prepare_persist ~gen_op
      f.Check.Fuzz.episode
  in
  check_bool "shrunk episode still fails" true
    ((FS.run_episode ~config:(sharded nshards) ~mode:Config.Durable ~fault:Config.Commit_before_prepare_persist
        ~gen_op small)
       .Check.Fuzz.violations
    <> []);
  check_bool "shrunk is no bigger" true
    (small.Check.Fuzz.threads <= f.Check.Fuzz.episode.Check.Fuzz.threads)

let test_fault_inert_without_multis () =
  (* with no multi-key ops there are no transactions, so the planted
     fault has nothing to break *)
  let res =
    FS.fuzz ~config:(sharded 2) ~mode:Config.Durable ~fault:Config.Commit_before_prepare_persist
      ~gen_op:(gen_sharded ~nshards:2 ~multi_pct:0 ~cross_pct:0)
      ~template:(template ~seed:8500 ~ops:100) ~iters:6 ()
  in
  no_failures "fault inert without transactions" res

(* ---- bounded exhaustive exploration ---- *)

let explore_scope =
  {
    Check.Explore.seed = 3;
    threads = 2;
    ops_per_worker = 1;
    epsilon = 2;
    log_size = 16;
    sockets = 2;
    cores_per_socket = 2;
    prune = true;
    (* the checkpoint fibers never quiesce, so they make this scope
       unbounded; 4 ops < epsilon-window wrap, so skipping them is sound
       (see [Explore.scope]) and the space exhausts *)
    persistence = false;
  }

let gen_explore rng =
  let k = Sim.Rng.int rng 8 in
  match Sim.Rng.int rng 4 with
  | 0 -> (Sharded_uc.op_multi_put, [| k; k + 1; 1 + Sim.Rng.int rng 9 |])
  | 1 -> (H.op_insert, [| k; Sim.Rng.int rng 100 |])
  | 2 -> (H.op_get, [| k |])
  | _ -> (Sharded_uc.op_transfer, [| k; k + 3; 1 |])

let explore_2shard ?flit ?dist_rw ?log_mirror ?lsm_ckpt ?shard () =
  ES.explore ~config:(sharded ?flit ?dist_rw ?log_mirror ?lsm_ckpt 2) ?shard
    ~mode:Config.Durable
    ~fault:Config.No_fault ~gen_op:gen_explore ~scope:explore_scope ()

let explore_2shard_serial = lazy (explore_2shard ())

let no_violation (res : Check.Explore.result) =
  match res.Check.Explore.violation with
  | None -> ()
  | Some v ->
    Alcotest.failf "unexpected violation: %s"
      (String.concat "; "
         (List.map Check.Durable_lin.violation_to_string
            v.Check.Explore.v_violations))

(* schedules, terminals, steps, states, dedup hits, sleep skips, crash
   points, frontiers, recoveries of a 2-shard scope; the default ones are
   the classic scope's *)
let check_2shard_stats ?(want = [ 1360; 54; 51921; 805; 1306; 591; 11; 16; 9 ])
    (res : Check.Explore.result) =
  let s = res.Check.Explore.stats in
  List.iter2
    (fun (label, got) want -> check label want got)
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
    want

let test_explore_2shard_clean () =
  let res = Lazy.force explore_2shard_serial in
  no_violation res;
  check_bool "exhausted" true res.Check.Explore.exhausted;
  check_bool "reached terminals" true
    (res.Check.Explore.stats.Check.Explore.terminals > 0);
  check_bool "crash frontiers judged" true
    (res.Check.Explore.stats.Check.Explore.frontiers > 0);
  (* the sharded DFS is pinned: any change to the shared schedule search,
     the sharded ghost hashes or the crash-frontier dedup shows here *)
  check_2shard_stats res

let test_explore_2shard_oracle_split () =
  (* the oracle split runs the sharded construction like the flat one:
     both halves replay the same DFS, and the merge is the serial result *)
  let serial = Lazy.force explore_2shard_serial in
  let merged =
    Check.Explore.merge_shards
      (Array.init 2 (fun i -> explore_2shard ~shard:(i, 2) ()))
  in
  let s = serial.Check.Explore.stats and m = merged.Check.Explore.stats in
  List.iter
    (fun (label, f) -> check label (f s) (f m))
    [
      ("schedules", fun s -> s.Check.Explore.schedules);
      ("terminals", fun s -> s.Check.Explore.terminals);
      ("steps", fun s -> s.Check.Explore.steps);
      ("states", fun s -> s.Check.Explore.states);
      ("dedup hits", fun s -> s.Check.Explore.dedup_hits);
      ("sleep skips", fun s -> s.Check.Explore.sleep_skips);
      ("crash points", fun s -> s.Check.Explore.crash_points);
      ("frontiers", fun s -> s.Check.Explore.frontiers);
      ("recoveries", fun s -> s.Check.Explore.recoveries);
      ("max completed-op loss", fun s -> s.Check.Explore.max_completed_loss);
    ];
  check_bool "same terminal states" true
    (serial.Check.Explore.terminal_states = merged.Check.Explore.terminal_states);
  check_bool "same verdict" true
    (serial.Check.Explore.violation = merged.Check.Explore.violation
    && serial.Check.Explore.exhausted = merged.Check.Explore.exhausted)

let test_explore_2shard_flit_clean () =
  (* the benchmark's sharded configuration runs FliT: its flush
     elimination must keep the 2-shard scope clean at every crash
     frontier too *)
  let res = explore_2shard ~flit:true () in
  no_violation res;
  check_bool "exhausted" true res.Check.Explore.exhausted;
  check_bool "crash frontiers judged" true
    (res.Check.Explore.stats.Check.Explore.recoveries > 0)

let test_explore_2shard_lsm_clean () =
  (* the log-structured backend on every shard: without the checkpoint
     fibers nothing seals, so each crash frontier recovers by mounting an
     empty manifest, replaying the whole log and re-sealing what it
     dirtied. The memtables enter the state hash through
     [Prep_uc.ghost_hash], but they only ever track the trace here, so
     the search is the classic scope's, schedule for schedule *)
  let res = explore_2shard ~lsm_ckpt:true () in
  no_violation res;
  check_bool "exhausted" true res.Check.Explore.exhausted;
  check_2shard_stats res

let test_explore_2shard_numa_clean () =
  (* the distributed reader lock and the DRAM log mirror on both shards:
     each crash frontier recovers from the NVM log copy alone *)
  let res = explore_2shard ~dist_rw:true ~log_mirror:true () in
  no_violation res;
  check_bool "exhausted" true res.Check.Explore.exhausted;
  check_2shard_stats ~want:[ 1762; 61; 74746; 988; 1701; 757; 11; 16; 9 ] res

let test_explore_finds_planted_fault () =
  (* one worker issuing two cross-shard multi-puts (keys 0 and 1 hash to
     different shards when nshards = 2): with the decision flushed before
     the prepares persist, the very first crash frontier after the early
     commit shows a committed transaction with missing prepares *)
  let scope =
    { explore_scope with Check.Explore.threads = 1; ops_per_worker = 2 }
  in
  let gen _rng = (Sharded_uc.op_multi_put, [| 0; 1; 5 |]) in
  let res =
    ES.explore ~config:(sharded 2) ~mode:Config.Durable ~fault:Config.Commit_before_prepare_persist
      ~gen_op:gen ~scope ()
  in
  match res.Check.Explore.violation with
  | None -> Alcotest.fail "planted commit-before-prepare fault not found"
  | Some v ->
    check_bool "violation is a committed-txn atomicity break" true
      (List.exists
         (function
           | Check.Durable_lin.Atomicity_violation { committed = true; _ } ->
             true
           | _ -> false)
         v.Check.Explore.v_violations);
    check_bool "found at a crash frontier" true
      (v.Check.Explore.v_crash <> None);
    (* the decision trace + crash point replays to the same verdict *)
    let violations, crashed, _, _, _ =
      ES.replay ~config:(sharded 2) ~mode:Config.Durable ~fault:Config.Commit_before_prepare_persist
        ~gen_op:gen ~scope ~decisions:v.Check.Explore.v_decisions
        ?crash:v.Check.Explore.v_crash ()
    in
    check_bool "replay crashed" true crashed;
    check_bool "replay reproduces the violation" true (violations <> [])

(* ---- config gates ---- *)

(* ---- parallel recovery ---- *)

exception Power_failure

(* [Replays] is the hashmap with [execute] noting the memory-op index of
   each call while [replays_in] names a memory: during recovery, that is
   the index of the latest replayed entry. *)
let replays_in = ref None
let last_replay = ref 0

module Replays = struct
  include Seqds.Hashmap

  let execute h ~op ~args =
    let r = Seqds.Hashmap.execute h ~op ~args in
    Option.iter (fun mem -> last_replay := Nvm.Memory.op_index mem) !replays_in;
    r
end

module SR = Sharded_uc.Make (Replays)

(* a 3-worker, 4-shard durable run with cross-shard transactions, cut by
   a power failure at 1.5 ms; three workers leave room for two shards'
   recoveries at once on the 2x4 topology, so recovery runs in waves *)
let crash_sharded ?(lsm_ckpt = false) () =
  let sim = Sim.create ~seed:5L topology in
  let mem = Nvm.Memory.make ~bg_period:2000 ~sockets:2 () in
  let uc_ref = ref None in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let cfg =
           Config.make ~mode:Config.Durable ~lsm_ckpt ~log_size:128
             ~epsilon:32 ~shards:4 ~workers:3 ()
         in
         let uc =
           SR.create
             ~prefill:(List.init 40 (fun k -> (H.op_insert, [| k; k |])))
             mem (Nvm.Roots.make mem) cfg
         in
         SR.start_persistence uc;
         uc_ref := Some uc;
         for w = 0 to 2 do
           let socket, core = Sim.Topology.place topology w in
           Sim.spawn_here ~socket ~core (fun () ->
               SR.register_worker uc;
               let rng = Sim.fiber_rng () in
               while true do
                 let k = Sim.Rng.int rng 64 and k2 = Sim.Rng.int rng 64 in
                 let op, args =
                   match Sim.Rng.int rng 4 with
                   | 0 ->
                     (Sharded_uc.op_multi_put, [| k; k2; Sim.Rng.int rng 1000 |])
                   | 1 -> (Sharded_uc.op_transfer, [| k; k2; 3 |])
                   | 2 -> (H.op_insert, [| k; Sim.Rng.int rng 1000 |])
                   | _ -> (H.op_get, [| k |])
                 in
                 ignore (SR.execute uc ~op ~args)
               done)
         done));
  (match Sim.run ~until:1_500_000 sim () with
   | `Cut _ -> ()
   | `Done -> Alcotest.fail "finished before the crash");
  Nvm.Memory.crash mem;
  (Option.get !uc_ref, mem)

(* [f] on socket 0 of a fresh simulation, run to the end *)
let in_recovery_sim f =
  Nvm.Context.reset ();
  let sim = Sim.create ~seed:6L topology in
  let out = ref None in
  ignore (Sim.spawn sim ~socket:0 (fun () -> out := Some (f ())));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  Option.get !out

let recover_sharded uc =
  in_recovery_sim (fun () ->
      let uc', reports = SR.recover uc in
      (SR.snapshot uc', reports))

(* the sequential recovery parallel recovery replaced: every shard's
   [recover ~keep] in turn, against the same decision table *)
let recover_in_turn (uc : SR.t) =
  in_recovery_sim (fun () ->
      let dec = Sharded_uc.Decision.attach uc.SR.mem uc.SR.roots in
      let keep ~op ~args =
        (not (Sharded_uc.is_txn_op op))
        || Sharded_uc.Decision.committed dec args.(0)
      in
      let pairs = Array.map (SR.P.recover ~keep) uc.SR.shards in
      (SR.snapshot { uc with SR.shards = Array.map fst pairs }, Array.map snd pairs))

let nvm_media mem ~arenas =
  List.filter_map
    (fun aid ->
      if Nvm.Memory.arena_kind mem aid = Nvm.Memory.Nvm then
        Some
          (Array.init Nvm.Memory.arena_words (fun offset ->
               Nvm.Memory.peek_media mem (Nvm.Memory.addr_of ~aid ~offset)))
      else None)
    (List.init arenas Fun.id)

(* Recovery writes no root before every shard has replayed, and a power
   failure anywhere before its first root write leaves every pre-crash
   NVM word as it was: recovering again gives the same state and the
   same per-shard reports. *)
let test_recovery_crash_window () =
  let uc, mem = crash_sharded () in
  let crashed = Nvm.Memory.snapshot mem in
  let arenas = Nvm.Memory.arena_count mem in
  let media = nvm_media mem ~arenas in
  let start = Nvm.Memory.op_index mem in
  let first_root = ref max_int in
  Nvm.Memory.set_access_hook mem (fun _ addr write _ ->
      if write && addr > 0 && addr < Nvm.Roots.max_slots
         && !first_root = max_int
      then first_root := Nvm.Memory.op_index mem - 1);
  replays_in := Some mem;
  last_replay := start;
  let want = recover_sharded uc in
  replays_in := None;
  Nvm.Memory.clear_access_hook mem;
  check_bool "a root is written" true (!first_root < max_int);
  check_bool "an entry is replayed" true (!last_replay > start);
  check_bool "the first root write follows every shard's last replay" true
    (!last_replay < !first_root);
  List.iter
    (fun k ->
      let cut = start + ((!first_root - start) * k / 4) in
      let at =
        Printf.sprintf "cut at op %d of %d" (cut - start) (!first_root - start)
      in
      Nvm.Memory.restore mem crashed;
      Nvm.Memory.set_crash_hook mem (fun i ->
          if i >= cut then raise Power_failure);
      (match recover_sharded uc with
       | _ -> Alcotest.fail (at ^ ": recovery finished")
       | exception Power_failure -> ());
      Nvm.Memory.clear_crash_hook mem;
      Nvm.Memory.crash mem;
      check_bool (at ^ ": pre-crash media untouched") true
        (nvm_media mem ~arenas = media);
      let got = recover_sharded uc in
      Alcotest.(check (list int)) (at ^ ": state") (fst want) (fst got);
      check_bool (at ^ ": reports") true (snd want = snd got))
    [ 0; 1; 2; 3; 4 ]

(* No two recovery fibers that run at the same time share a core, which
   the simulator would not charge for; the 2x4 topology fits two shards'
   recoveries at once, so the four shards recover in two waves. *)
let test_recovery_cores () =
  let uc, mem = crash_sharded () in
  (* fid -> socket, core, and the clocks of its first and last access *)
  let spans = Hashtbl.create 16 in
  Nvm.Memory.set_access_hook mem (fun _ _ _ _ ->
      let f = Sim.self () and now = Sim.now () in
      let first =
        match Hashtbl.find_opt spans f.Sim.fid with
        | Some (_, _, first, _) -> first
        | None -> now
      in
      Hashtbl.replace spans f.Sim.fid (f.Sim.socket, f.Sim.core, first, now));
  ignore (recover_sharded uc);
  Nvm.Memory.clear_access_hook mem;
  let spans = Hashtbl.fold (fun fid span l -> (fid, span) :: l) spans [] in
  let overlapping = ref 0 in
  List.iter
    (fun (a, (s, c, a0, a1)) ->
      List.iter
        (fun (b, (s', c', b0, b1)) ->
          if a < b && a0 < b1 && b0 < a1 then begin
            incr overlapping;
            if s = s' && c = c' then
              Alcotest.failf "fibers %d and %d share core %d.%d" a b s c
          end)
        spans)
    spans;
  check_bool "fibers run at once" true (!overlapping > 0)

(* Parallel recovery gives what recovering the shards in turn gives, under
   either checkpoint backend. *)
let test_recovery_equals_in_turn () =
  List.iter
    (fun lsm_ckpt ->
      let label = if lsm_ckpt then "lsm" else "classic" in
      let uc, mem = crash_sharded ~lsm_ckpt () in
      let crashed = Nvm.Memory.snapshot mem in
      let par_state, par_reports = recover_sharded uc in
      Nvm.Memory.restore mem crashed;
      let seq_state, seq_reports = recover_in_turn uc in
      check_bool (label ^ ": state non-trivial") true
        (List.length par_state > 20);
      Alcotest.(check (list int)) (label ^ ": state") seq_state par_state;
      check_bool (label ^ ": reports") true (seq_reports = par_reports))
    [ false; true ]

let test_config_gates () =
  Alcotest.check_raises "sharding requires durable"
    (Invalid_argument
       "Config: sharding requires durable mode (cross-shard commit \
        decisions are only meaningful over durably logged prepares)")
    (fun () ->
      Config.validate
        (Config.make ~mode:Config.Buffered ~shards:2 ~workers:2 ())
        ~beta:4);
  Alcotest.check_raises "fault needs shards"
    (Invalid_argument
       "Config: commit-before-prepare fault only exists with --uc-shards >= 2")
    (fun () ->
      Config.validate
        (Config.make ~mode:Config.Durable
           ~fault:Config.Commit_before_prepare_persist ~workers:2 ())
        ~beta:4)

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "partition" `Quick test_route_partition;
          Alcotest.test_case "shard-count invariance" `Quick
            test_shard_count_invariance;
          Alcotest.test_case "multi_put/transfer semantics" `Quick
            test_multi_put_and_transfer;
        ] );
      ( "decision",
        [ Alcotest.test_case "chunked table" `Quick test_decision_table_chunks ] );
      ( "fuzz",
        [
          Alcotest.test_case "single-key campaign" `Slow test_fuzz_single_key;
          Alcotest.test_case "10% cross campaign" `Slow test_fuzz_cross_10;
          Alcotest.test_case "50% multi campaign" `Slow test_fuzz_cross_50;
          Alcotest.test_case "flit 40% cross campaign" `Slow
            test_fuzz_flit_cross_40;
          Alcotest.test_case "lsm 40% cross campaign" `Slow
            test_fuzz_lsm_cross_40;
          Alcotest.test_case "dist-rw + log-mirror 40% cross campaign" `Slow
            test_fuzz_numa_cross_40;
          Alcotest.test_case "combiner no self-deadlock, seed 1" `Quick
            (test_combiner_no_self_deadlock 1);
          Alcotest.test_case "combiner no self-deadlock, seed 7" `Quick
            (test_combiner_no_self_deadlock 7);
          Alcotest.test_case "lsm negative balance survives" `Quick
            test_lsm_negative_balance_survives;
          Alcotest.test_case "planted fault caught + shrunk" `Slow
            test_fuzz_catches_planted_fault;
          Alcotest.test_case "fault inert without txns" `Slow
            test_fault_inert_without_multis;
        ] );
      ( "explore",
        [
          Alcotest.test_case "2-shard clean exhaustion" `Slow
            test_explore_2shard_clean;
          Alcotest.test_case "2-shard oracle split equals serial" `Slow
            test_explore_2shard_oracle_split;
          Alcotest.test_case "2-shard flit clean exhaustion" `Slow
            test_explore_2shard_flit_clean;
          Alcotest.test_case "2-shard lsm clean exhaustion" `Slow
            test_explore_2shard_lsm_clean;
          Alcotest.test_case "2-shard dist-rw + log-mirror clean exhaustion"
            `Slow test_explore_2shard_numa_clean;
          Alcotest.test_case "planted fault found + replayed" `Quick
            test_explore_finds_planted_fault;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash window" `Quick test_recovery_crash_window;
          Alcotest.test_case "one core per fiber" `Quick test_recovery_cores;
          Alcotest.test_case "equals shards in turn" `Quick
            test_recovery_equals_in_turn;
        ] );
      ( "config",
        [ Alcotest.test_case "gates" `Quick test_config_gates ] );
    ]
