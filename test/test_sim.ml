(* Tests for the discrete-event simulator substrate. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- RNG ---- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    check "same stream" (Sim.Rng.int a 1_000_000) (Sim.Rng.int b 1_000_000)
  done

let test_rng_bounds () =
  let r = Sim.Rng.create 3L in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.int r 17 in
    check_bool "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_range () =
  let r = Sim.Rng.create 11L in
  for _ = 1 to 10_000 do
    let f = Sim.Rng.float r in
    check_bool "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let parent = Sim.Rng.create 5L in
  let child = Sim.Rng.split parent in
  let child_vals = List.init 10 (fun _ -> Sim.Rng.int child 1000) in
  let parent_vals = List.init 10 (fun _ -> Sim.Rng.int parent 1000) in
  check_bool "streams differ" true (child_vals <> parent_vals)

(* ---- Topology ---- *)

let test_topology_place () =
  let topo = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  Alcotest.(check (pair int int)) "worker 0" (0, 0) (Sim.Topology.place topo 0);
  Alcotest.(check (pair int int)) "worker 3" (0, 3) (Sim.Topology.place topo 3);
  Alcotest.(check (pair int int)) "worker 4" (1, 0) (Sim.Topology.place topo 4);
  Alcotest.(check (pair int int)) "worker 7" (1, 3) (Sim.Topology.place topo 7);
  Alcotest.check_raises "out of range" (Invalid_argument
    "Topology.place: worker index out of range")
    (fun () -> ignore (Sim.Topology.place topo 8));
  List.iter
    (fun (workers, want) ->
      Alcotest.(check (array int))
        (Printf.sprintf "%d workers per socket" workers)
        want
        (Sim.Topology.workers_per_socket topo workers))
    [ (0, [| 0; 0 |]); (1, [| 1; 0 |]); (5, [| 4; 1 |]); (8, [| 4; 4 |]);
      (9, [| 4; 4 |]) ]

(* ---- scheduler ---- *)

let test_single_fiber_result () =
  let r = Sim.run_one (fun () -> 41 + 1) in
  check "result" 42 r

let test_tick_advances_clock () =
  let elapsed =
    Sim.run_one (fun () ->
        let t0 = Sim.now () in
        Sim.tick 500;
        Sim.tick 250;
        Sim.now () - t0)
  in
  check "750ns charged" 750 elapsed

let test_fibers_interleave_by_time () =
  (* Fiber A does expensive ticks, fiber B cheap ones: B's events should be
     timestamped consistently with simulated order, i.e. B finishes first. *)
  let order = ref [] in
  let sim = Sim.create Sim.Topology.default in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         for _ = 1 to 10 do Sim.tick 1000 done;
         order := `A :: !order));
  ignore
    (Sim.spawn sim ~socket:1 (fun () ->
         for _ = 1 to 10 do Sim.tick 10 done;
         order := `B :: !order));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  Alcotest.(check bool) "B finished before A" true (!order = [ `A; `B ])

let test_run_until_cuts () =
  (* two fibers so the causality rule forces interleaving (a lone fiber
     never yields and cannot be cut) *)
  let progressed = ref 0 in
  let sim = Sim.create Sim.Topology.default in
  for _ = 1 to 2 do
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           for _ = 1 to 1000 do
             Sim.tick 100;
             incr progressed
           done))
  done;
  (match Sim.run ~until:5_000 sim () with
   | `Cut _ -> ()
   | `Done -> Alcotest.fail "expected a cut");
  (* Both fibers were abandoned mid-run around the 5µs mark. *)
  check_bool "partial progress" true (!progressed > 0 && !progressed < 2000)

let test_spawn_inherits_clock () =
  let child_start = ref (-1) in
  let sim = Sim.create Sim.Topology.default in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         Sim.tick 1234;
         ignore
           (Sim.spawn sim ~socket:0 (fun () -> child_start := Sim.now ()))));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  check "child starts at parent's clock" 1234 !child_start

let test_sleep_until () =
  let t =
    Sim.run_one (fun () ->
        Sim.tick 10;
        Sim.sleep_until 9_999;
        Sim.now ())
  in
  check "slept" 9_999 t

(* The caller resumes when the last child returns, or when its own work
   ends if that is later; children start at the caller's clock. *)
let test_fork_join () =
  let join ~own =
    Sim.run_one (fun () ->
        Sim.tick 100;
        let starts = ref [] in
        let child cost () =
          starts := Sim.now () :: !starts;
          Sim.tick cost
        in
        let r =
          Sim.fork_join [ (0, 1, child 300); (1, 0, child 700) ] (fun () ->
              Sim.tick own;
              own)
        in
        (r, Sim.now (), !starts))
  in
  let r, t, starts = join ~own:50 in
  check "main's result" 50 r;
  check "resumes at the last child's return" 800 t;
  Alcotest.(check (list int)) "children start at the caller's clock" [ 100; 100 ] starts;
  let _, t, _ = join ~own:2_000 in
  check "or at its own clock when later" 2_100 t

(* A read before the fill parks until it, resuming at the filler's clock
   or at the reader's own when later; a read after the fill is free; a
   cell fills once. *)
let test_once () =
  let parked ~reader ~filler =
    Sim.run_one (fun () ->
        let c = Sim.Once.create () in
        let seen = ref (0, 0) in
        let read () =
          Sim.tick reader;
          let v = Sim.Once.get c in
          seen := (v, Sim.now ())
        in
        let fill () =
          Sim.tick filler;
          Sim.Once.fill c 42
        in
        Sim.fork_join [ (0, 1, read); (1, 0, fill) ] (fun () -> ());
        !seen)
  in
  Alcotest.(check (pair int int)) "resumes at the filler's clock" (42, 500)
    (parked ~reader:100 ~filler:500);
  (* timed dispatch runs the filler first when the reader is later, so
     park a later reader under a scheduler that picks it first *)
  let sim = Sim.create Sim.Topology.default in
  Sim.set_chooser sim (fun fids -> fids.(Array.length fids - 1));
  let c = Sim.Once.create () and filled = ref false in
  let parked = ref false and seen = ref 0 in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         Sim.tick 500;
         filled := true;
         Sim.Once.fill c 42));
  ignore
    (Sim.spawn sim ~socket:0 ~core:1 (fun () ->
         Sim.tick 900;
         parked := not !filled;
         ignore (Sim.Once.get c);
         seen := Sim.now ()));
  ignore (Sim.run sim ());
  check_bool "the later reader parked" true !parked;
  check "and resumes at its own clock" 900 !seen;
  let after, cost, refill =
    Sim.run_one (fun () ->
        let c = Sim.Once.create () in
        Sim.Once.fill c 7;
        Sim.tick 250;
        let t0 = Sim.now () in
        let v = Sim.Once.get c in
        let cost = Sim.now () - t0 in
        let refill =
          match Sim.Once.fill c 8 with
          | () -> false
          | exception Invalid_argument _ -> true
        in
        (v, cost, refill))
  in
  check "a read after the fill sees the value" 7 after;
  check "and costs nothing" 0 cost;
  check_bool "a second fill raises" true refill

let test_determinism_across_runs () =
  let run () =
    let log = ref [] in
    let sim = Sim.create ~seed:99L Sim.Topology.default in
    for i = 0 to 3 do
      ignore
        (Sim.spawn sim ~socket:(i mod 2) (fun () ->
             for j = 1 to 5 do
               Sim.tick (50 + (17 * i));
               log := (i, j, Sim.now ()) :: !log
             done))
    done;
    (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
    !log
  in
  Alcotest.(check bool) "identical traces" true (run () = run ())

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        ] );
      ( "topology",
        [ Alcotest.test_case "placement" `Quick test_topology_place ] );
      ( "scheduler",
        [
          Alcotest.test_case "single fiber result" `Quick test_single_fiber_result;
          Alcotest.test_case "tick advances clock" `Quick test_tick_advances_clock;
          Alcotest.test_case "interleave by time" `Quick test_fibers_interleave_by_time;
          Alcotest.test_case "run until cuts" `Quick test_run_until_cuts;
          Alcotest.test_case "spawn inherits clock" `Quick test_spawn_inherits_clock;
          Alcotest.test_case "sleep until" `Quick test_sleep_until;
          Alcotest.test_case "fork join" `Quick test_fork_join;
          Alcotest.test_case "write-once cell" `Quick test_once;
          Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
        ] );
    ]
