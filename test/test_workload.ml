(* Statistical tests for the workload generators (Harness.Workload).

   Every test draws from a fixed-seed [Sim.Rng], so each statistic below
   is one deterministic number: the assertions are regression guards with
   generous tolerances, not flaky hypothesis tests. A broken generator
   (wrong normaliser, inverted phase logic, dropped die face) moves these
   statistics by integer factors, far outside any bound here. *)

open Harness

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rng_of seed = Sim.Rng.create (Int64.of_int seed)

(* ---- map operation mix ---- *)

(* The 200-sided-die classifier splits exactly for every read_pct: the
   old 100-sided die handed the odd leftover point of [100 - read_pct]
   to remove, skewing insert/remove away from the documented
   half-and-half update split. *)
let test_op_class_exact () =
  for read_pct = 0 to 100 do
    let reads = ref 0 and inserts = ref 0 and removes = ref 0 in
    for die = 0 to 199 do
      match Workload.map_op_class ~read_pct ~die with
      | Workload.Read -> incr reads
      | Workload.Insert -> incr inserts
      | Workload.Remove -> incr removes
    done;
    check (Printf.sprintf "reads at %d%%" read_pct) (2 * read_pct) !reads;
    check (Printf.sprintf "inserts at %d%%" read_pct) (100 - read_pct) !inserts;
    check (Printf.sprintf "removes at %d%%" read_pct) (100 - read_pct) !removes
  done

let test_map_mix_sampled () =
  let w = Workload.map_workload ~read_pct:75 ~key_range:256 ~prefill_n:64 in
  let rng = rng_of 41 in
  let module H = Seqds.Hashmap in
  let n = 20_000 in
  let gets = ref 0 and ins = ref 0 and rem = ref 0 in
  for phase = 0 to n - 1 do
    let op, _ = w.Workload.next rng ~phase in
    if op = H.op_get then incr gets
    else if op = H.op_insert then incr ins
    else if op = H.op_remove then incr rem
    else Alcotest.fail "unexpected op code"
  done;
  check "all ops classified" n (!gets + !ins + !rem);
  let near label expected got tol =
    check_bool
      (Printf.sprintf "%s: %d within %d of %d" label got tol expected)
      true
      (abs (got - expected) <= tol)
  in
  near "gets" (3 * n / 4) !gets (n / 40);
  near "inserts" (n / 8) !ins (n / 40);
  near "removes" (n / 8) !rem (n / 40)

(* ---- Zipfian popularity ---- *)

(* Goodness of fit against the exact Zipf pmf, over log2 rank buckets
   ({0}, {1}, {2,3}, {4..7}, ...) so every cell has a large expected
   count. The YCSB closed-form generator carries a small deterministic
   bias (about +11% on the {2,3} bucket at theta 0.9), so a chi-squared
   statistic grows without bound in the sample size; what is stable is
   the bias itself, so the assertion bounds the total-variation distance
   between the observed and exact bucket distributions (healthy: 0.016;
   a uniform or wrong-exponent generator lands above 0.3) plus each
   bucket's relative error. *)
let test_zipf_goodness_of_fit () =
  let n = 128 and theta = 0.9 in
  let z = Workload.Zipf.make ~n ~theta in
  let rng = rng_of 907 in
  let draws = 200_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Workload.Zipf.next z rng in
    check_bool "rank in range" true (r >= 0 && r < n);
    counts.(r) <- counts.(r) + 1
  done;
  let zetan = Workload.Zipf.zeta n theta in
  let pmf i = 1.0 /. (Float.pow (float_of_int (i + 1)) theta *. zetan) in
  let bucket_of i =
    (* log2 bucket index of rank i: 0 -> 0, 1 -> 1, 2,3 -> 2, ... *)
    if i = 0 then 0
    else
      let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
      go 0 i
  in
  let nbuckets = bucket_of (n - 1) + 1 in
  let obs = Array.make nbuckets 0.0 and exp_ = Array.make nbuckets 0.0 in
  for i = 0 to n - 1 do
    let b = bucket_of i in
    obs.(b) <- obs.(b) +. float_of_int counts.(i);
    exp_.(b) <- exp_.(b) +. (float_of_int draws *. pmf i)
  done;
  let tv = ref 0.0 in
  for b = 0 to nbuckets - 1 do
    check_bool "expected count large enough" true (exp_.(b) > 100.0);
    let rel = Float.abs (obs.(b) -. exp_.(b)) /. exp_.(b) in
    check_bool
      (Printf.sprintf "bucket %d relative error %.3f below 0.2" b rel)
      true (rel < 0.2);
    tv := !tv +. Float.abs (obs.(b) -. exp_.(b))
  done;
  let tv = 0.5 *. !tv /. float_of_int draws in
  check_bool
    (Printf.sprintf "total-variation distance %.4f below 0.03" tv)
    true (tv < 0.03);
  (* head probability directly: rank 0 carries 1/zetan of the mass *)
  let p0 = float_of_int counts.(0) /. float_of_int draws in
  let want = 1.0 /. zetan in
  check_bool
    (Printf.sprintf "head prob %.4f within 5%% of %.4f" p0 want)
    true
    (Float.abs (p0 -. want) /. want < 0.05)

let test_zipf_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "theta 0 rejected" true
    (raises (fun () -> Workload.Zipf.make ~n:10 ~theta:0.0));
  check_bool "theta 1 rejected" true
    (raises (fun () -> Workload.Zipf.make ~n:10 ~theta:1.0));
  check_bool "n 0 rejected" true
    (raises (fun () -> Workload.Zipf.make ~n:0 ~theta:0.5))

(* ---- arrival processes ---- *)

(* Drive an arrival process like Openloop's generator fiber does and
   return the gap list. *)
let sample_gaps proc ~seed ~n =
  let arr = Workload.Arrival.make proc in
  let rng = rng_of seed in
  let now = ref 0 in
  List.init n (fun _ ->
      let g = Workload.Arrival.next_gap arr rng ~now:!now in
      now := !now + g;
      g)

let mean_var gaps =
  let n = float_of_int (List.length gaps) in
  let mean = float_of_int (List.fold_left ( + ) 0 gaps) /. n in
  let var =
    List.fold_left
      (fun a g ->
        let d = float_of_int g -. mean in
        a +. (d *. d))
      0.0 gaps
    /. n
  in
  (mean, var)

(* Poisson at 1e6 ops/s: mean gap 1000 ns, and the squared coefficient of
   variation of an exponential is 1. *)
let test_poisson_gaps () =
  let gaps =
    sample_gaps (Workload.Arrival.Poisson { rate = 1e6 }) ~seed:11 ~n:50_000
  in
  let mean, var = mean_var gaps in
  let cv2 = var /. (mean *. mean) in
  check_bool
    (Printf.sprintf "mean gap %.1f within 5%% of 1000" mean)
    true
    (Float.abs (mean -. 1000.0) < 50.0);
  check_bool
    (Printf.sprintf "cv^2 %.3f in [0.9, 1.1]" cv2)
    true
    (cv2 > 0.9 && cv2 < 1.1)

(* MMPP-2: long-run rate is the average of the phase rates, and mixing a
   slow and a fast phase makes gaps overdispersed relative to any single
   Poisson stream (cv^2 > 1). *)
let test_bursty_gaps () =
  let proc =
    Workload.Arrival.Bursty
      { rate_low = 0.5e6; rate_high = 4.5e6; dwell_ns = 100_000.0 }
  in
  check_bool "mean_rate averages phases" true
    (Float.abs (Workload.Arrival.mean_rate (Workload.Arrival.make proc) -. 2.5e6)
     < 1.0);
  let gaps = sample_gaps proc ~seed:23 ~n:100_000 in
  let mean, var = mean_var gaps in
  let cv2 = var /. (mean *. mean) in
  let want_mean = 1e9 /. 2.5e6 in
  check_bool
    (Printf.sprintf "mean gap %.1f within 10%% of %.1f" mean want_mean)
    true
    (Float.abs (mean -. want_mean) /. want_mean < 0.10);
  check_bool
    (Printf.sprintf "overdispersed: cv^2 %.3f > 1.2" cv2)
    true (cv2 > 1.2)

let test_pair_alternation () =
  let cases =
    [
      ( "queue",
        Workload.queue_pairs ~prefill_n:4,
        Seqds.Queue_ds.op_enqueue,
        Seqds.Queue_ds.op_dequeue );
      ( "pqueue",
        Workload.pqueue_pairs ~prefill_n:4,
        Seqds.Pqueue.op_enqueue,
        Seqds.Pqueue.op_dequeue );
      ( "stack",
        Workload.stack_pairs ~prefill_n:4,
        Seqds.Stack_ds.op_push,
        Seqds.Stack_ds.op_pop );
    ]
  in
  List.iter
    (fun (label, w, push, pop) ->
      let rng = rng_of 71 in
      for phase = 0 to 63 do
        let op, _ = w.Workload.next rng ~phase in
        check
          (Printf.sprintf "%s phase %d" label phase)
          (if phase land 1 = 0 then push else pop)
          op
      done;
      check
        (Printf.sprintf "%s prefill size" label)
        4
        (List.length w.Workload.prefill))
    cases

let () =
  Alcotest.run "workload"
    [
      ( "map-mix",
        [
          Alcotest.test_case "op-class exact for all read_pct" `Quick
            test_op_class_exact;
          Alcotest.test_case "sampled mix at 75% read" `Quick
            test_map_mix_sampled;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "goodness of fit vs exact pmf" `Quick
            test_zipf_goodness_of_fit;
          Alcotest.test_case "parameter validation" `Quick
            test_zipf_validation;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "poisson mean and cv^2" `Quick test_poisson_gaps;
          Alcotest.test_case "bursty mean and overdispersion" `Quick
            test_bursty_gaps;
        ] );
      ( "pairs",
        [
          Alcotest.test_case "phase alternation" `Quick test_pair_alternation;
        ] );
    ]
