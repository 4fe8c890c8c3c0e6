(** Workload generators matching the paper's evaluation (§6).

    Map workloads draw keys uniformly from a key range and split the
    operation mix between reads (get) and updates (half insert, half
    remove), e.g. "90% read-only". Queue/stack/priority-queue workloads are
    100% update, with each worker executing operation *pairs*
    (enqueue+dequeue / push+pop) so the structure's size stays stable. *)

type op = int * int array

(** A workload is (prefill ops, per-worker op generator). The generator
    returns the next operation for a worker given its RNG; pair workloads
    alternate internally. *)
type t = {
  name : string;
  prefill : op list;
  next : Sim.Rng.t -> phase:int -> op;
      (** [phase] is a per-worker op counter, used to alternate pairs *)
}

(* ---- key popularity ---- *)

(** Zipfian key popularity (YCSB's closed-form generator, after Gray et
    al.): rank [i] is drawn with probability proportional to
    [1 / (i+1)^theta], rank 0 being the most popular key. The harmonic
    normaliser [zetan] is computed once at construction (O(n)); every draw
    after that is O(1). Keys are emitted in rank order (no scrambling):
    the structures under test hash keys anyway, and the statistical tests
    want the rank<->key identity. *)
module Zipf = struct
  type t = {
    n : int;
    theta : float;
    alpha : float;
    zetan : float;
    eta : float;
  }

  let zeta n theta =
    let s = ref 0.0 in
    for i = 1 to n do
      s := !s +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    !s

  let make ~n ~theta =
    if n < 1 then invalid_arg "Zipf.make: n < 1";
    if theta <= 0.0 || theta >= 1.0 then
      invalid_arg "Zipf.make: theta must be in (0,1)";
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; alpha = 1.0 /. (1.0 -. theta); zetan; eta }

  let next t rng =
    let u = Sim.Rng.float rng in
    let uz = u *. t.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 t.theta then 1
    else
      let r =
        float_of_int t.n
        *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
      in
      min (t.n - 1) (int_of_float r)
end

(* ---- map workloads (hashmap / rbtree share op codes) ---- *)

(** Pure classifier for the map operation mix, driven by a 200-sided die
    (exactness: the non-read share [100 - read_pct] splits into
    [100 - read_pct] insert faces and [100 - read_pct] remove faces out of
    200, so insert and remove each get exactly half the update probability
    for *every* [read_pct], odd or even — the old 100-sided die gave the
    odd leftover point to remove). *)
type op_class = Read | Insert | Remove

let map_op_class ~read_pct ~die =
  if die < 2 * read_pct then Read
  else if die < read_pct + 100 then Insert
  else Remove

let map_workload_keyed ~theta ~read_pct ~key_range ~prefill_n =
  let module H = Seqds.Hashmap in
  if read_pct < 0 || read_pct > 100 then
    invalid_arg "map_workload: read_pct out of range";
  let prefill =
    (* 50% capacity as in the paper: prefill_n distinct keys *)
    List.init prefill_n (fun i ->
        let k = i * (key_range / max 1 prefill_n) in
        (H.op_insert, [| k; k |]))
  in
  let draw_key =
    match theta with
    | None -> fun rng -> Sim.Rng.int rng key_range
    | Some theta ->
      let z = Zipf.make ~n:key_range ~theta in
      fun rng -> Zipf.next z rng
  in
  let next rng ~phase =
    ignore phase;
    let k = draw_key rng in
    match map_op_class ~read_pct ~die:(Sim.Rng.int rng 200) with
    | Read -> (H.op_get, [| k |])
    | Insert -> (H.op_insert, [| k; Sim.Rng.int rng 1_000_000 |])
    | Remove -> (H.op_remove, [| k |])
  in
  let pop =
    match theta with
    | None -> "uniform"
    | Some t -> Printf.sprintf "zipf(%.2f)" t
  in
  {
    name =
      Printf.sprintf "map %d%% read, %d keys, %s" read_pct key_range pop;
    prefill;
    next;
  }

(** Uniform key popularity — the paper's §6 setup. *)
let map_workload ~read_pct ~key_range ~prefill_n =
  map_workload_keyed ~theta:None ~read_pct ~key_range ~prefill_n

(** Zipfian key popularity with exponent [theta] (YCSB default 0.99). *)
let map_workload_zipf ~theta ~read_pct ~key_range ~prefill_n =
  map_workload_keyed ~theta:(Some theta) ~read_pct ~key_range ~prefill_n

(** Map workload for the sharded construction ([Prep.Sharded_uc]):
    [multi_pct]% of operations are multi-key transactions (half
    [op_multi_put], half [op_transfer]), of which [cross_pct]% pick their
    second key from a *different* shard than the first (the rest stay
    same-shard — still transactional, but no cross-shard commit). The
    remaining [100 - multi_pct]% are the usual single-key read/insert/
    remove mix. Key pairs are steered by rejection against the router's
    own hash, so the cross-shard fraction holds for any shard count. *)
let map_workload_sharded ~read_pct ~multi_pct ~cross_pct ~nshards ~key_range
    ~prefill_n =
  let module H = Seqds.Hashmap in
  if multi_pct < 0 || multi_pct > 100 then
    invalid_arg "map_workload_sharded: multi_pct out of range";
  if cross_pct < 0 || cross_pct > 100 then
    invalid_arg "map_workload_sharded: cross_pct out of range";
  let base = map_workload_keyed ~theta:None ~read_pct ~key_range ~prefill_n in
  let route k = Prep.Sharded_uc.route_key ~nshards k in
  let next rng ~phase =
    if Sim.Rng.int rng 100 < multi_pct then begin
      let k1 = Sim.Rng.int rng key_range in
      let want_cross = nshards > 1 && Sim.Rng.int rng 100 < cross_pct in
      let s1 = route k1 in
      let rec draw tries =
        let k2 = Sim.Rng.int rng key_range in
        if tries = 0 || (route k2 <> s1) = want_cross then k2
        else draw (tries - 1)
      in
      let k2 = draw 64 in
      if Sim.Rng.bool rng then
        (Prep.Sharded_uc.op_multi_put, [| k1; k2; Sim.Rng.int rng 1_000_000 |])
      else (Prep.Sharded_uc.op_transfer, [| k1; k2; 1 + Sim.Rng.int rng 100 |])
    end
    else base.next rng ~phase
  in
  {
    name =
      Printf.sprintf "sharded map %d%% read, %d%% multi (%d%% cross), %d keys"
        read_pct multi_pct cross_pct key_range;
    prefill = base.prefill;
    next;
  }

(* ---- pair workloads ---- *)

let queue_pairs ~prefill_n =
  let module Q = Seqds.Queue_ds in
  {
    name = Printf.sprintf "queue enq/deq pairs, %d items" prefill_n;
    prefill = List.init prefill_n (fun i -> (Q.op_enqueue, [| i |]));
    next =
      (fun rng ~phase ->
        if phase land 1 = 0 then (Q.op_enqueue, [| Sim.Rng.int rng 1_000_000 |])
        else (Q.op_dequeue, [||]));
  }

let pqueue_pairs ~prefill_n =
  let module P = Seqds.Pqueue in
  {
    name = Printf.sprintf "pqueue enq/deq pairs, %d items" prefill_n;
    prefill = List.init prefill_n (fun i -> (P.op_enqueue, [| (i * 7919) mod 1_000_003 |]));
    next =
      (fun rng ~phase ->
        if phase land 1 = 0 then (P.op_enqueue, [| Sim.Rng.int rng 1_000_000 |])
        else (P.op_dequeue, [||]));
  }

let stack_pairs ~prefill_n =
  let module S = Seqds.Stack_ds in
  {
    name = Printf.sprintf "stack push/pop pairs, %d items" prefill_n;
    prefill = List.init prefill_n (fun i -> (S.op_push, [| i |]));
    next =
      (fun rng ~phase ->
        if phase land 1 = 0 then (S.op_push, [| Sim.Rng.int rng 1_000_000 |])
        else (S.op_pop, [||]));
  }

(* ---- arrival processes (open-loop generators) ---- *)

(** Arrival processes for open-loop load generation (Harness.Openloop).
    Rates are offered load in operations per *simulated* second; gaps are
    returned in simulated nanoseconds. All randomness comes from the
    caller's RNG, so an arrival stream is a deterministic function of its
    seed. *)
module Arrival = struct
  type proc =
    | Poisson of { rate : float }
        (** homogeneous Poisson: i.i.d. exponential inter-arrivals *)
    | Bursty of { rate_low : float; rate_high : float; dwell_ns : float }
        (** 2-phase Markov-modulated Poisson process: the rate alternates
            between [rate_low] and [rate_high], staying in each phase for
            an exponential dwell with mean [dwell_ns]. Long-run mean rate
            is the plain average of the two (equal mean dwells). *)

  type t = {
    proc : proc;
    mutable phase_high : bool; (* Bursty only *)
    mutable phase_until : int; (* Bursty only; -1 = not yet entered *)
  }

  let make proc = { proc; phase_high = false; phase_until = -1 }

  let mean_rate t =
    match t.proc with
    | Poisson { rate } -> rate
    | Bursty { rate_low; rate_high; _ } -> 0.5 *. (rate_low +. rate_high)

  (* exponential gap in ns at [rate] ops/s; 1-u keeps log's argument in
     (0,1] (Rng.float is [0,1)) *)
  let exp_gap rng ~rate =
    let u = Sim.Rng.float rng in
    int_of_float (-.Float.log (1.0 -. u) /. rate *. 1e9)

  let exp_dwell rng ~mean =
    let u = Sim.Rng.float rng in
    int_of_float (-.Float.log (1.0 -. u) *. mean)

  (** Draw the gap from simulated time [now] to the next arrival. *)
  let next_gap t rng ~now =
    match t.proc with
    | Poisson { rate } -> exp_gap rng ~rate
    | Bursty { rate_low; rate_high; dwell_ns } ->
      if t.phase_until < 0 then
        t.phase_until <- now + exp_dwell rng ~mean:dwell_ns;
      (* walk phase boundaries; within a phase arrivals are Poisson, and
         memorylessness lets us resample from each boundary we cross *)
      let rec go from =
        let rate = if t.phase_high then rate_high else rate_low in
        let g = exp_gap rng ~rate in
        if from + g <= t.phase_until then from + g - now
        else begin
          let b = t.phase_until in
          t.phase_high <- not t.phase_high;
          t.phase_until <- b + exp_dwell rng ~mean:dwell_ns;
          go b
        end
      in
      go now
end
