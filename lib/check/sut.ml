(** The system under test, as the checkers see it.

    [Explore] and [Fuzz] drive one workload shape — build, start the
    checkpoint fibers, run the workers, stop, sync — and judge two kinds
    of state: a crashed-and-recovered one and a quiescent one. [S] is
    that surface. It has two implementations:

    - [Single] wraps one [Prep.Prep_uc] instance. Recovery is judged by
      [Durable_lin] at the mode's loss bound (ε+β−1 buffered, 0 durable),
      plus the [resolve] consistency check under [--detect];
    - [Sharded] wraps [Prep.Sharded_uc] and judges the multi-shard run as
      ONE history: every shard's trace at loss bound 0 with transaction
      prepares whose decision never reached media excused — those are
      rolled back by design, not lost: the coordinator reports a
      multi-key op complete only after the decision's fence — plus the
      cross-shard [Durable_lin.check_atomicity] audit.

    [Make (Ds).select] picks the implementation from [Config.shards]. *)

open Nvm

(** Judgment of one crash: what recovery kept and what the oracle says. *)
type verdict = {
  violations : Durable_lin.violation list;
  lost : int;  (** completed ops missing from the recovered state *)
  applied : int;  (** ops present in the recovered state *)
}

(** Checkers start from [Config.make]'s defaults. *)
let default_config = Prep.Config.make ~workers:1 ()

(** The configuration a checker runs: [config]'s feature set with the
    checker's own mode, fault, ε, log size and worker count. *)
let checker_config ?(config = default_config) ~mode ~fault ~epsilon
    ~log_size ~workers () =
  { config with Prep.Config.mode; fault; epsilon; log_size; workers }

module type S = sig
  type t

  val create : Memory.t -> Roots.t -> Prep.Config.t -> t
  (** Build the system on a fresh memory; must run inside a fiber. *)

  val start_persistence : t -> unit
  val register_worker : t -> unit
  val execute : t -> op:int -> args:int array -> unit
  val stop : t -> unit
  val sync : t -> unit

  val ghost_hash : t -> int
  (** Hash of the ghost (OCaml-heap) progress the memory fingerprints
      cannot see: stop flags, traces, seqno counters, lsm and transaction
      bookkeeping. Drives the explorer's state dedup and parked-fiber
      wakes. *)

  val crash_key : t -> int
  (** Hash of the ghost state a crash verdict depends on besides the
      media image: crash states agreeing on both are judged once. *)

  val snapshot : t -> int list
  (** Cost-free observation of the (merged) structure. *)

  val logged : t -> int
  (** Ops in the ghost linearization so far. *)

  val completed : t -> int
  (** Of those, the ones whose caller saw the response. *)

  val recover : t -> verdict
  (** Recover [t] from its memory's post-crash media and judge the result
      against the ghost history. Must run inside a fiber of a fresh
      simulation with the workload's topology. *)

  val quiescent : t -> Durable_lin.violation list
  (** Judge a quiescent run: every logged op applied, final state equal to
      the model replay of the full history. *)
end

(* latest applied client seqno per thread, from the tagged ghost trace *)
let applied_seqno_fn trace applied =
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun i ->
      match Prep.Trace.find trace i with
      | Some e when e.Prep.Trace.seqno > 0 ->
        let cur =
          Option.value ~default:0 (Hashtbl.find_opt tbl e.Prep.Trace.tid)
        in
        if e.Prep.Trace.seqno > cur then
          Hashtbl.replace tbl e.Prep.Trace.tid e.Prep.Trace.seqno
      | Some _ | None -> ())
    applied;
  fun tid -> Option.value ~default:0 (Hashtbl.find_opt tbl tid)

(** Run [f] on socket 0 of a fresh simulation until it and every fiber
    it spawns have finished — the harness side of recovering a crashed
    memory (classic recovery builds its replicas on helper fibers). *)
let in_fresh_sim ~who ~seed topo f =
  let sim = Sim.create ~seed topo in
  let out = ref None in
  ignore (Sim.spawn sim ~socket:0 (fun () -> out := Some (f ())));
  (match Sim.run sim () with
   | `Done -> ()
   | `Cut _ -> failwith (who ^ ": recovery did not finish"));
  Option.get !out

(** Run a recovery; if it raises — structure or allocator code meeting
    torn media fails with [Invalid_argument] or [Failure] — the raise is
    the verdict, not a checker crash. *)
let recovering f k =
  match f () with
  | recovered -> k recovered
  | exception (Invalid_argument msg | Failure msg) ->
    { violations = [ Durable_lin.Recovery_raised msg ]; lost = 0; applied = 0 }

module Single (Ds : Seqds.Ds_intf.S) : S = struct
  module Uc = Prep.Prep_uc.Make (Ds)
  module Dl = Durable_lin.Make (Ds.Model)

  type t = Uc.t

  let create mem roots cfg = Uc.create mem roots cfg
  let start_persistence = Uc.start_persistence
  let register_worker = Uc.register_worker
  let execute uc ~op ~args = ignore (Uc.execute uc ~op ~args)
  let stop = Uc.stop
  let sync = Uc.sync

  let ghost_hash = Uc.ghost_hash
  let crash_key uc = Prep.Trace.hash (Uc.trace uc)
  let snapshot = Uc.snapshot
  let logged uc = Prep.Trace.length (Uc.trace uc)
  let completed uc = List.length (Prep.Trace.completed_indexes (Uc.trace uc))

  let recover (uc : t) =
    let cfg = uc.Uc.cfg in
    let topo = Sim.topology () in
    let trace = Uc.trace uc in
    let completed = Prep.Trace.completed_indexes trace in
    recovering (fun () -> Uc.recover uc) @@ fun (uc', report) ->
    let resolutions =
      if not cfg.Prep.Config.detect then []
      else
        List.init cfg.Prep.Config.workers (fun w ->
            let socket, core = Sim.Topology.place topo w in
            let tid = (socket * topo.Sim.Topology.cores_per_socket) + core in
            (tid, Uc.resolve uc' ~tid))
    in
    let applied = report.Prep.Prep_uc.applied in
    let loss_bound =
      match cfg.Prep.Config.mode with
      | Prep.Config.Durable -> 0
      | _ -> cfg.Prep.Config.epsilon + topo.Sim.Topology.cores_per_socket - 1
    in
    {
      violations =
        Dl.check ~trace ~prefill:(Uc.prefill_ops uc) ~applied ~completed
          ~recovered_snapshot:(Uc.snapshot uc') ~loss_bound ()
        @ Durable_lin.check_resolutions ~resolutions
            ~applied_seqno:(applied_seqno_fn trace applied);
      lost = report.Prep.Prep_uc.lost_completed;
      applied = List.length applied;
    }

  let quiescent uc =
    let trace = Uc.trace uc in
    Dl.check ~trace ~prefill:(Uc.prefill_ops uc)
      ~applied:(List.init (Prep.Trace.length trace) Fun.id)
      ~completed:(Prep.Trace.completed_indexes trace)
      ~recovered_snapshot:(Uc.snapshot uc) ~loss_bound:0 ()
end

module Sharded (Ds : Seqds.Ds_intf.S) : S = struct
  module S = Prep.Sharded_uc.Make (Ds)
  module Dl = Durable_lin.Make (S.Tx.Model)

  type t = S.t

  let create mem roots cfg = S.create mem roots cfg
  let start_persistence = S.start_persistence
  let register_worker = S.register_worker
  let execute uc ~op ~args = ignore (S.execute uc ~op ~args)
  let stop = S.stop
  let sync = S.sync

  let sum_shards (uc : t) f =
    List.init uc.S.nshards f |> List.fold_left ( + ) 0

  (* order-independent hash of the transaction ghost (Hashtbl iteration
     order must not leak into state keys) *)
  let txn_ghost_hash (uc : t) =
    let acc = ref (Memory.mix uc.S.next_txid) in
    Hashtbl.iter
      (fun txid parts ->
        acc := !acc lxor Memory.h2 txid (List.fold_left Memory.h2 0 parts))
      uc.S.txn_intent;
    !acc

  let ghost_hash (uc : t) =
    let h = ref (txn_ghost_hash uc) in
    for i = 0 to uc.S.nshards - 1 do
      h := Memory.h2 !h (S.P.ghost_hash (S.shard uc i))
    done;
    !h

  let crash_key uc =
    Memory.h2
      (sum_shards uc (fun i -> Prep.Trace.hash (S.trace uc i) lxor Memory.mix i))
      (txn_ghost_hash uc)

  let snapshot = S.snapshot
  let logged uc = sum_shards uc (fun i -> Prep.Trace.length (S.trace uc i))

  let completed uc =
    sum_shards uc (fun i ->
        List.length (Prep.Trace.completed_indexes (S.trace uc i)))

  let recover uc =
    recovering (fun () -> S.recover uc) @@ fun (uc', reports) ->
    let committed txid = S.committed uc' txid in
    let violations = ref [] in
    let lost = ref 0 in
    (* per-shard applied-prepare tallies, for the atomicity audit *)
    let tally = Array.init uc.S.nshards (fun _ -> Hashtbl.create 64) in
    for i = 0 to uc.S.nshards - 1 do
      let trace = S.trace uc i in
      let applied = reports.(i).Prep.Prep_uc.applied in
      let kept = Hashtbl.create 64 in
      List.iter
        (fun idx ->
          Hashtbl.replace kept idx ();
          let e = Prep.Trace.get trace idx in
          if Prep.Sharded_uc.is_txn_op e.Prep.Trace.op then begin
            let txid = e.Prep.Trace.args.(0) in
            Hashtbl.replace tally.(i) txid
              (1 + Option.value ~default:0 (Hashtbl.find_opt tally.(i) txid))
          end)
        applied;
      (* the completed ops recovery owes: all but the prepares of
         transactions that never committed *)
      let owed =
        List.filter
          (fun idx ->
            let e = Prep.Trace.get trace idx in
            (not (Prep.Sharded_uc.is_txn_op e.Prep.Trace.op))
            || committed e.Prep.Trace.args.(0))
          (Prep.Trace.completed_indexes trace)
      in
      lost :=
        !lost
        + List.length (List.filter (fun idx -> not (Hashtbl.mem kept idx)) owed);
      violations :=
        !violations
        @ Dl.check ~trace ~prefill:(S.prefill_ops uc i) ~applied
            ~completed:owed
            ~recovered_snapshot:(S.P.snapshot (S.shard uc' i)) ~loss_bound:0
            ()
    done;
    let intents =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) uc.S.txn_intent []
      |> List.sort compare
    in
    let applied_count s txid =
      Option.value ~default:0 (Hashtbl.find_opt tally.(s) txid)
    in
    {
      violations =
        !violations
        @ Durable_lin.check_atomicity ~nshards:uc.S.nshards ~intents
            ~committed ~applied_count;
      lost = !lost;
      applied =
        Array.fold_left
          (fun acc r -> acc + List.length r.Prep.Prep_uc.applied)
          0 reports;
    }

  (* every shard's full trace must replay to its final state, and every
     transaction must have a durable decision *)
  let quiescent uc =
    let violations = ref [] in
    for i = 0 to uc.S.nshards - 1 do
      let trace = S.trace uc i in
      violations :=
        !violations
        @ Dl.check ~trace ~prefill:(S.prefill_ops uc i)
            ~applied:(List.init (Prep.Trace.length trace) Fun.id)
            ~completed:(Prep.Trace.completed_indexes trace)
            ~recovered_snapshot:(S.P.snapshot (S.shard uc i)) ~loss_bound:0
            ()
    done;
    Hashtbl.iter
      (fun txid parts ->
        if not (S.committed uc txid) then
          violations :=
            Durable_lin.Atomicity_violation
              { txid; committed = false; shard = List.hd parts }
            :: !violations)
      uc.S.txn_intent;
    !violations
end

module Make (Ds : Seqds.Ds_intf.S) = struct
  module Single = Single (Ds)
  module Sharded = Sharded (Ds)

  let select (cfg : Prep.Config.t) : (module S) =
    if cfg.Prep.Config.shards > 1 then (module Sharded) else (module Single)
end
