(** Sharded PREP-UC: hash-routed shards with cross-shard durable
    transactions.

    One PREP-UC instance is one object = one combiner = one durable log,
    so its throughput is capped by a single combine pipeline no matter the
    thread count. This module partitions a map-convention keyspace across
    [Config.shards] fully independent PREP-UC instances — each with its
    own log, replicas and persistence thread, registered at its own stride
    of the NVM root directory ([Config.root_base = i * 8]) — and fronts
    them with a router that hash-partitions keys (the multiplicative hash
    of [Soft_hash]) and dispatches single-key operations directly to the
    owning shard. Near-linear scaling falls out: disjoint shards share no
    log, no completedTail, no combiner lock.

    Cross-shard atomicity (multi-key operations: [op_multi_put],
    [op_transfer]) uses a 2PC-style commit protocol over the per-shard
    durable logs plus one persistent *decision table*:

    - the coordinator (the calling worker fiber) draws a fresh txid and
      executes one *prepare* sub-operation per participant through the
      normal per-shard combiner path ([op_txn_put]/[op_txn_add], the txid
      in the entry's first argument). PREP-Durable's combiner persists the
      entry and CLFLUSHes the completedTail *before* responding, so when
      a prepare returns it is durably logged below its shard's durable
      completedTail. Prepares are issued in ascending shard order, which
      keeps the shard-boundary wait graph acyclic (see the gate below);
    - once every prepare has returned, the coordinator writes the txid
      into the decision table slot, CLFLUSHes it and SFENCEs — the single
      fence that commits the transaction. Crash before the fence: no
      durable decision, every shard rolls the prepares back. Crash after:
      the decision is media truth, every shard rolls them forward;
    - volatile replicas apply prepares unconditionally (the runtime never
      aborts — a transaction is undecided only for the instant between
      its last prepare and its decision write). The *persistent* replicas
      must not: each shard's persistence thread carries a
      [Prep_uc.txn_gate] that stops the catch-up in front of any prepare
      whose decision is still pending, so a checkpoint can never bake in
      an effect recovery might have to roll back. When the gate does
      approve a prepare it first CLFLUSHes the decision slot: the
      checkpoint's own fence then drains that write-back, so a checkpoint
      containing the effect implies the decision is on media;
    - recovery attaches the decision table through its root slot and
      replays every shard's log through a [Prep_uc.rebuild ~keep] filter:
      prepares whose txid is absent from the post-crash decision media
      are skipped exactly like log holes (roll-back), committed ones are
      re-executed (roll-forward). Durable linearizability then holds
      across any crash frontier, shard by shard and transaction by
      transaction.

    Deadlock freedom of the gate: a gated persistence thread waits on the
    coordinator of an undecided transaction that already *completed* its
    prepare on this shard. A key-pair whose two keys hash to the same
    shard never enters 2PC at all — it is logged as ONE entry
    ([op_mput_local]/[op_xfer_local], atomic by log-entry granularity) —
    so a cross-shard transaction holds at most one prepare per shard and
    issues them in strictly ascending shard order. A coordinator holding
    an undecided prepare on shard [s] can therefore only be waiting on a
    shard strictly above [s] (or on its own decision write, which never
    blocks): every persistence(s) → coordinator → shard s' wait chain has
    s' > s, chains strictly ascend the shard order, and the top shard's
    blocking transaction is always at its (non-blocking) decision step.
    Without the collapse there is a real deadlock, caught by this repo's
    own harness: a coordinator waiting for log space on shard [s] behind
    its *own* undecided prepare, whose decision it can never reach. *)

open Nvm

(* ---- op-code conventions ---- *)

(* Logged transactional prepare sub-operations (applied through the
   per-shard logs; first argument is the txid). *)
let op_txn_put = 16 (* [txid; k; v] : set k := v *)
let op_txn_add = 17 (* [txid; k; d] : k := (get k) + d, insert d if absent *)

(* Client-facing multi-key operations (router level; never logged as-is). *)
let op_multi_put = 18 (* [k1; k2; v] : atomically set k1 := v and k2 := v *)
let op_transfer = 19 (* [k1; k2; a] : atomically move a from k1 to k2 *)

(* Logged single-entry forms of the multi-key ops for key pairs that hash
   to the SAME shard: both keys fit in one log entry, which is atomic by
   log-entry granularity — no txid, no decision, no gate. Collapsing
   same-shard pairs is also what makes the 2PC wait graph acyclic: it
   guarantees a coordinator never waits on a shard where it already holds
   an undecided prepare (see the deadlock note in the module comment). *)
let op_mput_local = 20 (* [k1; k2; v] : set both keys to v *)
let op_xfer_local = 21 (* [k1; k2; a] : move a from k1 to k2 *)

let is_txn_op op = op = op_txn_put || op = op_txn_add
let is_multi_op op = op = op_multi_put || op = op_transfer

(* Map-convention base op codes (Seqds.Hashmap / Soft_hash). *)
let op_insert = 0
let op_get = 2

(** The router's key hash, the same multiplication [Soft_hash] buckets
    with. It is not a Fibonacci hash: 0x9E3779B1 is 1 modulo 2 to 6, so
    for any shard count up to 6 this is [key mod nshards] (for keys below
    2{^31}), and at 7 ([Config.max_shards]) it is [5 * key mod 7], a fixed
    permutation of [key mod 7]. For every allowed shard count, then, keys
    with a common stride land on a subset of the shards. *)
let route_key ~nshards key = key * 0x9E3779B1 land max_int mod nshards

(* Absolute root-directory slot of the decision-table directory block.
   Shard [i] occupies slots [i*8 + 1 .. i*8 + 7], slots 56..62 hold the
   shards' LSM manifests, and this last slot, 63, is the 2PC decision
   table's: the directory is full at [Config.max_shards] shards. *)
let slot_decision = 63

(* ---- the persistent commit decision table ---- *)

module Decision = struct
  (* An open-addressed table of [cap] words in NVM: slot [txid mod cap]
     holds [txid] iff the transaction committed (txids start at 1 and a
     fresh arena reads 0, so an empty slot can never alias a commit; a
     *reused* slot holds a different txid, which also reads as
     not-committed for the old one — capacity just has to exceed the
     number of transactions that can still matter to any recovery scan,
     i.e. one log lap per shard). Chunked because a single allocation is
     capped at half an arena. *)

  let chunk_words = Memory.arena_words / 2

  type t = {
    mem : Memory.t;
    cap : int;
    chunks : int array; (* base address of each chunk *)
  }

  let slot_addr t txid =
    let i = txid mod t.cap in
    t.chunks.(i / chunk_words) + (i mod chunk_words)

  let create mem roots ~cap =
    let cap = max cap 256 in
    let pa = Alloc.create_persistent mem ~home:0 in
    let nchunks = (cap + chunk_words - 1) / chunk_words in
    let chunks = Array.init nchunks (fun _ -> Alloc.alloc pa chunk_words) in
    let dir = Alloc.alloc pa (2 + nchunks) in
    Memory.write mem dir cap;
    Memory.write mem (dir + 1) nchunks;
    Array.iteri (fun i a -> Memory.write mem (dir + 2 + i) a) chunks;
    (* table zero (all-empty) plus its directory durable before any txn *)
    Alloc.persist_heap pa;
    Roots.set roots slot_decision dir;
    { mem; cap; chunks }

  let attach mem roots =
    let dir = Roots.get roots slot_decision in
    if dir = Memory.null then failwith "Decision.attach: no table registered";
    let cap = Memory.read mem dir in
    let nchunks = Memory.read mem (dir + 1) in
    let chunks = Array.init nchunks (fun i -> Memory.read mem (dir + 2 + i)) in
    { mem; cap; chunks }

  (** The commit point: decision slot written, written back, fenced. *)
  let commit t txid =
    let a = slot_addr t txid in
    Memory.write t.mem a txid;
    Memory.clflush ~site:Persist.Txn_decision t.mem a;
    Memory.sfence ~site:Persist.Txn_decision t.mem

  (** Coherent-view commit query (charged read; what the runtime gate and
      recovery replay consult — right after a crash the coherent view IS
      the media view). *)
  let committed t txid = Memory.read t.mem (slot_addr t txid) = txid

  (** Queue the decision slot's write-back without fencing — the
      persistence gate's pre-checkpoint obligation (the checkpoint fence
      drains it). *)
  let flush t txid =
    Memory.clwb ~site:Persist.Txn_gate t.mem (slot_addr t txid)

  (** Cost-free media-truth commit query for the checkers. *)
  let committed_peek t txid = Memory.peek t.mem (slot_addr t txid) = txid
end

module Make (Ds : Seqds.Ds_intf.S) = struct
  (** The transactional wrapper: the same sequential object, extended with
      the two logged prepare op codes. This is what each shard's PREP-UC
      instance actually lifts, so prepares flow through the unmodified
      combiner/log/recovery machinery as ordinary operations. *)
  module Tx = struct
    let name = Ds.name ^ "+txn"

    type handle = Ds.handle

    let create = Ds.create
    let root_addr = Ds.root_addr
    let attach = Ds.attach
    let copy = Ds.copy
    let snapshot = Ds.snapshot

    let execute h ~op ~args =
      let add k d =
        let cur = Ds.execute h ~op:op_get ~args:[| k |] in
        let v = if cur = -1 then d else cur + d in
        Ds.execute h ~op:op_insert ~args:[| k; v |]
      in
      if op = op_txn_put then
        Ds.execute h ~op:op_insert ~args:[| args.(1); args.(2) |]
      else if op = op_txn_add then add args.(1) args.(2)
      else if op = op_mput_local then begin
        ignore (Ds.execute h ~op:op_insert ~args:[| args.(0); args.(2) |]);
        Ds.execute h ~op:op_insert ~args:[| args.(1); args.(2) |]
      end
      else if op = op_xfer_local then begin
        ignore (add args.(0) (-args.(2)));
        add args.(1) args.(2)
      end
      else Ds.execute h ~op ~args

    let is_readonly ~op =
      if is_txn_op op || is_multi_op op || op = op_mput_local
         || op = op_xfer_local
      then false
      else Ds.is_readonly ~op

    (* Key footprints for the incremental-checkpoint dirty tracker. The
       read-modify-write ops ([op_txn_add]/[op_xfer_local]) put their keys
       in [written], per the [key_effect] contract. [op_multi_put] and
       [op_transfer] never reach a shard log (the router splits them), but
       classify like their local forms for totality. *)
    let classify ~op ~args =
      let open Seqds.Ds_intf in
      if op = op_txn_put || op = op_txn_add then
        Keyed { written = [| args.(1) |]; read = [||] }
      else if
        op = op_mput_local || op = op_xfer_local || is_multi_op op
      then Keyed { written = [| args.(0); args.(1) |]; read = [||] }
      else Ds.classify ~op ~args

    let key_get = Ds.key_get
    let key_put = Ds.key_put

    module Model = struct
      type m = Ds.Model.m

      let empty = Ds.Model.empty

      (* mirrors [execute] exactly — the checkers replay prepares through
         this, so the two must agree observation for observation *)
      let apply m ~op ~args =
        let add m k d =
          let m, cur = Ds.Model.apply m ~op:op_get ~args:[| k |] in
          let v = if cur = -1 then d else cur + d in
          Ds.Model.apply m ~op:op_insert ~args:[| k; v |]
        in
        if op = op_txn_put then
          Ds.Model.apply m ~op:op_insert ~args:[| args.(1); args.(2) |]
        else if op = op_txn_add then add m args.(1) args.(2)
        else if op = op_mput_local then begin
          let m, _ =
            Ds.Model.apply m ~op:op_insert ~args:[| args.(0); args.(2) |]
          in
          Ds.Model.apply m ~op:op_insert ~args:[| args.(1); args.(2) |]
        end
        else if op = op_xfer_local then begin
          let m, _ = add m args.(0) (-args.(2)) in
          add m args.(1) args.(2)
        end
        else Ds.Model.apply m ~op ~args

      let snapshot = Ds.Model.snapshot
    end
  end

  module P = Prep_uc.Make (Tx)

  type t = {
    mem : Memory.t;
    roots : Roots.t;
    cfg : Config.t;
    nshards : int;
    shards : P.t array;
    dec : Decision.t;
    txn_intent : (int, int list) Hashtbl.t;
        (* ghost: txid -> intended participant shards (with multiplicity),
           for the atomicity checkers; survives simulated crashes *)
    mutable next_txid : int; (* ghost monotone counter, txids from 1 *)
    (* harness-side counters (no simulated cost) *)
    mutable single_ops : int;
    mutable multi_ops : int;
    mutable cross_shard_txns : int;
    mutable same_shard_txns : int;
    mutable gate_stalls : int;
  }

  let route t key = route_key ~nshards:t.nshards key

  (* Install the persistence-thread commit gate on every shard (fresh
     builds and recoveries both need it). *)
  let install_gates t =
    let gate ~op ~args =
      if not (is_txn_op op) then true
      else begin
        let txid = args.(0) in
        if Decision.committed t.dec txid then begin
          (* decision write-back queued before the checkpoint's fence can
             make the prepare's effect durable *)
          Decision.flush t.dec txid;
          true
        end
        else begin
          t.gate_stalls <- t.gate_stalls + 1;
          false
        end
      end
    in
    Array.iter (fun s -> s.P.txn_gate <- Some gate) t.shards

  (** Create a sharded construction whose initial state is [prefill]
      (map-convention single-key ops, routed to their owning shards)
      applied to empty shards. Must run inside a fiber. *)
  let create ?(prefill = []) mem roots cfg =
    let n = cfg.Config.shards in
    if cfg.Config.mode <> Config.Durable then
      invalid_arg "Sharded_uc: requires durable mode";
    if n > Config.max_shards then
      invalid_arg "Sharded_uc: too many shards for the root directory";
    let dec = Decision.create mem roots ~cap:(n * cfg.Config.log_size) in
    let shard_prefill i =
      List.filter
        (fun (_, args) ->
          Array.length args > 0 && route_key ~nshards:n args.(0) = i)
        prefill
    in
    let shards =
      Array.init n (fun i ->
          let scfg =
            { cfg with
              Config.root_base = i * 8;
              tag = (if n = 1 then "" else "/shard" ^ string_of_int i);
            }
          in
          P.create ~prefill:(shard_prefill i) mem roots scfg)
    in
    let t =
      {
        mem;
        roots;
        cfg;
        nshards = n;
        shards;
        dec;
        txn_intent = Hashtbl.create 256;
        next_txid = 0;
        single_ops = 0;
        multi_ops = 0;
        cross_shard_txns = 0;
        same_shard_txns = 0;
        gate_stalls = 0;
      }
    in
    install_gates t;
    t

  (** Bind the calling worker fiber. Registration goes through shard 0 —
      all shards share the topology, and the volatile replica allocators
      are interchangeable DRAM heaps on the worker's socket. *)
  let register_worker t = P.register_worker t.shards.(0)

  let start_persistence t = Array.iter P.start_persistence t.shards
  let stop t = Array.iter P.stop t.shards
  let sync t = Array.iter P.sync t.shards

  (* ---- the router ---- *)

  let fresh_txid t =
    t.next_txid <- t.next_txid + 1;
    t.next_txid

  (* One multi-key operation. Same-shard pairs collapse to a single
     atomic log entry on the owning shard; cross-shard pairs run the 2PC
     protocol — prepares in ascending shard order, then the decision.
     Returns 0. *)
  let multi t ~op ~args =
    let k1 = args.(0) and k2 = args.(1) and x = args.(2) in
    let s1 = route t k1 and s2 = route t k2 in
    t.multi_ops <- t.multi_ops + 1;
    if s1 = s2 then begin
      t.same_shard_txns <- t.same_shard_txns + 1;
      let local = if op = op_multi_put then op_mput_local else op_xfer_local in
      ignore (P.execute t.shards.(s1) ~op:local ~args)
    end
    else begin
      t.cross_shard_txns <- t.cross_shard_txns + 1;
      let subs =
        if op = op_multi_put then
          [ (s1, op_txn_put, k1, x); (s2, op_txn_put, k2, x) ]
        else [ (s1, op_txn_add, k1, -x); (s2, op_txn_add, k2, x) ]
      in
      let subs =
        List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) subs
      in
      let txid = fresh_txid t in
      Hashtbl.replace t.txn_intent txid (List.map (fun (s, _, _, _) -> s) subs);
      let planted_early =
        t.cfg.Config.fault = Config.Commit_before_prepare_persist
      in
      (* the planted 2PC ordering fault: decide (and flush the decision)
         before a single prepare is durably logged *)
      if planted_early then Decision.commit t.dec txid;
      List.iter
        (fun (s, o, k, v) ->
          ignore (P.execute t.shards.(s) ~op:o ~args:[| txid; k; v |]))
        subs;
      if not planted_early then Decision.commit t.dec txid
    end;
    0

  (** ExecuteConcurrent over the sharded construction: single-key ops go
      straight to the owning shard; [op_multi_put]/[op_transfer] run the
      cross-shard commit protocol; whole-map readonly ops (size) fan out
      and sum. *)
  let execute t ~op ~args =
    if is_multi_op op then multi t ~op ~args
    else if Array.length args = 0 then
      (* whole-map readonly (size): sum over every shard *)
      Array.fold_left (fun acc s -> acc + P.execute s ~op ~args) 0 t.shards
    else begin
      t.single_ops <- t.single_ops + 1;
      P.execute t.shards.(route t args.(0)) ~op ~args
    end

  (** Pipelined batch execution: run every op of [ops] and return their
      responses in submission order, keeping up to one update in flight
      on *each* shard at once. A worker owns exactly one flat-combining
      slot per replica per shard, so ops that route to the same shard are
      queued FIFO (per-key program order is preserved — equal keys route
      equally); ops on different shards overlap, which is where the
      scaling comes from: one worker drives [min nshards (batch)]
      combiners concurrently instead of serialising full combining
      passes. Readonly single-key ops run when they reach their shard
      queue's head (they never consume the slot); multi-key and whole-map
      ops act as batch-wide barriers — every pipeline drains, then they
      run synchronously, in order, at the end. With one shard the
      pipeline degenerates to exactly the sequential [execute] loop, so
      1-vs-N comparisons stay apples to apples. Detectable execution
      needs the announce step of the synchronous path, so [detect] falls
      back to it. *)
  let execute_batch t ops =
    let n = Array.length ops in
    let resps = Array.make n 0 in
    if t.cfg.Config.detect then
      Array.iteri
        (fun i (op, args) -> resps.(i) <- execute t ~op ~args)
        ops
    else begin
      let queues = Array.make t.nshards [||] in
      let rev = Array.make t.nshards [] in
      let barriers = ref [] in
      Array.iteri
        (fun i (op, args) ->
          if is_multi_op op || Array.length args = 0 then
            barriers := i :: !barriers
          else begin
            let s = route t args.(0) in
            rev.(s) <- i :: rev.(s)
          end)
        ops;
      Array.iteri (fun s l -> queues.(s) <- Array.of_list (List.rev l)) rev;
      let heads = Array.make t.nshards 0 in
      let outstanding = Array.make t.nshards (-1) in
      let pending = ref (n - List.length !barriers) in
      while !pending > 0 do
        let progress = ref false in
        for s = 0 to t.nshards - 1 do
          let sh = t.shards.(s) in
          (if outstanding.(s) >= 0 then
             match P.try_collect sh (P.my_replica sh) with
             | Some resp ->
               resps.(outstanding.(s)) <- resp;
               outstanding.(s) <- -1;
               decr pending;
               progress := true
             | None -> ());
          if outstanding.(s) < 0 then begin
            let q = queues.(s) in
            (* run any readonly ops at the head of the queue inline *)
            let continue = ref true in
            while !continue && heads.(s) < Array.length q do
              let i = q.(heads.(s)) in
              let op, args = ops.(i) in
              if Tx.is_readonly ~op then begin
                t.single_ops <- t.single_ops + 1;
                resps.(i) <- P.execute sh ~op ~args;
                heads.(s) <- heads.(s) + 1;
                decr pending;
                progress := true
              end
              else continue := false
            done;
            if heads.(s) < Array.length q then begin
              let i = q.(heads.(s)) in
              heads.(s) <- heads.(s) + 1;
              let op, args = ops.(i) in
              t.single_ops <- t.single_ops + 1;
              P.submit_update sh (P.my_replica sh) ~seq:0 ~op ~args;
              outstanding.(s) <- i;
              progress := true
            end
          end
        done;
        if not !progress then Sim.spin ()
      done;
      List.iter
        (fun i ->
          let op, args = ops.(i) in
          resps.(i) <- execute t ~op ~args)
        (List.rev !barriers)
    end;
    resps

  (* ---- observation ---- *)

  let shard t i = t.shards.(i)
  let trace t i = P.trace t.shards.(i)
  let prefill_ops t i = P.prefill_ops t.shards.(i)

  (** Media-truth commit query (cost-free; valid before, at and after a
      crash — the slot is written through CLFLUSH+SFENCE). *)
  let committed t txid = Decision.committed_peek t.dec txid

  (** Merged cost-free snapshot: shards partition the keyspace, so the
      per-shard [k; v; ...] snapshots sort-merge on disjoint keys. *)
  let snapshot t =
    let pairs = ref [] in
    Array.iter
      (fun s ->
        let rec pair = function
          | k :: v :: rest ->
            pairs := (k, v) :: !pairs;
            pair rest
          | _ -> ()
        in
        pair (P.snapshot s))
      t.shards;
    List.sort compare !pairs
    |> List.concat_map (fun (k, v) -> [ k; v ])

  (** Per-shard counters keyed [shard<i>/...] plus the summed totals under
      the classic keys, plus the router's own counters. *)
  let sample t reg =
    Array.iteri
      (fun i s ->
        List.iter
          (fun (k, v) ->
            if t.nshards > 1 then
              Telemetry.Registry.add_to reg
                (Printf.sprintf "shard%d/%s" i k)
                v;
            Telemetry.Registry.add_to reg k v)
          (P.counters s))
      t.shards;
    List.iter
      (fun (k, v) -> Telemetry.Registry.add_to reg k v)
      [
        ("shard.single_ops", t.single_ops);
        ("shard.multi_ops", t.multi_ops);
        ("shard.cross_txns", t.cross_shard_txns);
        ("shard.same_txns", t.same_shard_txns);
        ("shard.gate_stalls", t.gate_stalls);
      ]

  (* ---- recovery ---- *)

  (** Recover every shard after [Memory.crash]: attach the decision table
      from its root, roll committed prepares forward and uncommitted ones
      back on every shard (recovery's [keep] filter), and rebuild the router.
      The shards rebuild at once, one fiber per shard, and only after one
      join does any shard write its roots, so a crash inside recovery
      leaves every shard's pre-crash checkpoint and log as it found them.
      Each lane of shards gets a budget of [beta / lanes] consecutive
      cores on every socket, at least [Prep_uc.recovery_width], so no two
      shards' fibers ever share a core; when a socket has too few cores
      for every shard, a lane rebuilds several shards in turn. A shard's
      persistent copies run on past its rebuild ([Prep_uc.rebuild]'s
      [background]) only if it is its lane's last, so a lane never hands
      the next shard a core a copy still holds. Returns the new
      construction plus the per-shard recovery reports. Must run inside a
      fiber. *)
  let recover old_t =
    let mem = old_t.mem and roots = old_t.roots and n = old_t.nshards in
    let dec = Decision.attach mem roots in
    let keep ~op ~args =
      if is_txn_op op then Decision.committed dec args.(0) else true
    in
    let width = Prep_uc.recovery_width old_t.cfg in
    let beta = (Sim.topology ()).Sim.Topology.cores_per_socket in
    let lanes = max 1 (min n (beta / width)) in
    let budget = beta / lanes in
    let rebuilt = Array.make n None in
    (* shards [lane], [lane + lanes], ... in turn; a raise is re-raised
       after the join, the lowest shard's first, as one fiber would *)
    let lane l () =
      let i = ref l in
      while !i < n do
        rebuilt.(!i) <-
          Some
            (try
               Ok
                 (P.rebuild ~keep ~cores:budget
                    ~background:(!i + lanes >= n)
                    old_t.shards.(!i))
             with (Invalid_argument _ | Failure _) as e -> Error e);
        i := !i + lanes
      done
    in
    let socket = Sim.socket () and core = (Sim.self ()).Sim.core in
    Sim.fork_join
      (List.init (lanes - 1) (fun l ->
           (socket, (core + ((l + 1) * budget)) mod beta, lane (l + 1))))
      (lane 0);
    let rebuilt =
      Array.map
        (function
          | Some (Ok r) -> r
          | Some (Error e) -> raise e
          | None -> assert false)
        rebuilt
    in
    Array.iter (fun (_, _, install) -> install ()) rebuilt;
    let t =
      {
        old_t with
        shards = Array.map (fun (s, _, _) -> s) rebuilt;
        dec;
        (* ghost state carries over: txids stay unique, intents keep
           naming every transaction the checkers must audit *)
      }
    in
    install_gates t;
    (t, Array.map (fun (_, r, _) -> r) rebuilt)
end
