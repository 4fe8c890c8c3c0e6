(** Durable-linearizability checker for crash/recovery episodes.

    The ghost trace (lib/core/trace.ml) records the linearization order of
    every update — the order operations were written to the shared log —
    and which of them completed (their invoking thread saw the response).
    After a crash, recovery reports which trace indexes the rebuilt state
    contains. This module judges that report against the paper's
    guarantees (§5.1, §5.2):

    - **loss bound**: at most [loss_bound] *completed* operations may be
      missing from the recovered state — ε+β−1 for PREP-Buffered, 0 for
      PREP-Durable;
    - **prefix consistency**: the surviving operations must form a prefix
      of the linearization restricted to completed ops — a lost completed
      op must never precede a surviving op in linearization order
      (uncompleted ops may be skipped as log holes in durable mode);
    - **order**: recovery must apply survivors in linearization order;
    - **state**: the recovered structure must equal the pure model's
      replay of prefill + surviving ops — this is what catches a
      background cache write-back persisting a mid-update replica. *)

type violation =
  | Loss_bound_exceeded of { lost : int; bound : int }
  | Prefix_violation of { lost_index : int; applied_later : int }
      (** completed op [lost_index] is missing although the later op
          [applied_later] survived *)
  | Out_of_order of { before : int; after : int }
      (** recovery applied [after] then [before] *)
  | State_mismatch of { expected : int list; recovered : int list }
  | Duplicate_application of { tid : int; seqno : int }
      (** exactly-once violation: client op (tid, seqno) took effect more
          than once across the resubmission-closed history *)
  | Lost_client_op of { tid : int; seqno : int }
      (** exactly-once violation: a scripted client op never took effect
          even though detectability let the client re-submit losses *)
  | Resolve_mismatch of { tid : int; resolved : int; applied : int }
      (** the recovery-side resolve verdict disagrees with ghost truth:
          the response covers seqno [resolved] but the recovered state's
          latest applied op for [tid] is [applied]. [resolved] ahead means
          a false Completed (the client would skip a lost op); [resolved]
          behind means the client would re-submit an op that survived
          (duplicate on resubmission). *)
  | Atomicity_violation of { txid : int; committed : bool; shard : int }
      (** cross-shard atomicity ([Prep.Sharded_uc]): transaction [txid]
          has a durable commit decision but shard [shard] lost one of its
          prepare sub-ops (a committed transaction applied partially), or
          has no decision yet shard [shard] rolled a prepare of it
          *forward* (an aborted transaction left effects behind) *)
  | Unlogged_applied of int
      (** recovery applied log index [i], at which the ghost trace never
          logged an op: it took a stale or never-written entry for a live
          one *)
  | Recovery_raised of string
      (** recovery itself failed: rebuilding the structure from the
          post-crash media raised (a torn header sent the copy or the
          allocator out of bounds) *)
  | Wedged of { horizon_ns : int }
      (** the run neither reached quiescence nor its crash point within
          [horizon_ns] simulated ns of the end of construction (or, in a
          session's restart epoch, of recovery) *)

let pp_violation ppf = function
  | Loss_bound_exceeded { lost; bound } ->
    Fmt.pf ppf "loss bound exceeded: %d completed ops lost, bound %d" lost
      bound
  | Prefix_violation { lost_index; applied_later } ->
    Fmt.pf ppf
      "prefix violation: completed op %d lost but later op %d survived"
      lost_index applied_later
  | Out_of_order { before; after } ->
    Fmt.pf ppf "recovery order violation: op %d applied after op %d" before
      after
  | State_mismatch { expected; recovered } ->
    Fmt.pf ppf "recovered state mismatch:@ expected [%a]@ got [%a]"
      Fmt.(list ~sep:semi int)
      expected
      Fmt.(list ~sep:semi int)
      recovered
  | Duplicate_application { tid; seqno } ->
    Fmt.pf ppf "exactly-once violation: op (tid %d, seq %d) applied twice"
      tid seqno
  | Lost_client_op { tid; seqno } ->
    Fmt.pf ppf "exactly-once violation: client op (tid %d, seq %d) lost" tid
      seqno
  | Resolve_mismatch { tid; resolved; applied } ->
    Fmt.pf ppf
      "resolve mismatch for tid %d: response covers seq %d but latest \
       applied seq is %d"
      tid resolved applied

  | Atomicity_violation { txid; committed; shard } ->
    if committed then
      Fmt.pf ppf
        "cross-shard atomicity violation: txn %d committed but shard %d \
         lost a prepare"
        txid shard
    else
      Fmt.pf ppf
        "cross-shard atomicity violation: txn %d never committed but \
         shard %d applied a prepare"
        txid shard
  | Unlogged_applied i ->
    Fmt.pf ppf "recovery applied log index %d, which was never logged" i
  | Recovery_raised msg -> Fmt.pf ppf "recovery raised: %s" msg
  | Wedged { horizon_ns } ->
    Fmt.pf ppf "wedged: no quiescence within %d ns of construction/recovery"
      horizon_ns

let violation_to_string v = Fmt.str "%a" pp_violation v

(** Cross-shard all-or-nothing audit over one recovered sharded history.

    [intents] names every transaction the run started, as
    [(txid, participant shards)] with multiplicity (a same-shard multi-key
    op lists its shard twice); [committed txid] is the post-crash media
    truth of the decision table; [applied_count shard txid] counts the
    prepare sub-ops of [txid] the recovery kept on [shard]. Committed ⇒
    every intended prepare survived (PREP-Durable's loss bound is 0, and
    the decision is only written after every prepare completed); not
    committed ⇒ no shard kept any. *)
let check_atomicity ~nshards ~intents ~committed ~applied_count =
  List.concat_map
    (fun (txid, parts) ->
      if committed txid then
        let want = Hashtbl.create 4 in
        List.iter
          (fun s ->
            Hashtbl.replace want s
              (1 + Option.value ~default:0 (Hashtbl.find_opt want s)))
          parts;
        Hashtbl.fold
          (fun s n acc ->
            if applied_count s txid < n then
              Atomicity_violation { txid; committed = true; shard = s } :: acc
            else acc)
          want []
      else
        List.filter_map
          (fun s ->
            if applied_count s txid > 0 then
              Some (Atomicity_violation { txid; committed = false; shard = s })
            else None)
          (List.init nshards Fun.id))
    intents

(** Judge each thread's post-recovery [Prep_uc.resolve] verdict against
    ghost truth. [resolutions] pairs thread ids with their verdicts;
    [applied_seqno tid] is the latest client seqno of [tid] present in the
    recovered state (0 if none), which the caller computes from the tagged
    ghost trace. The invariant (clean protocol, loss bound 0): the verdict
    names exactly the frontier of what survived — [Completed s] iff [s] is
    the latest applied, [Lost a] iff everything before [a] but not [a]
    survived, [Unannounced] iff nothing of the thread's survived. *)
let check_resolutions ~resolutions ~applied_seqno =
  List.filter_map
    (fun (tid, r) ->
      let m = applied_seqno tid in
      match (r : Prep.Prep_uc.resolution) with
      | Prep.Prep_uc.Completed { seqno; _ } when seqno <> m ->
        Some (Resolve_mismatch { tid; resolved = seqno; applied = m })
      | Prep.Prep_uc.Lost { seqno } when m >= seqno ->
        (* the op resolve told the client to re-submit actually survived:
           resubmission would apply it twice *)
        Some (Resolve_mismatch { tid; resolved = seqno - 1; applied = m })
      | Prep.Prep_uc.Unannounced when m > 0 ->
        Some (Resolve_mismatch { tid; resolved = 0; applied = m })
      | _ -> None)
    resolutions

module Make (Model : Seqds.Ds_intf.MODEL) = struct
  (** Check one recovery. [applied] is the recovery report's list of trace
      indexes (in application order); [completed] the trace's completed
      indexes; [recovered_snapshot] the canonical observation of the
      rebuilt structure. Returns every violation found (empty = pass). *)
  let check ~trace ~prefill ~applied ~completed ~recovered_snapshot
      ~loss_bound () =
    let violations = ref [] in
    let add v = violations := v :: !violations in
    (* order: survivors must be applied in linearization order *)
    ignore
      (List.fold_left
         (fun prev i ->
           (match prev with
            | Some p when i <= p -> add (Out_of_order { before = i; after = p })
            | _ -> ());
           Some i)
         None applied);
    let applied_set = Hashtbl.create 256 in
    List.iter (fun i -> Hashtbl.replace applied_set i ()) applied;
    let max_applied = List.fold_left max (-1) applied in
    (* loss bound + prefix consistency over completed ops *)
    let lost = List.filter (fun i -> not (Hashtbl.mem applied_set i)) completed in
    if List.length lost > loss_bound then
      add (Loss_bound_exceeded { lost = List.length lost; bound = loss_bound });
    List.iter
      (fun i ->
        if i < max_applied then
          (* some survivor is later in linearization order than this lost
             completed op; find one for the report *)
          let later =
            List.find (fun j -> Hashtbl.mem applied_set j)
              (List.init (max_applied - i) (fun k -> max_applied - k))
          in
          add (Prefix_violation { lost_index = i; applied_later = later }))
      lost;
    (* state: recovered structure = model replay of prefill + survivors —
       which has no model op to replay for a survivor never logged *)
    let unlogged =
      List.filter (fun i -> Prep.Trace.find trace i = None) applied
    in
    if unlogged <> [] then
      List.iter (fun i -> add (Unlogged_applied i)) unlogged
    else begin
      let state =
        List.fold_left
          (fun m (op, args) -> fst (Model.apply m ~op ~args))
          Model.empty prefill
      in
      let state =
        List.fold_left
          (fun m i ->
            let e = Prep.Trace.get trace i in
            fst (Model.apply m ~op:e.Prep.Trace.op ~args:e.Prep.Trace.args))
          state applied
      in
      let expected = Model.snapshot state in
      if expected <> recovered_snapshot then
        add (State_mismatch { expected; recovered = recovered_snapshot })
    end;
    List.rev !violations

  (** Exactly-once check over a resubmission-closed cumulative history.

      [history] is every application across every incarnation of a
      crash-restart-continue session, in application order, as
      [(tid, seqno, op, args)]; seqno 0 marks untagged (prefill) entries,
      exempt from the tagging checks. [scripted] is every [(tid, seqno)]
      the clients were scripted to apply. With detectability on, clients
      re-submit exactly what [resolve] reports lost, so the closed history
      must contain each scripted op exactly once — loss bound 0 — and the
      final structure must equal the model's replay of the history. *)
  let check_exactly_once ~history ~scripted ~recovered_snapshot () =
    let violations = ref [] in
    let add v = violations := v :: !violations in
    let seen = Hashtbl.create 256 in
    List.iter
      (fun (tid, seqno, _, _) ->
        if seqno > 0 then
          if Hashtbl.mem seen (tid, seqno) then
            add (Duplicate_application { tid; seqno })
          else Hashtbl.replace seen (tid, seqno) ())
      history;
    List.iter
      (fun (tid, seqno) ->
        if not (Hashtbl.mem seen (tid, seqno)) then
          add (Lost_client_op { tid; seqno }))
      scripted;
    let state =
      List.fold_left
        (fun m (_, _, op, args) -> fst (Model.apply m ~op ~args))
        Model.empty history
    in
    let expected = Model.snapshot state in
    if expected <> recovered_snapshot then
      add (State_mismatch { expected; recovered = recovered_snapshot });
    List.rev !violations
end
