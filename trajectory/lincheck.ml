(** Linearizability of a recorded map history, object by object.

    Linearizability is local: a history is linearizable iff each
    object's sub-history is. Every key is an object, except that a
    multi-key operation couples its two keys into one; keys are grouped
    into connected components by the operations that touch them, and
    each component's sub-history is searched Wing–Gong style, from the
    state the prefill gives its keys.

    The search is [Check.Linearizability]'s with three changes: it scans
    only the operations in flight at each step, so a hot key's long
    history costs time linear in its length; its memo keys on a hash of
    the model state; and its work is capped, because the operations of
    one pipelined batch share the batch's interval and a component that
    couples many of them can make the search exponential. A component
    that exhausts the cap is reported as unchecked, never as
    linearizable. *)

module H = Seqds.Hashmap

(** The map model plus the router-level multi-key operations of
    [Prep.Sharded_uc], which answer 0. *)
module Model = struct
  type m = H.Model.m

  let empty = H.Model.empty
  let snapshot = H.Model.snapshot

  let add m k d =
    let m, cur = H.Model.apply m ~op:H.op_get ~args:[| k |] in
    H.Model.apply m ~op:H.op_insert ~args:[| k; (if cur = -1 then d else cur + d) |]

  let apply m ~op ~args =
    if op = Prep.Sharded_uc.op_multi_put then
      let m, _ = H.Model.apply m ~op:H.op_insert ~args:[| args.(0); args.(2) |] in
      let m, _ = H.Model.apply m ~op:H.op_insert ~args:[| args.(1); args.(2) |] in
      (m, 0)
    else if op = Prep.Sharded_uc.op_transfer then
      let m, _ = add m args.(0) (-args.(2)) in
      let m, _ = add m args.(1) args.(2) in
      (m, 0)
    else H.Model.apply m ~op ~args
end

let keys_of ~op ~args =
  if op = Prep.Sharded_uc.op_multi_put || op = Prep.Sharded_uc.op_transfer then
    [ args.(0); args.(1) ]
  else [ args.(0) ]

exception Budget

(** Work one component's search may spend, in operations, mask bytes and
    map entries scanned. Every memoised state costs at least its mask
    ([n / 8] bytes) and a hashed model state, which bounds the memo table
    to a few tens of megabytes. *)
let budget = 10_000_000

type verdict = Linearizable | Not_linearizable | Unchecked

(* Depth-first over "linearize next" choices, memoising failed
   (linearized set, model state) pairs. [ops] are sorted by invocation
   and every op before [lo] is linearized, so the ops that may go next
   are found by scanning from [lo] to the first op invoked after the
   earliest pending response — the ops still in flight — rather than the
   whole history. *)
let search initial (ops : Check.History.event array) =
  let n = Array.length ops in
  let work = ref 0 in
  let failed = Hashtbl.create 64 in
  let test mask i = Char.code (Bytes.get mask (i lsr 3)) land (1 lsl (i land 7)) <> 0 in
  let with_bit mask i =
    let m = Bytes.copy mask in
    Bytes.set m (i lsr 3) (Char.chr (Char.code (Bytes.get m (i lsr 3)) lor (1 lsl (i land 7))));
    m
  in
  let rec dfs mask lo model =
    if lo = n then true
    else begin
      let snapshot = Model.snapshot model in
      let key = (Bytes.to_string mask, List.fold_left Nvm.Memory.h2 0 snapshot) in
      if Hashtbl.mem failed key then false
      else begin
        let bound = ref max_int and hi = ref lo in
        while !hi < n && ops.(!hi).Check.History.t_inv <= !bound do
          if not (test mask !hi) then bound := min !bound ops.(!hi).Check.History.t_resp;
          incr hi
        done;
        work := !work + (!hi - lo) + Bytes.length mask + List.length snapshot;
        if !work > budget then raise Budget;
        let ok = ref false and i = ref lo in
        while (not !ok) && !i < !hi do
          let e = ops.(!i) in
          if (not (test mask !i)) && e.Check.History.t_inv <= !bound then begin
            let model', resp =
              Model.apply model ~op:e.Check.History.op ~args:e.Check.History.args
            in
            if resp = e.Check.History.resp then begin
              let mask' = with_bit mask !i in
              let lo' = ref lo in
              while !lo' < n && test mask' !lo' do incr lo' done;
              ok := dfs mask' !lo' model'
            end
          end;
          incr i
        done;
        if not !ok then Hashtbl.replace failed key ();
        !ok
      end
    end
  in
  match dfs (Bytes.make ((n + 7) / 8) '\000') 0 initial with
  | true -> Linearizable
  | false -> Not_linearizable
  | exception Budget -> Unchecked

type result = {
  groups : int;
  bad : int list;  (** a key of every component that is not linearizable *)
  unchecked_ops : int;  (** operations of components that hit the cap *)
}

(** Check [history] against the state [prefill] builds. *)
let check ~prefill (history : Check.History.event list) =
  let parent = Hashtbl.create 4096 and seen = Hashtbl.create 4096 in
  let rec find k =
    match Hashtbl.find_opt parent k with
    | None -> k
    | Some p ->
      let r = find p in
      Hashtbl.replace parent k r;
      r
  in
  List.iter
    (fun (e : Check.History.event) ->
      match keys_of ~op:e.Check.History.op ~args:e.Check.History.args with
      | k :: rest ->
        Hashtbl.replace seen k ();
        List.iter
          (fun k' ->
            Hashtbl.replace seen k' ();
            let ra = find k and rb = find k' in
            if ra <> rb then Hashtbl.replace parent ra rb)
          rest
      | [] -> ())
    history;
  let groups = Hashtbl.create 1024 in
  let add tbl r x = Hashtbl.replace tbl r (x :: Option.value ~default:[] (Hashtbl.find_opt tbl r)) in
  List.iter
    (fun (e : Check.History.event) ->
      match keys_of ~op:e.Check.History.op ~args:e.Check.History.args with
      | k :: _ -> add groups (find k) e
      | [] -> ())
    history;
  let prefill_of = Hashtbl.create 1024 in
  List.iter
    (fun ((_, args) as op) -> if Hashtbl.mem seen args.(0) then add prefill_of (find args.(0)) op)
    prefill;
  let bad = ref [] and unchecked = ref 0 in
  Hashtbl.iter
    (fun r events ->
      let ops = Array.of_list events in
      Array.stable_sort
        (fun (a : Check.History.event) b -> compare a.Check.History.t_inv b.Check.History.t_inv)
        ops;
      let initial =
        List.fold_left
          (fun m (op, args) -> fst (Model.apply m ~op ~args))
          Model.empty
          (List.rev (Option.value ~default:[] (Hashtbl.find_opt prefill_of r)))
      in
      match search initial ops with
      | Linearizable -> ()
      | Not_linearizable -> bad := r :: !bad
      | Unchecked -> unchecked := !unchecked + Array.length ops)
    groups;
  { groups = Hashtbl.length groups; bad = List.sort compare !bad; unchecked_ops = !unchecked }
