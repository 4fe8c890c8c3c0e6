(** Ghost trace of the linearization order.

    The order in which update operations are written to the shared log *is*
    their linearization order (paper §4.2 "Correctness"). The trace records
    that order on the OCaml side — outside simulated memory, so it survives
    simulated crashes "for free" — and marks which operations completed
    (their invoking thread observed the response). The durability checkers
    compare recovered states against prefixes of this trace.

    The trace is white-box instrumentation only: no algorithm reads it. *)

type entry = {
  op : int;
  args : int array;
  tid : int; (** submitting thread id; 0 when untagged *)
  seqno : int; (** client seqno under detectable execution; 0 when untagged *)
  mutable completed : bool;
}

type t = {
  mutable entries : entry array;
  mutable len : int;
}

(* Never-logged slots need *distinct* sentinel records: [completed] is
   mutable, so a shared sentinel would let [completed] on one unlogged
   index mark every unlogged slot completed. *)
let sentinel () = { op = -1; args = [||]; tid = 0; seqno = 0; completed = false }

let create () = { entries = Array.init 1024 (fun _ -> sentinel ()); len = 0 }

(** Record the op logged at index [idx] (combiner side, at log-write time).
    [tid]/[seqno] carry the detectability tag when that layer is on. *)
let logged ?(tid = 0) ?(seqno = 0) t idx ~op ~args =
  if idx >= Array.length t.entries then begin
    let bigger =
      Array.init
        (max (2 * Array.length t.entries) (idx + 1))
        (fun _ -> sentinel ())
    in
    Array.blit t.entries 0 bigger 0 t.len;
    t.entries <- bigger
  end;
  t.entries.(idx) <- { op; args; tid; seqno; completed = false };
  if idx + 1 > t.len then t.len <- idx + 1

(** Mark the op at log index [idx] completed (worker side, at return). *)
let completed t idx = t.entries.(idx).completed <- true

let length t = t.len
let get t idx = t.entries.(idx)

(** The op logged at index [idx], or [None] if no op was ever logged
    there. *)
let find t idx =
  if idx < 0 || idx >= t.len || t.entries.(idx).op = -1 then None
  else Some t.entries.(idx)

(** Hash of every entry and its completion mark — the explorer's view of
    the trace in its state-dedup and crash-dedup keys. *)
let hash t =
  let open Nvm.Memory in
  let h = ref (mix t.len) in
  for i = 0 to t.len - 1 do
    let e = t.entries.(i) in
    h :=
      h2 !h
        (h2 e.op
           (h2
              (Array.fold_left h2 0 e.args)
              (h2 (if e.completed then 1 else 0) (h2 e.tid e.seqno))))
  done;
  !h

(** Indexes of completed ops. *)
let completed_indexes t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.entries.(i).completed then acc := i :: !acc
  done;
  !acc
