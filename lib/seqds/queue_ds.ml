(** Linked FIFO queue over simulated memory (paper Fig. 1c).

    Layout: header [0] head, [1] tail, [2] size; node [0] value, [1] next. *)

open Nvm

let op_enqueue = 0 (* args [v] -> 1 *)
let op_dequeue = 1 (* args []  -> value or -1 if empty *)
let op_peek = 2 (* args []  -> value or -1 *)
let op_size = 3 (* args []  -> size *)

let name = "queue"

type handle = { mem : Memory.t; h : int }

let hdr_words = 3
let node_words = 2

let root_addr t = t.h
let attach mem h = { mem; h }

let create mem =
  let h = Context.alloc hdr_words in
  Memory.write mem h Memory.null;
  Memory.write mem (h + 1) Memory.null;
  Memory.write mem (h + 2) 0;
  { mem; h }

let is_readonly ~op = op = op_peek || op = op_size

(* no per-key semantics: every op is opaque to key-granular backends *)
let classify ~op:_ ~args:_ = Ds_intf.Opaque
let key_get _ _ = invalid_arg (name ^ ": not a keyed structure")
let key_put _ _ _ = invalid_arg (name ^ ": not a keyed structure")

let enqueue t v =
  let node = Context.alloc node_words in
  Memory.write t.mem node v;
  Memory.write t.mem (node + 1) Memory.null;
  let tail = Memory.read t.mem (t.h + 1) in
  if tail = Memory.null then Memory.write t.mem t.h node
  else Memory.write t.mem (tail + 1) node;
  Memory.write t.mem (t.h + 1) node;
  Memory.write t.mem (t.h + 2) (Memory.read t.mem (t.h + 2) + 1);
  1

let dequeue t =
  let head = Memory.read t.mem t.h in
  if head = Memory.null then -1
  else begin
    let v = Memory.read t.mem head in
    let next = Memory.read t.mem (head + 1) in
    Memory.write t.mem t.h next;
    if next = Memory.null then Memory.write t.mem (t.h + 1) Memory.null;
    Memory.write t.mem (t.h + 2) (Memory.read t.mem (t.h + 2) - 1);
    Context.free head node_words;
    v
  end

let execute t ~op ~args =
  if op = op_enqueue then enqueue t args.(0)
  else if op = op_dequeue then dequeue t
  else if op = op_peek then begin
    let head = Memory.read t.mem t.h in
    if head = Memory.null then -1 else Memory.read t.mem head
  end
  else if op = op_size then Memory.read t.mem (t.h + 2)
  else invalid_arg "Queue_ds.execute: unknown op"

let copy src =
  let dst = create src.mem in
  let rec walk node =
    if node <> Memory.null then begin
      let n = Memory.read_words src.mem node node_words in
      ignore (enqueue dst n.(0));
      walk n.(1)
    end
  in
  walk (Memory.read src.mem src.h);
  dst

(* Observation: values front-to-back. *)
let snapshot t =
  let rec walk acc node =
    if node = Memory.null then List.rev acc
    else walk (Memory.peek t.mem node :: acc) (Memory.peek t.mem (node + 1))
  in
  walk [] (Memory.peek t.mem t.h)

module Model = struct
  type m = int list * int list (* front list, reversed back list *)

  let empty = ([], [])

  let normalize (front, back) =
    match front with [] -> (List.rev back, []) | _ -> (front, back)

  let apply m ~op ~args =
    if op = op_enqueue then
      let front, back = m in
      (normalize (front, args.(0) :: back), 1)
    else if op = op_dequeue then
      match normalize m with
      | [], _ -> (([], []), -1)
      | v :: front, back -> (normalize (front, back), v)
    else if op = op_peek then
      (m, match normalize m with [], _ -> -1 | v :: _, _ -> v)
    else if op = op_size then
      let front, back = m in
      (m, List.length front + List.length back)
    else invalid_arg "Queue_ds.Model.apply: unknown op"

  let snapshot m =
    let front, back = m in
    front @ List.rev back
end
