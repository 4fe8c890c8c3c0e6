(** Linked stack over simulated memory (paper Fig. 5).

    Layout: header [0] top pointer, [1] size; node [0] value, [1] next. *)

open Nvm

let op_push = 0 (* args [v] -> 1 *)
let op_pop = 1 (* args []  -> value or -1 if empty *)
let op_peek = 2 (* args []  -> value or -1 *)
let op_size = 3 (* args []  -> size *)

let name = "stack"

type handle = { mem : Memory.t; h : int }

let hdr_words = 2
let node_words = 2

let root_addr t = t.h
let attach mem h = { mem; h }

let create mem =
  let h = Context.alloc hdr_words in
  Memory.write mem h Memory.null;
  Memory.write mem (h + 1) 0;
  { mem; h }

let is_readonly ~op = op = op_peek || op = op_size

(* no per-key semantics: every op is opaque to key-granular backends *)
let classify ~op:_ ~args:_ = Ds_intf.Opaque
let key_get _ _ = invalid_arg (name ^ ": not a keyed structure")
let key_put _ _ _ = invalid_arg (name ^ ": not a keyed structure")

let push t v =
  let node = Context.alloc node_words in
  Memory.write t.mem node v;
  Memory.write t.mem (node + 1) (Memory.read t.mem t.h);
  Memory.write t.mem t.h node;
  Memory.write t.mem (t.h + 1) (Memory.read t.mem (t.h + 1) + 1);
  1

let pop t =
  let top = Memory.read t.mem t.h in
  if top = Memory.null then -1
  else begin
    let v = Memory.read t.mem top in
    Memory.write t.mem t.h (Memory.read t.mem (top + 1));
    Memory.write t.mem (t.h + 1) (Memory.read t.mem (t.h + 1) - 1);
    Context.free top node_words;
    v
  end

let execute t ~op ~args =
  if op = op_push then push t args.(0)
  else if op = op_pop then pop t
  else if op = op_peek then begin
    let top = Memory.read t.mem t.h in
    if top = Memory.null then -1 else Memory.read t.mem top
  end
  else if op = op_size then Memory.read t.mem (t.h + 1)
  else invalid_arg "Stack_ds.execute: unknown op"

let copy src =
  let dst = create src.mem in
  (* collect then push in reverse so the copy has the same order *)
  let rec collect acc node =
    if node = Memory.null then acc
    else
      let n = Memory.read_words src.mem node node_words in
      collect (n.(0) :: acc) n.(1)
  in
  let bottom_first = collect [] (Memory.read src.mem src.h) in
  List.iter (fun v -> ignore (push dst v)) bottom_first;
  dst

(* Observation: values top-to-bottom. *)
let snapshot t =
  let rec walk acc node =
    if node = Memory.null then List.rev acc
    else walk (Memory.peek t.mem node :: acc) (Memory.peek t.mem (node + 1))
  in
  walk [] (Memory.peek t.mem t.h)

module Model = struct
  type m = int list (* top first *)

  let empty = []

  let apply m ~op ~args =
    if op = op_push then (args.(0) :: m, 1)
    else if op = op_pop then
      match m with [] -> ([], -1) | v :: rest -> (rest, v)
    else if op = op_peek then (m, match m with [] -> -1 | v :: _ -> v)
    else if op = op_size then (m, List.length m)
    else invalid_arg "Stack_ds.Model.apply: unknown op"

  let snapshot m = m
end
