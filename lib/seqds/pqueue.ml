(** Binary max-heap priority queue over simulated memory (paper Fig. 4;
    the paper lifts C++ [std::priority_queue], also an array max-heap).

    Layout: header [0] data pointer, [1] capacity, [2] size; data is a
    plain array of keys that doubles when full. *)

open Nvm

let op_enqueue = 0 (* args [v] -> 1 *)
let op_dequeue = 1 (* args []  -> max or -1 if empty *)
let op_peek = 2 (* args []  -> max or -1 *)
let op_size = 3 (* args []  -> size *)

let name = "pqueue"

type handle = { mem : Memory.t; h : int }

let hdr_words = 3
let initial_capacity = 64

let root_addr t = t.h
let attach mem h = { mem; h }

let create mem =
  let h = Context.alloc hdr_words in
  let data = Context.alloc initial_capacity in
  Memory.write mem h data;
  Memory.write mem (h + 1) initial_capacity;
  Memory.write mem (h + 2) 0;
  { mem; h }

let is_readonly ~op = op = op_peek || op = op_size

(* no per-key semantics: every op is opaque to key-granular backends *)
let classify ~op:_ ~args:_ = Ds_intf.Opaque
let key_get _ _ = invalid_arg (name ^ ": not a keyed structure")
let key_put _ _ _ = invalid_arg (name ^ ": not a keyed structure")

let grow t =
  let data = Memory.read t.mem t.h in
  let capacity = Memory.read t.mem (t.h + 1) in
  let size = Memory.read t.mem (t.h + 2) in
  let bigger = Context.alloc (2 * capacity) in
  for i = 0 to size - 1 do
    Memory.write t.mem (bigger + i) (Memory.read t.mem (data + i))
  done;
  Memory.write t.mem t.h bigger;
  Memory.write t.mem (t.h + 1) (2 * capacity);
  Context.free data capacity

let enqueue t v =
  let capacity = Memory.read t.mem (t.h + 1) in
  let size = Memory.read t.mem (t.h + 2) in
  if size = capacity then grow t;
  let data = Memory.read t.mem t.h in
  (* sift up *)
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      let pv = Memory.read t.mem (data + parent) in
      if pv < v then begin
        Memory.write t.mem (data + i) pv;
        up parent
      end
      else Memory.write t.mem (data + i) v
    end
    else Memory.write t.mem (data + i) v
  in
  up size;
  Memory.write t.mem (t.h + 2) (size + 1);
  1

let dequeue t =
  let size = Memory.read t.mem (t.h + 2) in
  if size = 0 then -1
  else begin
    let data = Memory.read t.mem t.h in
    let top = Memory.read t.mem data in
    let last = Memory.read t.mem (data + size - 1) in
    let size = size - 1 in
    Memory.write t.mem (t.h + 2) size;
    (* sift down the former last element from the root *)
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      if l >= size then Memory.write t.mem (data + i) last
      else begin
        let lv = Memory.read t.mem (data + l) in
        let big, bv =
          if r < size then begin
            let rv = Memory.read t.mem (data + r) in
            if rv > lv then (r, rv) else (l, lv)
          end
          else (l, lv)
        in
        if bv > last then begin
          Memory.write t.mem (data + i) bv;
          down big
        end
        else Memory.write t.mem (data + i) last
      end
    in
    if size > 0 then down 0;
    top
  end

let execute t ~op ~args =
  if op = op_enqueue then enqueue t args.(0)
  else if op = op_dequeue then dequeue t
  else if op = op_peek then begin
    let size = Memory.read t.mem (t.h + 2) in
    if size = 0 then -1 else Memory.read t.mem (Memory.read t.mem t.h)
  end
  else if op = op_size then Memory.read t.mem (t.h + 2)
  else invalid_arg "Pqueue.execute: unknown op"

let copy src =
  let dst = create src.mem in
  let data = Memory.read src.mem src.h in
  let size = Memory.read src.mem (src.h + 2) in
  (* the heap array in order, loaded a cache line at a time *)
  Memory.iter_lines src.mem data size (fun _ v -> ignore (enqueue dst v));
  dst

(* Observation: the multiset of keys in descending order. *)
let snapshot t =
  let data = Memory.peek t.mem t.h in
  let size = Memory.peek t.mem (t.h + 2) in
  List.init size (fun i -> Memory.peek t.mem (data + i))
  |> List.sort (fun a b -> compare b a)

module Model = struct
  type m = int list (* descending *)

  let empty = []

  let rec insert_desc v = function
    | [] -> [ v ]
    | x :: rest when x >= v -> x :: insert_desc v rest
    | rest -> v :: rest

  let apply m ~op ~args =
    if op = op_enqueue then (insert_desc args.(0) m, 1)
    else if op = op_dequeue then
      match m with [] -> ([], -1) | v :: rest -> (rest, v)
    else if op = op_peek then (m, match m with [] -> -1 | v :: _ -> v)
    else if op = op_size then (m, List.length m)
    else invalid_arg "Pqueue.Model.apply: unknown op"

  let snapshot m = m
end
