(** Resizable chained hashmap over simulated memory (paper §6, Fig. 2a).

    Layout (word offsets from the header address):
    - header: [0] table pointer, [1] capacity, [2] size
    - table:  [capacity] words of bucket-head node pointers
    - node:   [0] key, [1] value, [2] next

    Keys and values are non-negative ints. The map doubles its table when
    the load factor reaches 3/4 — the resize rewrites every chain, which is
    precisely the kind of bulk mutation that makes whole-replica-flush PUCs
    (CX) and background-flush hazards interesting. *)

open Nvm

let op_insert = 0 (* args [k; v] -> 1 if new key, 0 if value replaced *)
let op_remove = 1 (* args [k]    -> 1 if removed, 0 if absent *)
let op_get = 2 (* args [k]    -> value or -1 *)
let op_contains = 3 (* args [k]    -> 0/1 *)
let op_size = 4 (* args []     -> number of keys *)

let name = "hashmap"

type handle = { mem : Memory.t; h : int }

let hdr_words = 3
let node_words = 3
let initial_capacity = 64

let hash key capacity = (key * 0x9E3779B1) land max_int mod capacity

let root_addr t = t.h
let attach mem h = { mem; h }

let create mem =
  let h = Context.alloc hdr_words in
  let table = Context.alloc initial_capacity in
  let t = { mem; h } in
  Memory.write mem h table;
  Memory.write mem (h + 1) initial_capacity;
  Memory.write mem (h + 2) 0;
  t

let is_readonly ~op = op = op_get || op = op_contains || op = op_size

let classify ~op ~args =
  let open Ds_intf in
  if op = op_insert || op = op_remove then
    Keyed { written = [| args.(0) |]; read = [||] }
  else if op = op_get || op = op_contains then
    Keyed { written = [||]; read = [| args.(0) |] }
  else if op = op_size then Read_all
  else Opaque


(* Find [key]'s node in its chain. Returns (node, predecessor-or-0). *)
let find_node t key =
  let table = Memory.read t.mem t.h in
  let capacity = Memory.read t.mem (t.h + 1) in
  let bucket = table + hash key capacity in
  let rec walk prev node =
    if node = Memory.null then (Memory.null, prev)
    else if Memory.read t.mem node = key then (node, prev)
    else walk node (Memory.read t.mem (node + 2))
  in
  let head = Memory.read t.mem bucket in
  let found, prev = walk Memory.null head in
  (found, prev, bucket)

let resize t =
  let old_table = Memory.read t.mem t.h in
  let old_capacity = Memory.read t.mem (t.h + 1) in
  let capacity = 2 * old_capacity in
  let table = Context.alloc capacity in
  (* Move every node into its new chain; nodes are reused, only their
     [next] links are rewritten. *)
  for b = 0 to old_capacity - 1 do
    let rec move node =
      if node <> Memory.null then begin
        let next = Memory.read t.mem (node + 2) in
        let key = Memory.read t.mem node in
        let bucket = table + hash key capacity in
        Memory.write t.mem (node + 2) (Memory.read t.mem bucket);
        Memory.write t.mem bucket node;
        move next
      end
    in
    move (Memory.read t.mem (old_table + b))
  done;
  Memory.write t.mem t.h table;
  Memory.write t.mem (t.h + 1) capacity;
  Context.free old_table old_capacity

let insert t key value =
  let found, _prev, bucket = find_node t key in
  if found <> Memory.null then begin
    Memory.write t.mem (found + 1) value;
    0
  end
  else begin
    let node = Context.alloc node_words in
    Memory.write t.mem node key;
    Memory.write t.mem (node + 1) value;
    Memory.write t.mem (node + 2) (Memory.read t.mem bucket);
    Memory.write t.mem bucket node;
    let size = Memory.read t.mem (t.h + 2) + 1 in
    Memory.write t.mem (t.h + 2) size;
    let capacity = Memory.read t.mem (t.h + 1) in
    if 4 * size > 3 * capacity then resize t;
    1
  end

let remove t key =
  let found, prev, bucket = find_node t key in
  if found = Memory.null then 0
  else begin
    let next = Memory.read t.mem (found + 2) in
    if prev = Memory.null then Memory.write t.mem bucket next
    else Memory.write t.mem (prev + 2) next;
    Context.free found node_words;
    Memory.write t.mem (t.h + 2) (Memory.read t.mem (t.h + 2) - 1);
    1
  end

let get t key =
  let found, _, _ = find_node t key in
  if found = Memory.null then -1 else Memory.read t.mem (found + 1)

let execute t ~op ~args =
  if op = op_insert then insert t args.(0) args.(1)
  else if op = op_remove then remove t args.(0)
  else if op = op_get then get t args.(0)
  else if op = op_contains then (if get t args.(0) >= 0 then 1 else 0)
  else if op = op_size then Memory.read t.mem (t.h + 2)
  else invalid_arg "Hashmap.execute: unknown op"

(* Shape-preserving clone: a table of the source's capacity, each chain
   cloned in order through a tail pointer. No insert, no rehash, no resize.
   [Context.alloc] zero-fills, so empty buckets and chain ends stay null.
   The source table is loaded a cache line at a time and each node as one
   block, as a memcpy would. *)
let copy src =
  let mem = src.mem in
  let src_table = Memory.read mem src.h in
  let capacity = Memory.read mem (src.h + 1) in
  let h = Context.alloc hdr_words in
  let table = Context.alloc capacity in
  let rec clone node tail =
    if node <> Memory.null then begin
      let n = Memory.read_words mem node node_words in
      let c = Context.alloc node_words in
      Memory.write mem c n.(0);
      Memory.write mem (c + 1) n.(1);
      Memory.write mem tail c;
      clone n.(2) (c + 2)
    end
  in
  Memory.iter_lines mem src_table capacity (fun b head -> clone head (table + b));
  Memory.write mem h table;
  Memory.write mem (h + 1) capacity;
  Memory.write mem (h + 2) (Memory.read mem (src.h + 2));
  { mem; h }

(* Cost-free observation: [k1; v1; k2; v2; ...] sorted by key. *)
let snapshot t =
  let table = Memory.peek t.mem t.h in
  let capacity = Memory.peek t.mem (t.h + 1) in
  let pairs = ref [] in
  for b = 0 to capacity - 1 do
    let rec walk node =
      if node <> Memory.null then begin
        pairs := (Memory.peek t.mem node, Memory.peek t.mem (node + 1)) :: !pairs;
        walk (Memory.peek t.mem (node + 2))
      end
    in
    walk (Memory.peek t.mem (table + b))
  done;
  List.sort compare !pairs |> List.concat_map (fun (k, v) -> [ k; v ])

module Model = struct
  module IntMap = Map.Make (Int)

  type m = int IntMap.t

  let empty = IntMap.empty

  let apply m ~op ~args =
    if op = op_insert then
      let existed = IntMap.mem args.(0) m in
      (IntMap.add args.(0) args.(1) m, if existed then 0 else 1)
    else if op = op_remove then
      let existed = IntMap.mem args.(0) m in
      (IntMap.remove args.(0) m, if existed then 1 else 0)
    else if op = op_get then
      (m, match IntMap.find_opt args.(0) m with Some v -> v | None -> -1)
    else if op = op_contains then (m, if IntMap.mem args.(0) m then 1 else 0)
    else if op = op_size then (m, IntMap.cardinal m)
    else invalid_arg "Hashmap.Model.apply: unknown op"

  let snapshot m =
    IntMap.bindings m |> List.concat_map (fun (k, v) -> [ k; v ])
end

(* [op_get]'s read path, but exact: [-1] is a storable value (sharded
   transfers drive balances negative), so absence is the missing node *)
let key_get t key =
  let found, _, _ = find_node t key in
  if found = Memory.null then None else Some (Memory.read t.mem (found + 1))

let key_put t key value = ignore (execute t ~op:op_insert ~args:[| key; value |])
