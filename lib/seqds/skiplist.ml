(** Skiplist map over simulated memory — a sixth sequential structure to
    demonstrate that anything implementing [Ds_intf.S] gets all three
    PREP variants (and the baselines) for free.

    Node heights are derived deterministically from the key's hash rather
    than drawn from a per-instance RNG: a universal construction replays
    the same operation sequence on many replicas, and deterministic
    heights keep the replicas structurally identical, which makes
    [snapshot] comparisons and copy tests exact.

    Layout:
    - header: [0] head pointer, [1] size
    - head:   a full-height node with key slot unused
    - node:   [0] key, [1] value, [2] height, [3..3+height-1] forward
              pointers (so a node occupies 3+height words) *)

open Nvm

let op_insert = Hashmap.op_insert
let op_remove = Hashmap.op_remove
let op_get = Hashmap.op_get
let op_contains = Hashmap.op_contains
let op_size = Hashmap.op_size

let name = "skiplist"
let max_height = 12
let hdr_words = 2

type handle = { mem : Memory.t; h : int }

let root_addr t = t.h
let attach mem h = { mem; h }

(* Deterministic 1..max_height with P(h >= k+1) ~ 2^-k. *)
let height_of_key key =
  let x = (key * 0x9E3779B1) lxor (key lsr 7) in
  let rec count h x =
    if h >= max_height || x land 1 = 0 then h else count (h + 1) (x lsr 1)
  in
  count 1 (x land max_int)

let node_words height = 3 + height

let fwd t node level = Memory.read t.mem (node + 3 + level)
let set_fwd t node level v = Memory.write t.mem (node + 3 + level) v

let create mem =
  let h = Context.alloc hdr_words in
  let head = Context.alloc (node_words max_height) in
  let t = { mem; h } in
  Memory.write mem h head;
  Memory.write mem (h + 1) 0;
  Memory.write mem (head + 2) max_height;
  for level = 0 to max_height - 1 do
    set_fwd t head level Memory.null
  done;
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


(* Walk down from the top level; [update.(l)] is the rightmost node at
   level [l] whose key is < [key]. *)
let find_predecessors t key update =
  let head = Memory.read t.mem t.h in
  let node = ref head in
  for level = max_height - 1 downto 0 do
    let continue = ref true in
    while !continue do
      let next = fwd t !node level in
      if next <> Memory.null && Memory.read t.mem next < key then node := next
      else continue := false
    done;
    update.(level) <- !node
  done;
  let candidate = fwd t !node 0 in
  if candidate <> Memory.null && Memory.read t.mem candidate = key then candidate
  else Memory.null

let insert t key value =
  let update = Array.make max_height Memory.null in
  let found = find_predecessors t key update in
  if found <> Memory.null then begin
    Memory.write t.mem (found + 1) value;
    0
  end
  else begin
    let height = height_of_key key in
    let node = Context.alloc (node_words height) in
    Memory.write t.mem node key;
    Memory.write t.mem (node + 1) value;
    Memory.write t.mem (node + 2) height;
    for level = 0 to height - 1 do
      set_fwd t node level (fwd t update.(level) level);
      set_fwd t update.(level) level node
    done;
    Memory.write t.mem (t.h + 1) (Memory.read t.mem (t.h + 1) + 1);
    1
  end

let remove t key =
  let update = Array.make max_height Memory.null in
  let found = find_predecessors t key update in
  if found = Memory.null then 0
  else begin
    let height = Memory.read t.mem (found + 2) in
    for level = 0 to height - 1 do
      if fwd t update.(level) level = found then
        set_fwd t update.(level) level (fwd t found level)
    done;
    Context.free found (node_words height);
    Memory.write t.mem (t.h + 1) (Memory.read t.mem (t.h + 1) - 1);
    1
  end

let get t key =
  let update = Array.make max_height Memory.null in
  let found = find_predecessors t key update in
  if found = Memory.null then -1 else Memory.read t.mem (found + 1)

let execute t ~op ~args =
  if op = op_insert then insert t args.(0) args.(1)
  else if op = op_remove then remove t args.(0)
  else if op = op_get then get t args.(0)
  else if op = op_contains then (if get t args.(0) >= 0 then 1 else 0)
  else if op = op_size then Memory.read t.mem (t.h + 1)
  else invalid_arg "Skiplist.execute: unknown op"

(* Shape-preserving clone: one walk along level 0 allocates each node once
   at its source height and appends it to every level it spans, keeping one
   tail pointer per level. No insert, no predecessor search. [Context.alloc]
   zero-fills, so each level's last node ends null. The walk needs only a
   node's key, value, height and level-0 link, its first four words, which
   it loads as one block. *)
let copy src =
  let dst = create src.mem in
  let tails = Array.make max_height (Memory.read dst.mem dst.h) in
  let rec clone node =
    if node <> Memory.null then begin
      let b = Memory.read_words src.mem node (node_words 1) in
      let height = b.(2) in
      let c = Context.alloc (node_words height) in
      Memory.write dst.mem c b.(0);
      Memory.write dst.mem (c + 1) b.(1);
      Memory.write dst.mem (c + 2) height;
      for level = 0 to height - 1 do
        set_fwd dst tails.(level) level c;
        tails.(level) <- c
      done;
      clone b.(3)
    end
  in
  clone (fwd src (Memory.read src.mem src.h) 0);
  Memory.write dst.mem (dst.h + 1) (Memory.read src.mem (src.h + 1));
  dst

(* Observation: [k1; v1; ...] in key order (level-0 chain is sorted). *)
let snapshot t =
  let head = Memory.peek t.mem t.h in
  let rec walk acc node =
    if node = Memory.null then List.rev acc
    else
      let acc = Memory.peek t.mem (node + 1) :: Memory.peek t.mem node :: acc in
      walk acc (Memory.peek t.mem (node + 3))
  in
  walk [] (Memory.peek t.mem (head + 3))

(** Structural invariants for property tests: level-0 keys strictly
    ascending; every level-l chain is a subsequence of level 0; node
    heights match [height_of_key]. *)
let check_invariants t =
  let head = Memory.peek t.mem t.h in
  let rec level0 acc node =
    if node = Memory.null then List.rev acc
    else level0 (Memory.peek t.mem node :: acc) (Memory.peek t.mem (node + 3))
  in
  let keys0 = level0 [] (Memory.peek t.mem (head + 3)) in
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      if a >= b then failwith "skiplist: level-0 keys not ascending";
      ascending rest
    | _ -> ()
  in
  ascending keys0;
  for level = 1 to max_height - 1 do
    let rec chain node =
      if node <> Memory.null then begin
        let key = Memory.peek t.mem node in
        let height = Memory.peek t.mem (node + 2) in
        if height <= level then failwith "skiplist: node too short for level";
        if height <> height_of_key key then failwith "skiplist: wrong height";
        if not (List.mem key keys0) then failwith "skiplist: ghost node";
        chain (Memory.peek t.mem (node + 3 + level))
      end
    in
    chain (Memory.peek t.mem (head + 3 + level))
  done

module Model = Hashmap.Model

(* [op_get]'s read path, but exact: [-1] is a storable value (sharded
   transfers drive balances negative), so absence is the missing node *)
let key_get t key =
  let update = Array.make max_height Memory.null in
  let found = find_predecessors t key update in
  if found = Memory.null then None else Some (Memory.read t.mem (found + 1))

let key_put t key value = ignore (execute t ~op:op_insert ~args:[| key; value |])
