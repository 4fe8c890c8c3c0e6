(** Red-black tree map over simulated memory (paper §6, Fig. 2b).

    CLRS-style with an allocated sentinel [nil] node (colour black), since
    the fixup procedures temporarily store a parent in the sentinel.

    Layout:
    - header: [0] root, [1] size, [2] nil sentinel pointer
    - node:   [0] key, [1] value, [2] colour (0 red / 1 black),
              [3] left, [4] right, [5] parent *)

open Nvm

let op_insert = 0 (* args [k; v] -> 1 if new key, 0 if value replaced *)
let op_remove = 1 (* args [k]    -> 1 if removed, 0 if absent *)
let op_get = 2 (* args [k]    -> value or -1 *)
let op_contains = 3 (* args [k]    -> 0/1 *)
let op_size = 4 (* args []     -> number of keys *)

let name = "rbtree"

type handle = { mem : Memory.t; h : int }

let hdr_words = 3
let node_words = 6
let red = 0
let black = 1

let root_addr t = t.h
let attach mem h = { mem; h }

(* field accessors *)
let key t n = Memory.read t.mem n
let value t n = Memory.read t.mem (n + 1)
let color t n = Memory.read t.mem (n + 2)
let left t n = Memory.read t.mem (n + 3)
let right t n = Memory.read t.mem (n + 4)
let parent t n = Memory.read t.mem (n + 5)
let set_value t n v = Memory.write t.mem (n + 1) v
let set_color t n c = Memory.write t.mem (n + 2) c
let set_left t n x = Memory.write t.mem (n + 3) x
let set_right t n x = Memory.write t.mem (n + 4) x
let set_parent t n x = Memory.write t.mem (n + 5) x

let root t = Memory.read t.mem t.h
let set_root t n = Memory.write t.mem t.h n
let nil t = Memory.read t.mem (t.h + 2)

let create mem =
  let h = Context.alloc hdr_words in
  let sentinel = Context.alloc node_words in
  let t = { mem; h } in
  Memory.write mem (h + 2) sentinel;
  Memory.write mem (sentinel + 2) black;
  set_root t sentinel;
  Memory.write mem (h + 1) 0;
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


let left_rotate t x =
  let y = right t x in
  set_right t x (left t y);
  if left t y <> nil t then set_parent t (left t y) x;
  set_parent t y (parent t x);
  if parent t x = nil t then set_root t y
  else if x = left t (parent t x) then set_left t (parent t x) y
  else set_right t (parent t x) y;
  set_left t y x;
  set_parent t x y

let right_rotate t x =
  let y = left t x in
  set_left t x (right t y);
  if right t y <> nil t then set_parent t (right t y) x;
  set_parent t y (parent t x);
  if parent t x = nil t then set_root t y
  else if x = right t (parent t x) then set_right t (parent t x) y
  else set_left t (parent t x) y;
  set_right t y x;
  set_parent t x y

let rec insert_fixup t z =
  if color t (parent t z) = red then begin
    let zp = parent t z in
    let zpp = parent t zp in
    if zp = left t zpp then begin
      let uncle = right t zpp in
      if color t uncle = red then begin
        set_color t zp black;
        set_color t uncle black;
        set_color t zpp red;
        insert_fixup t zpp
      end
      else begin
        let z = if z = right t zp then (left_rotate t zp; zp) else z in
        let zp = parent t z in
        let zpp = parent t zp in
        set_color t zp black;
        set_color t zpp red;
        right_rotate t zpp;
        insert_fixup t z
      end
    end
    else begin
      let uncle = left t zpp in
      if color t uncle = red then begin
        set_color t zp black;
        set_color t uncle black;
        set_color t zpp red;
        insert_fixup t zpp
      end
      else begin
        let z = if z = left t zp then (right_rotate t zp; zp) else z in
        let zp = parent t z in
        let zpp = parent t zp in
        set_color t zp black;
        set_color t zpp red;
        left_rotate t zpp;
        insert_fixup t z
      end
    end
  end;
  set_color t (root t) black

let insert t k v =
  let rec descend y x =
    if x = nil t then `Leaf y
    else
      let xk = key t x in
      if k = xk then `Found x
      else if k < xk then descend x (left t x)
      else descend x (right t x)
  in
  match descend (nil t) (root t) with
  | `Found x ->
    set_value t x v;
    0
  | `Leaf y ->
    let z = Context.alloc node_words in
    Memory.write t.mem z k;
    Memory.write t.mem (z + 1) v;
    set_color t z red;
    set_left t z (nil t);
    set_right t z (nil t);
    set_parent t z y;
    if y = nil t then set_root t z
    else if k < key t y then set_left t y z
    else set_right t y z;
    insert_fixup t z;
    Memory.write t.mem (t.h + 1) (Memory.read t.mem (t.h + 1) + 1);
    1

let rec find t x k =
  if x = nil t then Memory.null
  else
    let xk = key t x in
    if k = xk then x else if k < xk then find t (left t x) k
    else find t (right t x) k

let rec minimum t x = if left t x = nil t then x else minimum t (left t x)

(* Replace subtree rooted at [u] with subtree rooted at [v]. *)
let transplant t u v =
  if parent t u = nil t then set_root t v
  else if u = left t (parent t u) then set_left t (parent t u) v
  else set_right t (parent t u) v;
  set_parent t v (parent t u)

let rec delete_fixup t x =
  if x <> root t && color t x = black then begin
    let xp = parent t x in
    if x = left t xp then begin
      let w = right t xp in
      let w =
        if color t w = red then begin
          set_color t w black;
          set_color t xp red;
          left_rotate t xp;
          right t xp
        end
        else w
      in
      let xp = parent t x in
      if color t (left t w) = black && color t (right t w) = black then begin
        set_color t w red;
        delete_fixup t xp
      end
      else begin
        let w =
          if color t (right t w) = black then begin
            set_color t (left t w) black;
            set_color t w red;
            right_rotate t w;
            right t xp
          end
          else w
        in
        set_color t w (color t xp);
        set_color t xp black;
        set_color t (right t w) black;
        left_rotate t xp;
        delete_fixup t (root t)
      end
    end
    else begin
      let w = left t xp in
      let w =
        if color t w = red then begin
          set_color t w black;
          set_color t xp red;
          right_rotate t xp;
          left t xp
        end
        else w
      in
      let xp = parent t x in
      if color t (right t w) = black && color t (left t w) = black then begin
        set_color t w red;
        delete_fixup t xp
      end
      else begin
        let w =
          if color t (left t w) = black then begin
            set_color t (right t w) black;
            set_color t w red;
            left_rotate t w;
            left t xp
          end
          else w
        in
        set_color t w (color t xp);
        set_color t xp black;
        set_color t (left t w) black;
        right_rotate t xp;
        delete_fixup t (root t)
      end
    end
  end
  else set_color t x black

let remove t k =
  let z = find t (root t) k in
  if z = Memory.null then 0
  else begin
    let y_original_color = ref (color t z) in
    let x =
      if left t z = nil t then begin
        let x = right t z in
        transplant t z x;
        x
      end
      else if right t z = nil t then begin
        let x = left t z in
        transplant t z x;
        x
      end
      else begin
        let y = minimum t (right t z) in
        y_original_color := color t y;
        let x = right t y in
        if parent t y = z then set_parent t x y
        else begin
          transplant t y (right t y);
          set_right t y (right t z);
          set_parent t (right t y) y
        end;
        transplant t z y;
        set_left t y (left t z);
        set_parent t (left t y) y;
        set_color t y (color t z);
        x
      end
    in
    if !y_original_color = black then delete_fixup t x;
    Context.free z node_words;
    Memory.write t.mem (t.h + 1) (Memory.read t.mem (t.h + 1) - 1);
    1
  end

let get t k =
  let n = find t (root t) k in
  if n = Memory.null then -1 else value t n

let execute t ~op ~args =
  if op = op_insert then insert t args.(0) args.(1)
  else if op = op_remove then remove t args.(0)
  else if op = op_get then get t args.(0)
  else if op = op_contains then (if get t args.(0) >= 0 then 1 else 0)
  else if op = op_size then Memory.read t.mem (t.h + 1)
  else invalid_arg "Rbtree.execute: unknown op"

(* Shape-preserving clone: a preorder walk loads each source node as one
   block, allocates its clone once, copies its key, value and colour, and
   points its links at the clone's own nodes (the source's sentinel maps to
   the clone's). No insert, no search, no rebalancing — colours and shape
   are the source's.

   A large tree is split across the fiber's fan-out ([Context.fork]),
   one part per [min_part_nodes] nodes up to the fan-out
   ([Context.parts]): a large copy uses every core it is lent, and each
   helper allocates from chunks of the caller's own arenas. The caller
   clones the top levels breadth-first until at least 8 subtrees per job
   hang below them, then the jobs clone those subtrees, dealt round-robin
   in key order, each linking its subtree roots into the top. Eight per
   job evens out the subtrees' unequal sizes. *)
let min_part_nodes = 256

let copy src =
  let dst = create src.mem in
  let src_nil = nil src and dst_nil = nil dst in
  let size = Memory.read src.mem (src.h + 1) in
  (* one block load of source node [n]; returns the clone and the block,
     whose [3] and [4] are [n]'s children *)
  let clone_node n p =
    let b = Memory.read_words src.mem n node_words in
    let c = Context.alloc node_words in
    Memory.write dst.mem c b.(0);
    Memory.write dst.mem (c + 1) b.(1);
    set_color dst c b.(2);
    set_parent dst c p;
    (c, b)
  in
  let rec clone n p =
    if n = src_nil then dst_nil
    else begin
      let c, b = clone_node n p in
      set_left dst c (clone b.(3) c);
      set_right dst c (clone b.(4) c);
      c
    end
  in
  let parts = Context.parts ~min_part:min_part_nodes size in
  if parts <= 1 then set_root dst (clone (root src) dst_nil)
  else begin
    (* a hanging subtree: source node, the clone's parent, and the link
       that will point at its clone *)
    let link (_, p, left_side) c =
      if left_side then set_left dst p c else set_right dst p c
    in
    let children (c, b) =
      List.filter_map
        (fun (m, left_side) ->
          let h = (m, c, left_side) in
          if m = src_nil then (link h dst_nil; None) else Some h)
        [ (b.(3), true); (b.(4), false) ]
    in
    let rec top level =
      let hanging = List.concat_map children level in
      if hanging = [] || List.length hanging >= 8 * parts then hanging
      else
        top
          (List.map
             (fun ((n, p, _) as h) ->
               let (c, _) as cb = clone_node n p in
               link h c;
               cb)
             hanging)
    in
    let ((c, _) as cb) = clone_node (root src) dst_nil in
    set_root dst c;
    let hanging = Array.of_list (top [ cb ]) in
    Context.fork
      (List.init parts (fun j () ->
           Array.iteri
             (fun i ((n, p, _) as h) ->
               if i mod parts = j then link h (clone n p))
             hanging))
  end;
  Memory.write dst.mem (dst.h + 1) size;
  dst

(* Observation: [k1; v1; k2; v2; ...] in key order (cost-free). *)
let snapshot t =
  let pk n = Memory.peek t.mem n in
  let sentinel = Memory.peek t.mem (t.h + 2) in
  let rec walk acc n =
    if n = sentinel then acc
    else
      let acc = walk acc (Memory.peek t.mem (n + 4)) in
      let acc = pk n :: Memory.peek t.mem (n + 1) :: [] @ acc in
      walk acc (Memory.peek t.mem (n + 3))
  in
  walk [] (Memory.peek t.mem t.h)

(* ---- structural invariants, used by property tests ---- *)

(** Check the red-black invariants on the coherent view (cost-free):
    root is black, no red node has a red child, every root-to-leaf path
    has the same black height, and keys are in BST order. Raises
    [Failure] describing the first violated invariant. *)
let check_invariants t =
  let sentinel = Memory.peek t.mem (t.h + 2) in
  let pcolor n = Memory.peek t.mem (n + 2) in
  let pkey n = Memory.peek t.mem n in
  let pleft n = Memory.peek t.mem (n + 3) in
  let pright n = Memory.peek t.mem (n + 4) in
  let r = Memory.peek t.mem t.h in
  if r <> sentinel && pcolor r <> black then failwith "rbtree: red root";
  let rec walk n lo hi =
    if n = sentinel then 1
    else begin
      let k = pkey n in
      (match lo with Some l when k <= l -> failwith "rbtree: BST order" | _ -> ());
      (match hi with Some h when k >= h -> failwith "rbtree: BST order" | _ -> ());
      if pcolor n = red
         && (pcolor (pleft n) = red || pcolor (pright n) = red)
      then failwith "rbtree: red node with red child";
      let bl = walk (pleft n) lo (Some k) in
      let br = walk (pright n) (Some k) hi in
      if bl <> br then failwith "rbtree: unequal black heights";
      bl + (if pcolor n = black then 1 else 0)
    end
  in
  ignore (walk r None None)

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
    else invalid_arg "Rbtree.Model.apply: unknown op"

  let snapshot m =
    IntMap.bindings m |> List.concat_map (fun (k, v) -> [ k; v ])
end

(* [op_get]'s read path, but exact: [-1] is a storable value (sharded
   transfers drive balances negative), so absence is the missing node *)
let key_get t key =
  let n = find t (root t) key in
  if n = Memory.null then None else Some (value t n)

let key_put t key value = ignore (execute t ~op:op_insert ~args:[| key; value |])
