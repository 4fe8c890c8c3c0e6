(** SOFT hashtable of Zuriel et al. (paper §6, Fig. 6): the hand-crafted
    persistent hashtable PREP-UC is framed against.

    What matters for the comparison (and what we reproduce):
    - every key lives twice: a volatile node in DRAM for traversal and a
      persistent node in NVM holding (key, value, valid);
    - an update persists *only the modified words* — one line write-back
      plus one fence per update — instead of a whole structure;
    - read-only operations perform no flushes and no fences;
    - the bucket count is fixed (SOFT-1kB / SOFT-10kB in the figure).

    Simplification, documented per DESIGN.md: the original SOFT is
    lock-free; we guard each bucket with a spinlock (still fine-grained,
    still flush-free for readers), which preserves the performance
    asymmetry the figure is about. Recovery scans the persistent-node heap
    for valid nodes, as SOFT's recovery does. *)

open Nvm

let op_insert = Seqds.Hashmap.op_insert
let op_remove = Seqds.Hashmap.op_remove
let op_get = Seqds.Hashmap.op_get
let op_contains = Seqds.Hashmap.op_contains
let op_size = Seqds.Hashmap.op_size

let magic = 0x50F7

(* volatile node: [0] key, [1] value, [2] pnode, [3] next *)
(* persistent node: [0] magic, [1] key, [2] value, [3] valid *)

type t = {
  mem : Memory.t;
  buckets : int; (* DRAM array of vnode list heads *)
  locks : int; (* DRAM array of per-bucket spinlock words *)
  nbuckets : int;
  size_addr : int; (* volatile element count *)
  palloc : Alloc.t;
  valloc : Alloc.t;
}

let hash t key = (key * 0x9E3779B1) land max_int mod t.nbuckets

let create ?(nbuckets = 1000) mem =
  let valloc = Alloc.create_volatile mem ~home:0 in
  Context.bind ~default:valloc ();
  let palloc = Alloc.create_persistent mem ~home:0 in
  let buckets = Alloc.alloc valloc nbuckets in
  let locks = Alloc.alloc valloc nbuckets in
  let size_addr = Alloc.alloc valloc 8 in
  { mem; buckets; locks; nbuckets; size_addr; palloc; valloc }

let register_worker t = Context.bind ~default:t.valloc ()

let lock t b =
  while not (Memory.cas t.mem (t.locks + b) ~expected:0 ~desired:1) do
    Sim.spin ()
  done

let unlock t b = Memory.write t.mem (t.locks + b) 0

(* Find [key] in bucket [b]; returns (vnode, predecessor-or-0). *)
let find t b key =
  let rec walk prev node =
    if node = Memory.null then (Memory.null, prev)
    else if Memory.read t.mem node = key then (node, prev)
    else walk node (Memory.read t.mem (node + 3))
  in
  walk Memory.null (Memory.read t.mem (t.buckets + b))

let insert t key value =
  let b = hash t key in
  lock t b;
  let found, _ = find t b key in
  let result =
    if found <> Memory.null then begin
      (* update: persist only the new value's line *)
      let pnode = Memory.read t.mem (found + 2) in
      Memory.write t.mem (pnode + 2) value;
      Memory.clwb ~site:Persist.Soft_update t.mem (pnode + 2);
      Memory.sfence ~site:Persist.Soft_update t.mem;
      Memory.write t.mem (found + 1) value;
      0
    end
    else begin
      let pnode = Alloc.alloc t.palloc 4 in
      Memory.write t.mem (pnode + 1) key;
      Memory.write t.mem (pnode + 2) value;
      Memory.write t.mem (pnode + 3) 1;
      Memory.write t.mem pnode magic;
      Memory.clwb ~site:Persist.Soft_insert t.mem pnode;
      Memory.sfence ~site:Persist.Soft_insert t.mem;
      let vnode = Alloc.alloc t.valloc 4 in
      Memory.write t.mem vnode key;
      Memory.write t.mem (vnode + 1) value;
      Memory.write t.mem (vnode + 2) pnode;
      Memory.write t.mem (vnode + 3) (Memory.read t.mem (t.buckets + b));
      Memory.write t.mem (t.buckets + b) vnode;
      ignore (Memory.faa t.mem t.size_addr 1);
      1
    end
  in
  unlock t b;
  result

let remove t key =
  let b = hash t key in
  lock t b;
  let found, prev = find t b key in
  let result =
    if found = Memory.null then 0
    else begin
      let pnode = Memory.read t.mem (found + 2) in
      (* persist the invalidation first, then unlink the volatile node *)
      Memory.write t.mem (pnode + 3) 0;
      Memory.write t.mem pnode 0;
      Memory.clwb ~site:Persist.Soft_delete t.mem pnode;
      Memory.sfence ~site:Persist.Soft_delete t.mem;
      let next = Memory.read t.mem (found + 3) in
      if prev = Memory.null then Memory.write t.mem (t.buckets + b) next
      else Memory.write t.mem (prev + 3) next;
      Alloc.free t.valloc found 4;
      Alloc.free t.palloc pnode 4;
      ignore (Memory.faa t.mem t.size_addr (-1));
      1
    end
  in
  unlock t b;
  result

(* Reads: no flush, no fence (SOFT's headline property). *)
let get t key =
  let b = hash t key in
  lock t b;
  let found, _ = find t b key in
  let result = if found = Memory.null then -1 else Memory.read t.mem (found + 1) in
  unlock t b;
  result

let execute t ~op ~args =
  if op = op_insert then insert t args.(0) args.(1)
  else if op = op_remove then remove t args.(0)
  else if op = op_get then get t args.(0)
  else if op = op_contains then (if get t args.(0) >= 0 then 1 else 0)
  else if op = op_size then Memory.read t.mem t.size_addr
  else invalid_arg "Soft_hash.execute: unknown op"

(** Rebuild the table after a crash by scanning the persistent-node heap
    for valid nodes, as SOFT recovery does. Returns a fresh table over the
    same memory containing every persisted (key, value). *)
let recover old ~nbuckets =
  let mem = old.mem in
  let t = create ~nbuckets mem in
  List.iter
    (fun aid ->
      let base = Memory.addr_of ~aid ~offset:0 in
      let rec scan off =
        if off + 4 <= Memory.arena_words then begin
          let a = base + off in
          if Memory.read mem a = magic && Memory.read mem (a + 3) = 1 then
            ignore (insert t (Memory.read mem (a + 1)) (Memory.read mem (a + 2)));
          scan (off + 4)
        end
      in
      scan Memory.line_words)
    (Alloc.arenas old.palloc);
  t

(* Cost-free observation: [k1; v1; ...] sorted by key. *)
let snapshot t =
  let pairs = ref [] in
  for b = 0 to t.nbuckets - 1 do
    let rec walk node =
      if node <> Memory.null then begin
        pairs := (Memory.peek t.mem node, Memory.peek t.mem (node + 1)) :: !pairs;
        walk (Memory.peek t.mem (node + 3))
      end
    in
    walk (Memory.peek t.mem (t.buckets + b))
  done;
  List.sort compare !pairs |> List.concat_map (fun (k, v) -> [ k; v ])
