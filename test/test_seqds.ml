(* Tests for the sequential data structures: each is checked against its
   pure model on random operation sequences, plus structure-specific
   invariants, copy, and crash-recovery attach. *)

open Nvm
open Seqds

let check = Alcotest.(check int)
let _check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

(* Run [f handle mem] with a fresh DS instance bound to a fresh memory. *)
let with_ds (type h) (module Ds : Seqds.Ds_intf.S with type handle = h)
    ?(bg_period = 0) f =
  Sim.run_one (fun () ->
      let m = Memory.make ~bg_period () in
      let al = Alloc.create_volatile m ~home:0 in
      Context.bind ~default:al ();
      let ds = Ds.create m in
      let r = f ds m in
      Context.reset ();
      r)

(* Drive [ds] and [model] with the same [steps] random ops from [gen_op];
   fail on the first divergent response, then on a divergent snapshot.
   Returns the final model. *)
let drive_with_model (type h m)
    (module Ds : Seqds.Ds_intf.S with type handle = h and type Model.m = m) ds
    model rng ~gen_op ~steps what =
  let model = ref model in
  for step = 1 to steps do
    let op, args = gen_op rng in
    let got = Ds.execute ds ~op ~args in
    let model', expected = Ds.Model.apply !model ~op ~args in
    model := model';
    if got <> expected then
      Alcotest.failf "%s %s: step %d op %d: got %d, model says %d" Ds.name
        what step op got expected
  done;
  check_list (Ds.name ^ " " ^ what ^ " agrees") (Ds.Model.snapshot !model)
    (Ds.snapshot ds);
  !model

let agree_with_model (type h)
    (module Ds : Seqds.Ds_intf.S with type handle = h) ~gen_op ~steps seed =
  with_ds (module Ds) (fun ds _m ->
      ignore
        (drive_with_model (module Ds) ds Ds.Model.empty (Sim.Rng.create seed)
           ~gen_op ~steps "snapshot"))

(* op generators *)
let map_op keyspace rng =
  let k = Sim.Rng.int rng keyspace in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 -> (Hashmap.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 3 | 4 -> (Hashmap.op_remove, [| k |])
  | 5 | 6 | 7 -> (Hashmap.op_get, [| k |])
  | 8 -> (Hashmap.op_contains, [| k |])
  | _ -> (Hashmap.op_size, [||])

let stack_op rng =
  match Sim.Rng.int rng 4 with
  | 0 | 1 -> (Stack_ds.op_push, [| Sim.Rng.int rng 1000 |])
  | 2 -> (Stack_ds.op_pop, [||])
  | _ -> (Stack_ds.op_peek, [||])

let queue_op rng =
  match Sim.Rng.int rng 4 with
  | 0 | 1 -> (Queue_ds.op_enqueue, [| Sim.Rng.int rng 1000 |])
  | 2 -> (Queue_ds.op_dequeue, [||])
  | _ -> (Queue_ds.op_peek, [||])

let pq_op rng =
  match Sim.Rng.int rng 4 with
  | 0 | 1 -> (Pqueue.op_enqueue, [| Sim.Rng.int rng 1000 |])
  | 2 -> (Pqueue.op_dequeue, [||])
  | _ -> (Pqueue.op_peek, [||])

(* ---- model agreement ---- *)

let test_hashmap_model () =
  List.iter
    (fun seed -> agree_with_model (module Hashmap) ~gen_op:(map_op 200) ~steps:3000 seed)
    [ 1L; 2L; 3L ]

let test_rbtree_model () =
  List.iter
    (fun seed -> agree_with_model (module Rbtree) ~gen_op:(map_op 200) ~steps:3000 seed)
    [ 4L; 5L; 6L ]

let test_stack_model () =
  agree_with_model (module Stack_ds) ~gen_op:stack_op ~steps:3000 7L

let test_queue_model () =
  agree_with_model (module Queue_ds) ~gen_op:queue_op ~steps:3000 8L

let test_pqueue_model () =
  agree_with_model (module Pqueue) ~gen_op:pq_op ~steps:3000 9L

let test_skiplist_model () =
  List.iter
    (fun seed ->
      agree_with_model (module Skiplist) ~gen_op:(map_op 200) ~steps:3000 seed)
    [ 10L; 11L; 12L ]

let test_skiplist_invariants () =
  with_ds (module Skiplist) (fun ds _m ->
      let rng = Sim.Rng.create 99L in
      for _ = 1 to 1500 do
        let k = Sim.Rng.int rng 300 in
        (if Sim.Rng.bool rng then
           ignore (Skiplist.execute ds ~op:Skiplist.op_insert ~args:[| k; k |])
         else ignore (Skiplist.execute ds ~op:Skiplist.op_remove ~args:[| k |]));
        Skiplist.check_invariants ds
      done)

(* ---- hashmap specifics ---- *)

let test_hashmap_resize () =
  with_ds (module Hashmap) (fun ds _m ->
      for k = 0 to 999 do
        check "insert fresh" 1 (Hashmap.execute ds ~op:Hashmap.op_insert ~args:[| k; k * 2 |])
      done;
      check "size" 1000 (Hashmap.execute ds ~op:Hashmap.op_size ~args:[||]);
      for k = 0 to 999 do
        check "get after resize" (k * 2)
          (Hashmap.execute ds ~op:Hashmap.op_get ~args:[| k |])
      done)

let test_hashmap_update_in_place () =
  with_ds (module Hashmap) (fun ds _m ->
      check "new" 1 (Hashmap.execute ds ~op:Hashmap.op_insert ~args:[| 5; 10 |]);
      check "replace" 0 (Hashmap.execute ds ~op:Hashmap.op_insert ~args:[| 5; 20 |]);
      check "value" 20 (Hashmap.execute ds ~op:Hashmap.op_get ~args:[| 5 |]);
      check "size stays 1" 1 (Hashmap.execute ds ~op:Hashmap.op_size ~args:[||]))

(* ---- rbtree specifics ---- *)

let test_rbtree_invariants_random () =
  with_ds (module Rbtree) (fun ds _m ->
      let rng = Sim.Rng.create 77L in
      for _ = 1 to 2000 do
        let k = Sim.Rng.int rng 300 in
        (if Sim.Rng.bool rng then
           ignore (Rbtree.execute ds ~op:Rbtree.op_insert ~args:[| k; k |])
         else ignore (Rbtree.execute ds ~op:Rbtree.op_remove ~args:[| k |]));
        Rbtree.check_invariants ds
      done)

let test_rbtree_sorted_snapshot () =
  with_ds (module Rbtree) (fun ds _m ->
      List.iter
        (fun k -> ignore (Rbtree.execute ds ~op:Rbtree.op_insert ~args:[| k; k |]))
        [ 5; 3; 9; 1; 7 ];
      check_list "sorted" [ 1; 1; 3; 3; 5; 5; 7; 7; 9; 9 ] (Rbtree.snapshot ds))

(* ---- copy ---- *)

let copy_preserves (type h) (module Ds : Seqds.Ds_intf.S with type handle = h)
    ~gen_op () =
  with_ds (module Ds) (fun ds _m ->
      let rng = Sim.Rng.create 123L in
      for _ = 1 to 500 do
        let op, args = gen_op rng in
        ignore (Ds.execute ds ~op ~args)
      done;
      let dup = Ds.copy ds in
      check_list (Ds.name ^ " copy equal") (Ds.snapshot ds) (Ds.snapshot dup);
      (* mutating the copy must not disturb the original *)
      let before = Ds.snapshot ds in
      let op, args = gen_op rng in
      ignore (Ds.execute dup ~op ~args);
      check_list (Ds.name ^ " original unchanged") before (Ds.snapshot ds))

let test_copy_hashmap () = copy_preserves (module Hashmap) ~gen_op:(map_op 100) ()
let test_copy_rbtree () = copy_preserves (module Rbtree) ~gen_op:(map_op 100) ()
let test_copy_stack () = copy_preserves (module Stack_ds) ~gen_op:stack_op ()
let test_copy_queue () = copy_preserves (module Queue_ds) ~gen_op:queue_op ()
let test_copy_pqueue () = copy_preserves (module Pqueue) ~gen_op:pq_op ()
let test_copy_skiplist () = copy_preserves (module Skiplist) ~gen_op:(map_op 100) ()

(* ---- clone contract (Ds_intf.copy) for the keyed maps ----

   A copy is a shape-preserving clone: equal contents, the source's own
   layout (same tree shape and colours, same bucket capacity and chain
   order, same tower heights and links), independent nodes, and a number
   of memory operations linear in the size. The mixes below grow the
   hashmap through several resizes and shrink every map again. *)

(* cost-free structural fingerprints, straight off each layout *)
let rbtree_shape m h =
  let sentinel = Memory.peek m (h + 2) in
  let rec walk acc n =
    if n = sentinel then -1 :: acc
    else
      let acc = Memory.peek m n :: Memory.peek m (n + 2) :: acc in
      walk (walk acc (Memory.peek m (n + 3))) (Memory.peek m (n + 4))
  in
  Memory.peek m (h + 1) :: walk [] (Memory.peek m h)

let hashmap_shape m h =
  let table = Memory.peek m h and capacity = Memory.peek m (h + 1) in
  let rec chain acc n =
    if n = Memory.null then -1 :: acc
    else chain (Memory.peek m n :: acc) (Memory.peek m (n + 2))
  in
  capacity :: Memory.peek m (h + 2)
  :: List.concat_map
       (fun b -> chain [] (Memory.peek m (table + b)))
       (List.init capacity Fun.id)

let skiplist_shape m h =
  let head = Memory.peek m h in
  let rec chain level acc n =
    if n = Memory.null then -1 :: acc
    else chain level (Memory.peek m n :: acc) (Memory.peek m (n + 3 + level))
  in
  Memory.peek m (h + 1)
  :: List.concat_map
       (fun level -> chain level [] (Memory.peek m (head + 3 + level)))
       (List.init Skiplist.max_height Fun.id)

(* an insert-heavy growth phase, then a remove-heavy shrink phase *)
let grow_and_shrink (type h m)
    (module Ds : Seqds.Ds_intf.S with type handle = h and type Model.m = m) ds
    rng ~keyspace ~steps =
  let biased pct_insert rng =
    let k = Sim.Rng.int rng keyspace in
    if Sim.Rng.int rng 100 < pct_insert then
      (Hashmap.op_insert, [| k; Sim.Rng.int rng 1000 |])
    else (Hashmap.op_remove, [| k |])
  in
  let grown =
    drive_with_model (module Ds) ds Ds.Model.empty rng ~gen_op:(biased 85)
      ~steps "growth"
  in
  drive_with_model (module Ds) ds grown rng ~gen_op:(biased 35) ~steps "shrink"

let clone_contract (type h m)
    (module Ds : Seqds.Ds_intf.S with type handle = h and type Model.m = m)
    ~shape ~invariants () =
  List.iter
    (fun seed ->
      with_ds (module Ds) (fun src m ->
          let rng = Sim.Rng.create seed in
          let model =
            grow_and_shrink (module Ds) src rng ~keyspace:600 ~steps:1200
          in
          let dup = Ds.copy src in
          check_list (Ds.name ^ " copy snapshot") (Ds.snapshot src)
            (Ds.snapshot dup);
          check_list (Ds.name ^ " copy keeps the source's shape")
            (shape m (Ds.root_addr src)) (shape m (Ds.root_addr dup));
          invariants dup;
          (* independence: each side follows its own model from here *)
          ignore
            (drive_with_model (module Ds) dup model (Sim.Rng.create 1L)
               ~gen_op:(map_op 600) ~steps:400 "copy after writes");
          ignore
            (drive_with_model (module Ds) src model (Sim.Rng.create 2L)
               ~gen_op:(map_op 600) ~steps:400 "source after writes");
          invariants dup;
          invariants src))
    [ 31L; 32L; 33L ]

(* a copy into NVM is durable once its heap is: persist_heap, power
   failure, attach at the root recovers it intact *)
let clone_into_nvm (type h m)
    (module Ds : Seqds.Ds_intf.S with type handle = h and type Model.m = m)
    ~invariants () =
  Sim.run_one (fun () ->
      let m = Memory.make ~bg_period:0 () in
      let vol = Alloc.create_volatile m ~home:0 in
      let pers = Alloc.create_persistent m ~home:0 in
      Context.bind ~default:vol ~persistent:pers ();
      let src = Ds.create m in
      let model =
        grow_and_shrink (module Ds) src (Sim.Rng.create 41L) ~keyspace:400
          ~steps:800
      in
      let dup = Context.with_persistent (fun () -> Ds.copy src) in
      Alloc.persist_heap pers;
      let root = Ds.root_addr dup in
      Memory.crash m;
      Context.reset ();
      Context.bind
        ~default:(Alloc.create_volatile m ~home:0)
        ~persistent:(Alloc.create_persistent m ~home:0) ();
      let recovered = Ds.attach m root in
      check_list (Ds.name ^ " NVM copy survives a crash")
        (Ds.Model.snapshot model) (Ds.snapshot recovered);
      invariants recovered;
      ignore
        (drive_with_model (module Ds) recovered model (Sim.Rng.create 3L)
           ~gen_op:(map_op 400) ~steps:300 "recovered copy");
      Context.reset ())

(* ---- split copies ([Context.fork]) ----

   A red-black tree of one arena or more copies across the fiber's
   helper cores. Under 1 to 8 helpers, on trees of 1 to 5 arenas, and
   under 10 helpers on a 4.4-arena tree (8 parts, each over half an
   arena), the split copy must run on one fiber per half arena of nodes,
   up to its fan-out, and be the one-fiber copy again: the same snapshot
   and shape (colours, child and parent links), the red-black
   invariants, no node shared with the source, and every node in an
   arena the caller's allocator owns once the copy returns. A part whose
   share of the nodes is under one arena fills its sub-heap's one arena
   and spills into no second, so the copy owns exactly one arena per
   part. *)

(* every node of the tree at [h], sentinel excluded, cost-free *)
let rbtree_nodes m h =
  let sentinel = Memory.peek m (h + 2) in
  let rec walk acc n =
    if n = sentinel then acc
    else walk (walk (n :: acc) (Memory.peek m (n + 3))) (Memory.peek m (n + 4))
  in
  walk [] (Memory.peek m h)

let check_parent_links label m h =
  let sentinel = Memory.peek m (h + 2) in
  let root = Memory.peek m h in
  if root <> sentinel && Memory.peek m (root + 5) <> sentinel then
    Alcotest.failf "%s: root's parent is not the sentinel" label;
  List.iter
    (fun n ->
      List.iter
        (fun c ->
          if c <> sentinel && Memory.peek m (c + 5) <> n then
            Alcotest.failf "%s: node %d's parent link is wrong" label c)
        [ Memory.peek m (n + 3); Memory.peek m (n + 4) ])
    (rbtree_nodes m h)

let test_rbtree_split_copy () =
  Sim.run_one (fun () ->
      let m = Memory.make ~bg_period:0 () in
      let src_alloc = Alloc.create_volatile m ~home:0 in
      Context.bind ~default:src_alloc ();
      let src = Rbtree.create m in
      let rng = Sim.Rng.create 77L in
      List.iter
        (fun (tenths, helpers) ->
          (* grow the source just past [tenths / 10] arenas of nodes *)
          let want =
            (tenths * Memory.arena_words / 10 / Rbtree.node_words) + 1
          in
          while Rbtree.execute src ~op:Rbtree.op_size ~args:[||] < want do
            ignore
              (Rbtree.execute src ~op:Rbtree.op_insert
                 ~args:[| Sim.Rng.int rng 1_000_000_000; Sim.Rng.int rng 1000 |])
          done;
          let h = Rbtree.root_addr src in
          let src_nodes = rbtree_nodes m h in
          (* the copy's allocator, its root, and how many fibers it ran on *)
          let copy_with k =
            let alloc = Alloc.create_volatile m ~home:0 in
            Context.set_default alloc;
            let fibers = Hashtbl.create 16 in
            Memory.set_access_hook m (fun _ _ _ _ ->
                Hashtbl.replace fibers (Sim.self ()).Sim.fid ());
            let dup =
              Context.with_helpers
                (List.init k (fun i -> (0, i + 1)))
                (fun () -> Rbtree.copy src)
            in
            Memory.clear_access_hook m;
            Context.set_default src_alloc;
            (alloc, Rbtree.root_addr dup, Hashtbl.length fibers)
          in
          let _, one, _ = copy_with 0 in
          let one_shape = rbtree_shape m one in
          check_list "one-fiber copy keeps the source's shape"
            (rbtree_shape m h) one_shape;
          List.iter (fun k ->
            let label =
              Printf.sprintf "%d.%d arenas, %d helpers" (tenths / 10)
                (tenths mod 10) k
            in
            let alloc, dup, fibers = copy_with k in
            let dup_t = Rbtree.attach m dup in
            check_list (label ^ ": snapshot") (Rbtree.snapshot src)
              (Rbtree.snapshot dup_t);
            check_list (label ^ ": shape") one_shape (rbtree_shape m dup);
            check_parent_links label m dup;
            Rbtree.check_invariants dup_t;
            let nodes =
              dup :: Memory.peek m (dup + 2) :: rbtree_nodes m dup
            in
            let src_set = Hashtbl.create 4096 in
            List.iter (fun n -> Hashtbl.replace src_set n ())
              (h :: Memory.peek m (h + 2) :: src_nodes);
            let owned = Alloc.arenas alloc in
            List.iter
              (fun n ->
                if Hashtbl.mem src_set n then
                  Alcotest.failf "%s: node %d shared with the source" label n;
                if not (List.mem (n / Memory.arena_words) owned) then
                  Alcotest.failf "%s: node %d in an arena the allocator \
                                  does not own" label n)
              nodes;
            let words = want * Rbtree.node_words in
            let parts = min (k + 1) (2 * words / Memory.arena_words) in
            check (label ^ ": one fiber per half arena") parts fibers;
            if words / parts < Memory.arena_words then
              check (label ^ ": one arena per part") parts
                (List.length owned))
            helpers)
        (let eight = List.init 8 succ in
         [ (10, eight); (20, eight); (30, eight); (40, eight); (44, [ 10 ]);
           (50, eight) ]);
      Context.reset ())

(* Memory operations per key of one copy of an [n]-key map (keys inserted
   in random order). A clone touches each node a constant number of times,
   so the bound holds at 1k and 8k alike; a copy that searches per key
   (O(n log n)) exceeds it. *)
let copy_ops_per_key = 16

let clone_linear (type h) (module Ds : Seqds.Ds_intf.S with type handle = h)
    () =
  List.iter
    (fun n ->
      with_ds (module Ds) (fun src m ->
          let rng = Sim.Rng.create 5L in
          let keys = Array.init n Fun.id in
          for i = n - 1 downto 1 do
            let j = Sim.Rng.int rng (i + 1) in
            let x = keys.(i) in
            keys.(i) <- keys.(j);
            keys.(j) <- x
          done;
          Array.iter (fun k -> Ds.key_put src k k) keys;
          let before = Memory.op_index m in
          ignore (Ds.copy src);
          let ops = Memory.op_index m - before in
          if ops > copy_ops_per_key * n then
            Alcotest.failf "%s: copy of %d keys took %d memory ops (> %d per key)"
              Ds.name n ops copy_ops_per_key))
    [ 1_000; 8_000 ]

let no_invariants _ = ()

(* ---- key_get: the incremental checkpoint's per-key read ----

   [op_get] answers [-1] for an absent key, but [-1] is also a value the
   maps store (sharded transfers drive balances negative). [key_get]
   must tell the two apart, or the checkpoint records the key as deleted. *)

let key_get_exact (type h) (module Ds : Seqds.Ds_intf.S with type handle = h)
    () =
  with_ds (module Ds) (fun ds _m ->
      let got = Alcotest.(check (option int)) in
      Ds.key_put ds 5 (-1);
      Ds.key_put ds 6 (-7);
      got (Ds.name ^ ": stored -1") (Some (-1)) (Ds.key_get ds 5);
      got (Ds.name ^ ": stored -7") (Some (-7)) (Ds.key_get ds 6);
      got (Ds.name ^ ": absent") None (Ds.key_get ds 9);
      ignore (Ds.execute ds ~op:Hashmap.op_remove ~args:[| 5 |]);
      got (Ds.name ^ ": removed") None (Ds.key_get ds 5))

(* ---- persistence through the DS: flushed structure recovers ---- *)

let test_hashmap_in_nvm_recovers_when_flushed () =
  Sim.run_one (fun () ->
      let m = Memory.make ~bg_period:0 () in
      let vol = Alloc.create_volatile m ~home:0 in
      let pers = Alloc.create_persistent m ~home:0 in
      Context.bind ~default:vol ~persistent:pers ();
      let ds =
        Context.with_persistent (fun () ->
            let ds = Hashmap.create m in
            for k = 0 to 99 do
              ignore (Hashmap.execute ds ~op:Hashmap.op_insert ~args:[| k; k + 1 |])
            done;
            ds)
      in
      (* persist the whole NVM heap, as a PUC would for a checkpoint *)
      Alloc.persist_heap pers;
      let root = Hashmap.root_addr ds in
      Memory.crash m;
      let recovered = Hashmap.attach m root in
      for k = 0 to 99 do
        check "recovered get"
          (k + 1)
          (Hashmap.execute recovered ~op:Hashmap.op_get ~args:[| k |])
      done;
      Context.reset ())

let test_unflushed_nvm_structure_corrupts_on_crash () =
  Sim.run_one (fun () ->
      let m = Memory.make ~bg_period:0 () in
      let vol = Alloc.create_volatile m ~home:0 in
      let pers = Alloc.create_persistent m ~home:0 in
      Context.bind ~default:vol ~persistent:pers ();
      let ds =
        Context.with_persistent (fun () ->
            let ds = Hashmap.create m in
            for k = 0 to 99 do
              ignore (Hashmap.execute ds ~op:Hashmap.op_insert ~args:[| k; k |])
            done;
            ds)
      in
      let root = Hashmap.root_addr ds in
      Memory.crash m;
      (* nothing was flushed: the recovered root block is all zeros *)
      check "table pointer lost" 0 (Memory.peek m root);
      Context.reset ())

(* ---- model-based crash paths ----

   The crash-path contract every PUC leans on, checked per structure
   against the pure model: ops up to a checkpoint survive a crash
   bit-exactly, ops after the checkpoint are taken away *exactly* (the
   coherent view loses precisely the unpersisted suffix), and the
   recovered structure keeps agreeing with the model under further
   updates — a recovered heap must be indistinguishable from a fresh
   one. *)

let crash_path_agrees (type h)
    (module Ds : Seqds.Ds_intf.S with type handle = h) ~gen_op ~steps seed =
  Sim.run_one (fun () ->
      let m = Memory.make ~bg_period:0 () in
      let vol = Alloc.create_volatile m ~home:0 in
      let pers = Alloc.create_persistent m ~home:0 in
      Context.bind ~default:vol ~persistent:pers ();
      let rng = Sim.Rng.create seed in
      let model = ref Ds.Model.empty in
      let drive ds n phase =
        for step = 1 to n do
          let op, args = gen_op rng in
          let got = Context.with_persistent (fun () -> Ds.execute ds ~op ~args) in
          let model', expected = Ds.Model.apply !model ~op ~args in
          model := model';
          if got <> expected then
            Alcotest.failf "%s: %s step %d op %d: got %d, model says %d"
              Ds.name phase step op got expected
        done
      in
      let ds = Context.with_persistent (fun () -> Ds.create m) in
      drive ds steps "pre-checkpoint";
      (* checkpoint: persist the whole NVM heap, as a PUC does every
         epsilon ops for its stable replica *)
      Alloc.persist_heap pers;
      let checkpoint = !model in
      let root = Ds.root_addr ds in
      (* unpersisted tail: more ops, nothing flushed, then power failure *)
      drive ds (steps / 2) "post-checkpoint";
      Memory.crash m;
      Context.reset ();
      (* next incarnation: fresh allocators over the surviving media *)
      let vol' = Alloc.create_volatile m ~home:0 in
      let pers' = Alloc.create_persistent m ~home:0 in
      Context.bind ~default:vol' ~persistent:pers' ();
      let recovered = Ds.attach m root in
      check_list
        (Ds.name ^ " crash keeps checkpoint, loses unpersisted tail")
        (Ds.Model.snapshot checkpoint)
        (Ds.snapshot recovered);
      (* the recovered structure must stay model-correct under updates *)
      model := checkpoint;
      drive recovered steps "post-recovery";
      check_list
        (Ds.name ^ " post-recovery snapshot agrees")
        (Ds.Model.snapshot !model)
        (Ds.snapshot recovered);
      Context.reset ())

let test_crash_path_pqueue () =
  crash_path_agrees (module Pqueue) ~gen_op:pq_op ~steps:400 21L

let test_crash_path_rbtree () =
  crash_path_agrees (module Rbtree) ~gen_op:(map_op 100) ~steps:400 22L

let test_crash_path_skiplist () =
  crash_path_agrees (module Skiplist) ~gen_op:(map_op 100) ~steps:400 23L

(* ---- qcheck properties ---- *)

let ops_arbitrary =
  (* encoded map ops: (kind, key, value) triples *)
  QCheck.(small_list (triple (int_bound 4) (int_bound 50) (int_bound 100)))

let run_encoded (type h) (module Ds : Seqds.Ds_intf.S with type handle = h)
    ~insert ~remove ~get encoded =
  with_ds (module Ds) (fun ds _m ->
      let model = ref Ds.Model.empty in
      List.for_all
        (fun (kind, k, v) ->
          let op, args =
            if kind <= 1 then (insert, [| k; v |])
            else if kind = 2 then (remove, [| k |])
            else (get, [| k |])
          in
          let got = Ds.execute ds ~op ~args in
          let model', expected = Ds.Model.apply !model ~op ~args in
          model := model';
          got = expected)
        encoded)

let prop_hashmap_model =
  QCheck.Test.make ~count:100 ~name:"hashmap agrees with map model"
    ops_arbitrary
    (run_encoded (module Hashmap) ~insert:Hashmap.op_insert
       ~remove:Hashmap.op_remove ~get:Hashmap.op_get)

let prop_rbtree_model =
  QCheck.Test.make ~count:100 ~name:"rbtree agrees with map model"
    ops_arbitrary
    (run_encoded (module Rbtree) ~insert:Rbtree.op_insert
       ~remove:Rbtree.op_remove ~get:Rbtree.op_get)

let prop_skiplist_model =
  QCheck.Test.make ~count:100 ~name:"skiplist agrees with map model"
    ops_arbitrary
    (run_encoded (module Skiplist) ~insert:Skiplist.op_insert
       ~remove:Skiplist.op_remove ~get:Skiplist.op_get)

let prop_rbtree_invariants =
  QCheck.Test.make ~count:100 ~name:"rbtree invariants hold"
    ops_arbitrary
    (fun encoded ->
      with_ds (module Rbtree) (fun ds _m ->
          List.iter
            (fun (kind, k, v) ->
              if kind <= 2 then
                ignore (Rbtree.execute ds ~op:Rbtree.op_insert ~args:[| k; v |])
              else ignore (Rbtree.execute ds ~op:Rbtree.op_remove ~args:[| k |]);
              Rbtree.check_invariants ds)
            encoded;
          true))

let prop_pqueue_dequeues_descending =
  QCheck.Test.make ~count:100 ~name:"pqueue dequeues in descending order"
    QCheck.(small_list (int_bound 10_000))
    (fun keys ->
      with_ds (module Pqueue) (fun ds _m ->
          List.iter
            (fun k -> ignore (Pqueue.execute ds ~op:Pqueue.op_enqueue ~args:[| k |]))
            keys;
          let rec drain acc =
            let v = Pqueue.execute ds ~op:Pqueue.op_dequeue ~args:[||] in
            if v = -1 then List.rev acc else drain (v :: acc)
          in
          let drained = drain [] in
          drained = List.sort (fun a b -> compare b a) keys))

let prop_stack_lifo =
  QCheck.Test.make ~count:100 ~name:"stack is LIFO"
    QCheck.(small_list (int_bound 10_000))
    (fun keys ->
      with_ds (module Stack_ds) (fun ds _m ->
          List.iter
            (fun k -> ignore (Stack_ds.execute ds ~op:Stack_ds.op_push ~args:[| k |]))
            keys;
          let rec drain acc =
            let v = Stack_ds.execute ds ~op:Stack_ds.op_pop ~args:[||] in
            if v = -1 then List.rev acc else drain (v :: acc)
          in
          drain [] = List.rev keys))

let prop_queue_fifo =
  QCheck.Test.make ~count:100 ~name:"queue is FIFO"
    QCheck.(small_list (int_bound 10_000))
    (fun keys ->
      with_ds (module Queue_ds) (fun ds _m ->
          List.iter
            (fun k ->
              ignore (Queue_ds.execute ds ~op:Queue_ds.op_enqueue ~args:[| k |]))
            keys;
          let rec drain acc =
            let v = Queue_ds.execute ds ~op:Queue_ds.op_dequeue ~args:[||] in
            if v = -1 then List.rev acc else drain (v :: acc)
          in
          drain [] = keys))

let () =
  Alcotest.run "seqds"
    [
      ( "model-agreement",
        [
          Alcotest.test_case "hashmap" `Quick test_hashmap_model;
          Alcotest.test_case "rbtree" `Quick test_rbtree_model;
          Alcotest.test_case "stack" `Quick test_stack_model;
          Alcotest.test_case "queue" `Quick test_queue_model;
          Alcotest.test_case "pqueue" `Quick test_pqueue_model;
          Alcotest.test_case "skiplist" `Quick test_skiplist_model;
        ] );
      ( "skiplist",
        [ Alcotest.test_case "invariants random" `Quick test_skiplist_invariants ] );
      ( "hashmap",
        [
          Alcotest.test_case "resize" `Quick test_hashmap_resize;
          Alcotest.test_case "update in place" `Quick test_hashmap_update_in_place;
        ] );
      ( "rbtree",
        [
          Alcotest.test_case "invariants random" `Quick test_rbtree_invariants_random;
          Alcotest.test_case "sorted snapshot" `Quick test_rbtree_sorted_snapshot;
        ] );
      ( "key_get",
        [
          Alcotest.test_case "hashmap exact" `Quick
            (key_get_exact (module Hashmap));
          Alcotest.test_case "rbtree exact" `Quick
            (key_get_exact (module Rbtree));
          Alcotest.test_case "skiplist exact" `Quick
            (key_get_exact (module Skiplist));
        ] );
      ( "copy",
        [
          Alcotest.test_case "hashmap" `Quick test_copy_hashmap;
          Alcotest.test_case "rbtree" `Quick test_copy_rbtree;
          Alcotest.test_case "stack" `Quick test_copy_stack;
          Alcotest.test_case "queue" `Quick test_copy_queue;
          Alcotest.test_case "pqueue" `Quick test_copy_pqueue;
          Alcotest.test_case "skiplist" `Quick test_copy_skiplist;
        ] );
      ( "clone",
        [
          Alcotest.test_case "hashmap shape and independence" `Quick
            (clone_contract (module Hashmap) ~shape:hashmap_shape
               ~invariants:no_invariants);
          Alcotest.test_case "rbtree shape and independence" `Quick
            (clone_contract (module Rbtree) ~shape:rbtree_shape
               ~invariants:Rbtree.check_invariants);
          Alcotest.test_case "skiplist shape and independence" `Quick
            (clone_contract (module Skiplist) ~shape:skiplist_shape
               ~invariants:Skiplist.check_invariants);
          Alcotest.test_case "hashmap into NVM survives a crash" `Quick
            (clone_into_nvm (module Hashmap) ~invariants:no_invariants);
          Alcotest.test_case "rbtree into NVM survives a crash" `Quick
            (clone_into_nvm (module Rbtree) ~invariants:Rbtree.check_invariants);
          Alcotest.test_case "skiplist into NVM survives a crash" `Quick
            (clone_into_nvm (module Skiplist)
               ~invariants:Skiplist.check_invariants);
          Alcotest.test_case "hashmap linear" `Quick (clone_linear (module Hashmap));
          Alcotest.test_case "rbtree linear" `Quick (clone_linear (module Rbtree));
          Alcotest.test_case "rbtree split across helpers" `Quick
            test_rbtree_split_copy;
          Alcotest.test_case "skiplist linear" `Quick
            (clone_linear (module Skiplist));
        ] );
      ( "persistence",
        [
          Alcotest.test_case "flushed structure recovers" `Quick
            test_hashmap_in_nvm_recovers_when_flushed;
          Alcotest.test_case "unflushed structure lost" `Quick
            test_unflushed_nvm_structure_corrupts_on_crash;
          Alcotest.test_case "crash path: pqueue" `Quick test_crash_path_pqueue;
          Alcotest.test_case "crash path: rbtree" `Quick test_crash_path_rbtree;
          Alcotest.test_case "crash path: skiplist" `Quick
            test_crash_path_skiplist;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_hashmap_model;
          QCheck_alcotest.to_alcotest prop_rbtree_model;
          QCheck_alcotest.to_alcotest prop_skiplist_model;
          QCheck_alcotest.to_alcotest prop_rbtree_invariants;
          QCheck_alcotest.to_alcotest prop_pqueue_dequeues_descending;
          QCheck_alcotest.to_alcotest prop_stack_lifo;
          QCheck_alcotest.to_alcotest prop_queue_fifo;
        ] );
    ]
