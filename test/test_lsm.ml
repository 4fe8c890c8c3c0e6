(* Model-based tests of the incremental-checkpoint storage engine: the
   sealed-segment format, the per-segment Bloom/occupancy filters, the
   fenced two-slot manifest, and the seal/compact/crash lifecycle driven
   as random scripts against a pure reference map. The full UC-level
   crash battery lives in test_fuzz.ml/test_explore.ml; this file pins
   the storage layer in isolation, including the two crash states the
   fuzzer cannot construct on demand — a torn manifest record and a
   partially-flushed segment body under a durable header. *)

open Nvm
open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let in_sim f = Sim.run_one f

(* Fresh memory + a persistent allocator, bound for the simulated cost
   model. Background flushes off: every durability fact in these tests
   must come from the explicit clwb/sfence discipline under test. *)
let with_store f =
  in_sim (fun () ->
      let mem = Memory.make ~bg_period:0 () in
      Context.bind ~default:(Alloc.create_volatile mem ~home:0) ();
      let pa = Alloc.create_persistent mem ~home:0 in
      let r = f mem pa in
      Context.reset ();
      r)

let build_seg mem pa ~level recs =
  let count = Array.length recs in
  let addr = Alloc.alloc_lines pa (Segment.lines_needed ~count) in
  Segment.build mem ~addr ~level recs

(* ---- segment roundtrip ---- *)

let test_segment_roundtrip () =
  with_store (fun mem pa ->
      let recs = [| (2, 20); (5, Segment.tombstone); (9, 90); (14, 7) |] in
      let m = build_seg mem pa ~level:0 recs in
      (* [build] fences body before header: durable the moment it returns *)
      Memory.crash mem;
      match Segment.mount mem m.Segment.addr with
      | None -> Alcotest.fail "sealed segment failed to mount after crash"
      | Some m' ->
        check "count" m.Segment.count m'.Segment.count;
        check "level" m.Segment.level m'.Segment.level;
        check "min" 2 m'.Segment.min_key;
        check "max" 14 m'.Segment.max_key;
        check_bool "records survive" true (Segment.to_array mem m' = recs);
        check_bool "checksum audit passes" true (Segment.verify mem m');
        check_bool "find hits" true (Segment.find mem m' 9 = Some 90);
        check_bool "find carries tombstone" true
          (Segment.find mem m' 5 = Some Segment.tombstone);
        check_bool "find misses" true (Segment.find mem m' 3 = None))

let test_mount_rejects_unsealed () =
  with_store (fun mem pa ->
      (* an allocated-but-never-built block: all-zero media, no magic *)
      let addr = Alloc.alloc_lines pa (Segment.lines_needed ~count:4) in
      Memory.crash mem;
      check_bool "zeroed block does not mount" true
        (Segment.mount mem addr = None);
      (* a header with the magic but insane fields must not mount either *)
      let addr2 = Alloc.alloc_lines (Alloc.create_persistent mem ~home:0) 4 in
      Memory.write mem addr2 Segment.magic;
      Memory.write mem (addr2 + 1) 0 (* count = 0 *);
      Memory.clwb ~site:Persist.Test mem addr2;
      Memory.sfence ~site:Persist.Test mem;
      Memory.crash mem;
      check_bool "insane header does not mount" true
        (Segment.mount mem addr2 = None))

(* The crash state the seal discipline exists to rule out: a durable
   header over a body that never reached media. Only a build that fences
   the header *before* the body (the planted manifest-before-seal
   ordering, or a buggy port) can produce it; [mount]'s O(1) header check
   accepts it by design, and the O(records) [verify] audit is the tool
   that condemns it. *)
let test_verify_condemns_partially_flushed_body () =
  with_store (fun mem pa ->
      let recs = [| (1, 10); (4, 40); (6, 60) |] in
      let count = Array.length recs in
      let addr = Alloc.alloc_lines pa (Segment.lines_needed ~count) in
      let good = Segment.build mem ~addr ~level:0 recs in
      (* forge the torn state on a second block: copy the sealed header
         (it is self-consistent) but flush only the header line, leaving
         every body word dirty for the crash to drop *)
      let addr2 = Alloc.alloc_lines pa (Segment.lines_needed ~count) in
      for i = 0 to Segment.header_words - 1 do
        Memory.write mem (addr2 + i) (Memory.read mem (addr + i))
      done;
      let body_words = good.Segment.bloom_words + (2 * count) in
      for i = 0 to body_words - 1 do
        Memory.write mem
          (addr2 + Segment.header_words + i)
          (Memory.read mem (addr + Segment.header_words + i))
      done;
      Memory.clwb ~site:Persist.Test mem addr2;
      Memory.sfence ~site:Persist.Test mem;
      Memory.crash mem;
      (match Segment.mount mem addr2 with
       | None -> Alcotest.fail "torn segment should mount (header is sane)"
       | Some torn ->
         check_bool "audit condemns the torn body" false
           (Segment.verify mem torn));
      (* the properly built twin passes the same audit *)
      match Segment.mount mem addr with
      | None -> Alcotest.fail "sealed twin failed to mount"
      | Some m -> check_bool "audit passes sealed twin" true
                    (Segment.verify mem m))

(* ---- Bloom + occupancy filters ---- *)

let test_bloom_no_false_negatives () =
  with_store (fun mem pa ->
      let n = 500 in
      let recs = Array.init n (fun i -> ((i * 13) + 2, i)) in
      let m = build_seg mem pa ~level:0 recs in
      Array.iter
        (fun (k, v) ->
          check_bool "range filter admits present key" true
            (Segment.range_hit m k);
          check_bool "bloom admits present key" true
            (Segment.bloom_hit mem m k);
          check_bool "lookup returns the value" true
            (Segment.lookup mem m k = Some v))
        recs;
      (* the occupancy filter is exact: anything outside [min,max] is
         rejected before a single memory read *)
      check_bool "below range" false (Segment.range_hit m 1);
      check_bool "above range" false (Segment.range_hit m ((n * 13) + 3)))

let test_bloom_fpr_within_analytic_bound () =
  with_store (fun mem pa ->
      (* keys on one residue class; probe absent keys from the other
         classes inside the same [min,max] range so only the Bloom filter
         can reject them. The filter is sized for an analytic fp rate of
         (1 - e^{-probes/bits_per_key})^probes ~ 1.2%; the measured rate
         on this fixed key set must stay within 2x of it. *)
      let n = 2000 in
      let recs = Array.init n (fun i -> (i * 13, i)) in
      let m = build_seg mem pa ~level:0 recs in
      let probes = ref 0 and fp = ref 0 in
      for k = 0 to (n * 13) - 1 do
        if k mod 13 <> 0 then begin
          incr probes;
          if Segment.bloom_hit mem m k then incr fp
        end
      done;
      let rate = float_of_int !fp /. float_of_int !probes in
      let analytic =
        let kf = float_of_int Segment.Bloom.probes in
        let cf = float_of_int Segment.Bloom.bits_per_key in
        (1. -. exp (-.kf /. cf)) ** kf
      in
      if rate > 2. *. analytic then
        Alcotest.failf "bloom fp rate %.4f exceeds 2x analytic %.4f" rate
          analytic;
      (* and the filter is not degenerate (all-ones would also pass the
         no-false-negative property) *)
      check_bool "bloom rejects most absent keys" true (rate < 0.5))

(* ---- memtable model ---- *)

let prop_memtable_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"memtable: drain_sorted equals reference latest-effect map"
    QCheck.(small_list (triple bool (int_bound 30) (int_bound 1000)))
    (fun script ->
      let mt = Segment.Memtable.create () in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (is_put, k, v) ->
          if is_put then begin
            Segment.Memtable.put mt k v;
            Hashtbl.replace reference k v
          end
          else begin
            Segment.Memtable.del mt k;
            Hashtbl.replace reference k Segment.tombstone
          end)
        script;
      let drained = Array.to_list (Segment.Memtable.drain_sorted mt) in
      let expected =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) reference [])
      in
      drained = expected
      && Segment.Memtable.size mt = 0
      && Segment.Memtable.drain_sorted mt = [||])

(* ---- manifest ---- *)

let with_manifest f =
  with_store (fun mem pa -> f mem pa (Manifest.create pa))

let test_manifest_roundtrip_alternates_slots () =
  with_manifest (fun mem _pa man ->
      check_bool "empty manifest loads nothing" true (Manifest.load man = None);
      Manifest.publish man ~epoch:1 ~sealed_lt:3 ~segs:[ 100 ];
      Manifest.publish man ~epoch:2 ~sealed_lt:7 ~segs:[ 200; 100 ];
      Memory.crash mem;
      (match Manifest.load man with
       | Some r ->
         check "epoch" 2 r.Manifest.epoch;
         check "sealed_lt" 7 r.Manifest.sealed_lt;
         check_bool "segs newest-first" true (r.Manifest.segs = [ 200; 100 ])
       | None -> Alcotest.fail "manifest lost after crash");
      (* a third publish overwrites epoch 1's slot, never epoch 2's *)
      Manifest.publish man ~epoch:3 ~sealed_lt:9 ~segs:[ 300; 200; 100 ];
      Memory.crash mem;
      match Manifest.load man with
      | Some r -> check "epoch after reuse" 3 r.Manifest.epoch
      | None -> Alcotest.fail "manifest lost after slot reuse")

let test_torn_manifest_falls_back () =
  with_manifest (fun mem _pa man ->
      Manifest.publish man ~epoch:1 ~sealed_lt:3 ~segs:[ 100 ];
      Manifest.publish man ~epoch:2 ~sealed_lt:7 ~segs:[ 200; 100 ];
      (* forge a crash mid-publish of epoch 3: the new record's fields
         reach media but its checksum write never does (epoch 3 goes to
         slot 1 — the slot epoch 1 occupies, so only the superseded
         record is torn) *)
      let s = Manifest.slot_addr man (3 land 1) in
      Memory.write mem s 3;
      Memory.write mem (s + 1) 11;
      Memory.write mem (s + 2) 1;
      Memory.write mem (s + 3) 999;
      Memory.clwb ~site:Persist.Test mem s;
      Memory.clwb ~site:Persist.Test mem (s + 3);
      Memory.sfence ~site:Persist.Test mem;
      Memory.crash mem;
      match Manifest.load man with
      | Some r ->
        check "fell back to previous epoch" 2 r.Manifest.epoch;
        check "previous sealed_lt" 7 r.Manifest.sealed_lt;
        check_bool "previous segs" true (r.Manifest.segs = [ 200; 100 ])
      | None -> Alcotest.fail "torn slot must not take the valid one down")

(* ---- random write/seal/compact/crash scripts ----

   The store's lifecycle, driven through [Lsm_ckpt] itself against a pure
   reference: puts and deletes accumulate in the store's memtable; SEAL
   drains it with [Lsm_ckpt.seal] into sealed level-0 segments and
   publishes the manifest, promoting the drained effects into the durable
   reference [sealed]; COMPACT runs one production merge ([pick_merge],
   [merge], [apply_pending]): the oldest contiguous run of [fanout]
   same-level segments, newest shadow winning, tombstones dropped only when
   the run reaches the oldest segment; CRASH wipes coherent state and
   remounts with [Lsm_ckpt.mount], and the remounted live view must equal
   [sealed] exactly — nothing sealed may be lost, nothing unsealed may
   survive. *)

type script_op =
  | Put of int * int
  | Del of int
  | Seal
  | Compact
  | Crash

let script_gen =
  QCheck.(
    small_list
      (map
         (fun (c, k, v) ->
           match c with
           | 0 | 1 | 2 -> Put (k, v)
           | 3 -> Del k
           | 4 -> Seal
           | 5 -> Compact
           | _ -> Crash)
         (triple (int_bound 6) (int_bound 40) (int_bound 1000))))

let sorted_of_tbl tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let fanout = 3

(* Runs [script] and returns the number of merges it applied. *)
let run_script script =
  with_store (fun mem pa0 ->
      let pa = ref pa0 in
      let l = ref (Lsm_ckpt.create mem !pa ~fanout) in
      let base = Manifest.base !l.Lsm_ckpt.manifest in
      let sealed = Hashtbl.create 64 (* durable reference *) in
      let merges = ref 0 in
      let seal () =
        let recs = Segment.Memtable.drain_sorted !l.Lsm_ckpt.memtable in
        Lsm_ckpt.seal !l !pa recs ~sealed_lt:0;
        Array.iter
          (fun (k, v) ->
            if v = Segment.tombstone then Hashtbl.remove sealed k
            else Hashtbl.replace sealed k v)
          recs
      in
      (* checkpoint zero: recovery always finds a manifest *)
      seal ();
      let compact () =
        match Lsm_ckpt.pick_merge !l with
        | None -> ()
        | Some run ->
          Lsm_ckpt.merge !l !pa run;
          Lsm_ckpt.apply_pending !l;
          incr merges
      in
      let crash () =
        let epoch = !l.Lsm_ckpt.epoch in
        Memory.crash mem;
        (* allocator bookkeeping is volatile: recovered heaps never reuse
           pre-crash addresses *)
        pa := Alloc.create_persistent mem ~home:0;
        let published =
          match Manifest.load (Manifest.attach mem ~base) with
          | Some r -> r.Manifest.segs
          | None -> Alcotest.fail "manifest lost by crash"
        in
        (* the memtable is volatile: the remount starts without it *)
        l := Lsm_ckpt.mount mem ~base ~fanout ~epoch:None;
        check "no published epoch lost" epoch !l.Lsm_ckpt.epoch;
        check "every published segment mounts" (List.length published)
          (List.length !l.Lsm_ckpt.segs);
        List.iter
          (fun m ->
            check_bool "mounted segment passes audit" true
              (Segment.verify mem m))
          !l.Lsm_ckpt.segs;
        if Lsm_ckpt.peek_live !l <> sorted_of_tbl sealed then
          Alcotest.fail "recovered live view diverged from sealed reference"
      in
      List.iter
        (function
          | Put (k, v) -> Segment.Memtable.put !l.Lsm_ckpt.memtable k v
          | Del k -> Segment.Memtable.del !l.Lsm_ckpt.memtable k
          | Seal -> seal ()
          | Compact -> compact ()
          | Crash -> crash ())
        script;
      (* closing crash: whatever was sealed must be exactly recoverable *)
      crash ();
      !merges)

let prop_scripts_recover_sealed_state =
  QCheck.Test.make ~count:150
    ~name:"random write/seal/compact/crash scripts recover the sealed state"
    script_gen
    (fun script -> run_script script >= 0)

(* a fixed script that provably exercises every arm, so a regression
   cannot hide behind generator luck: the first merge reaches the oldest
   segment and drops key 1's tombstone; the second merges three level-0
   segments above a level-1 one, so key 2's tombstone must survive it or
   the older 21 resurfaces *)
let test_scripted_lifecycle () =
  let script =
    [ Put (1, 10); Put (2, 20); Seal; Put (2, 21); Del 1; Seal;
      Put (3, 30); Seal; Compact; Crash; Put (4, 40); Seal; Del 2; Seal;
      Put (5, 50); Seal; Compact; Crash ]
  in
  check "both merges ran" 2 (run_script script)

let () =
  Alcotest.run "lsm"
    [
      ( "segment",
        [
          Alcotest.test_case "build/mount/find roundtrip survives crash"
            `Quick test_segment_roundtrip;
          Alcotest.test_case "mount rejects unsealed and insane headers"
            `Quick test_mount_rejects_unsealed;
          Alcotest.test_case "verify condemns partially-flushed body" `Quick
            test_verify_condemns_partially_flushed_body;
        ] );
      ( "filters",
        [
          Alcotest.test_case "no false negatives" `Quick
            test_bloom_no_false_negatives;
          Alcotest.test_case "fp rate within 2x analytic" `Quick
            test_bloom_fpr_within_analytic_bound;
        ] );
      ( "memtable",
        [ QCheck_alcotest.to_alcotest prop_memtable_matches_reference ] );
      ( "manifest",
        [
          Alcotest.test_case "publish/load alternates slots" `Quick
            test_manifest_roundtrip_alternates_slots;
          Alcotest.test_case "torn record falls back to previous epoch"
            `Quick test_torn_manifest_falls_back;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "fixed script covers every arm" `Quick
            test_scripted_lifecycle;
          QCheck_alcotest.to_alcotest prop_scripts_recover_sealed_state;
        ] );
    ]
