(* Tests for the simulated NVM: cache model, persistence instructions,
   crash semantics, allocators, allocator-swap context, roots. *)

open Nvm

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Fresh memory with background flushes disabled unless a test wants them. *)
let fresh ?(bg_period = 0) () = Memory.make ~bg_period ()

let in_sim f = Sim.run_one f

(* ---- basic load/store ---- *)

let test_read_write () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Dram ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 123;
      check "read back" 123 (Memory.read m a);
      check "uninitialised is zero" 0 (Memory.read m (a + 1)))

let test_cas_semantics () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Dram ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 5;
      check_bool "cas succeeds" true (Memory.cas m a ~expected:5 ~desired:9);
      check "new value" 9 (Memory.read m a);
      check_bool "cas fails" false (Memory.cas m a ~expected:5 ~desired:11);
      check "unchanged" 9 (Memory.read m a))

let test_faa () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Dram ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      check "faa returns old" 0 (Memory.faa m a 3);
      check "faa returns old 2" 3 (Memory.faa m a 4);
      check "value" 7 (Memory.read m a))

(* ---- block loads ---- *)

(* Four arenas, DRAM and NVM homed on each socket, every word non-zero and
   every line cleaned by WBINVD, then every third line dirtied again: a
   span over any of them mixes local and remote, DRAM and NVM, dirty and
   clean lines. Runs on socket 0. *)
let block_arenas m =
  let arenas =
    List.map
      (fun (kind, home) -> Memory.new_arena m ~kind ~home)
      [ (Memory.Dram, 0); (Memory.Nvm, 0); (Memory.Dram, 1); (Memory.Nvm, 1) ]
  in
  let words = 8 * Memory.line_words in
  List.iter
    (fun aid ->
      for off = 0 to words - 1 do
        Memory.write m (Memory.addr_of ~aid ~offset:off) (1 + (aid * 1000) + off)
      done)
    arenas;
  Memory.wbinvd ~site:Persist.Test m;
  List.iter
    (fun aid ->
      for line = 0 to 7 do
        if line mod 3 = 0 then begin
          let a = Memory.addr_of ~aid ~offset:(line * Memory.line_words) in
          Memory.write m a (Memory.peek m a)
        end
      done)
    arenas;
  arenas

(* every (start, length) of 1 to 17 words from the first two lines: spans
   of one, two and three lines *)
let block_spans aid =
  List.concat_map
    (fun off ->
      List.init 17 (fun i -> (Memory.addr_of ~aid ~offset:(off + 8), i + 1)))
    (List.init 16 Fun.id)

let lines_of addr n =
  let lw = Memory.line_words in
  List.init (((addr + n - 1) / lw) - (addr / lw) + 1) (fun i -> ((addr / lw) + i) * lw)

let test_read_words_values_and_charge () =
  in_sim (fun () ->
      let m = fresh () in
      List.iter
        (fun aid ->
          List.iter
            (fun (addr, n) ->
              let i0 = Memory.op_index m and t0 = Sim.now () in
              let got = Memory.read_words m addr n in
              let charged = Sim.now () - t0 in
              check "one op point" (i0 + 1) (Memory.op_index m);
              Alcotest.(check (array int)) "what peek sees"
                (Array.init n (fun i -> Memory.peek m (addr + i)))
                got;
              (* one word load per spanned line, each charged by [read] *)
              let t1 = Sim.now () in
              List.iter (fun l -> ignore (Memory.read m l)) (lines_of addr n);
              check "charge = one read per line" (Sim.now () - t1) charged)
            (block_spans aid))
        (block_arenas m))

let test_read_words_hook () =
  in_sim (fun () ->
      let m = fresh () in
      let arenas = block_arenas m in
      let calls = ref [] in
      Memory.set_access_hook m (fun key addr write v ->
          calls := (key, addr, write, v) :: !calls);
      let load addr n =
        calls := [];
        ignore (Memory.read_words m addr n);
        List.rev !calls
      in
      List.iter
        (fun aid ->
          List.iter
            (fun (addr, n) ->
              let before = load addr n in
              let lines = lines_of addr n in
              check "one call per line" (List.length lines) (List.length before);
              List.iter2
                (fun l (key, a, write, _) ->
                  let off = Memory.offset_of_addr l in
                  check "the line's key"
                    (Memory.dirty_key aid (Memory.line_of_offset off)) key;
                  check "line-granular" (-1) a;
                  check_bool "a load" false write)
                lines before;
              (* changing any one word of a spanned line, even one outside
                 the span, changes that line's hashed value *)
              List.iteri
                (fun j l ->
                  for w = 0 to Memory.line_words - 1 do
                    let a = l + w in
                    let old = Memory.peek m a in
                    Memory.write m a (old + 1);
                    let key, _, _, v = List.nth (load addr n) j in
                    let key0, _, _, v0 = List.nth before j in
                    check "same line" key0 key;
                    check_bool "value sees the word" true (v <> v0);
                    Memory.write m a old
                  done)
                lines)
            (block_spans aid))
        arenas;
      Memory.clear_access_hook m)

(* ---- persistence semantics ---- *)

let test_unflushed_write_lost_on_crash () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 77;
      Memory.crash m;
      check "lost" 0 (Memory.peek m a))

let test_clwb_alone_not_durable () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 77;
      Memory.clwb ~site:Persist.Test m a;
      (* no fence: the write-back is still pending *)
      Memory.crash m;
      check "clwb without sfence lost" 0 (Memory.peek m a))

let test_clwb_sfence_durable () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 77;
      Memory.clwb ~site:Persist.Test m a;
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      check "durable" 77 (Memory.peek m a))

let test_clflush_durable_immediately () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 42;
      Memory.clflush ~site:Persist.Test m a;
      Memory.crash m;
      check "durable" 42 (Memory.peek m a))

let test_clwb_captures_at_call_time () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 1;
      Memory.clwb ~site:Persist.Test m a;
      Memory.write m a 2;
      (* second write re-dirties the line after the clwb captured value 1 *)
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      check "fence persists captured value" 1 (Memory.peek m a))

let test_whole_line_flushed () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let base = Memory.addr_of ~aid ~offset:16 in
      (* two words on the same 8-word line *)
      Memory.write m base 5;
      Memory.write m (base + 3) 6;
      Memory.clflush ~site:Persist.Test m base;
      Memory.crash m;
      check "word 0" 5 (Memory.peek m base);
      check "word 3 same line" 6 (Memory.peek m (base + 3)))

let test_wbinvd_flushes_own_socket_only () =
  let m = fresh () in
  let sim = Sim.create Sim.Topology.default in
  let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
  let a0 = Memory.addr_of ~aid ~offset:8 in
  let a1 = Memory.addr_of ~aid ~offset:1024 in
  (* socket 0 dirties a0; socket 1 dirties a1 and runs WBINVD *)
  ignore (Sim.spawn sim ~socket:0 (fun () -> Memory.write m a0 10));
  ignore
    (Sim.spawn sim ~socket:1 (fun () ->
         Memory.write m a1 20;
         Sim.tick 10_000 (* let socket 0's write land first *);
         Memory.wbinvd ~site:Persist.Test m));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  Memory.crash m;
  check "other socket's line not flushed" 0 (Memory.peek m a0);
  check "own line flushed" 20 (Memory.peek m a1)

let test_dram_gone_after_crash () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Dram ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 99;
      Memory.crash m;
      check "dram zeroed" 0 (Memory.peek m a))

let test_background_flush_persists_sometimes () =
  in_sim (fun () ->
      let m = fresh ~bg_period:10 () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      (* hammer many distinct lines; with mean period 10 some must land *)
      for i = 0 to 499 do
        Memory.write m (Memory.addr_of ~aid ~offset:(8 * (i + 1))) (i + 1)
      done;
      let stats = Memory.stats m in
      check_bool "some background flushes happened" true
        (stats.Memory.bg_flushes > 0);
      Memory.crash m;
      let survived = ref 0 in
      for i = 0 to 499 do
        if Memory.peek m (Memory.addr_of ~aid ~offset:(8 * (i + 1))) = i + 1
        then incr survived
      done;
      check_bool "a strict subset survived" true
        (!survived > 0 && !survived < 500))

let test_crash_resets_coherent_view_to_media () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 1;
      Memory.clflush ~site:Persist.Test m a;
      Memory.write m a 2 (* newer, unflushed *);
      check "coherent view sees 2" 2 (Memory.read m a);
      Memory.crash m;
      check "recovered view sees persisted 1" 1 (Memory.read m a))

let test_flush_arena () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      for i = 1 to 100 do
        Memory.write m (Memory.addr_of ~aid ~offset:(8 * i)) i
      done;
      Memory.flush_arena ~site:Persist.Test m aid;
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      let ok = ref true in
      for i = 1 to 100 do
        if Memory.peek m (Memory.addr_of ~aid ~offset:(8 * i)) <> i then
          ok := false
      done;
      check_bool "all persisted" true !ok)

(* ---- allocator ---- *)

let test_alloc_zeroed_and_disjoint () =
  in_sim (fun () ->
      let m = fresh () in
      let al = Alloc.create_volatile m ~home:0 in
      let a = Alloc.alloc al 10 and b = Alloc.alloc al 10 in
      check_bool "disjoint" true (abs (a - b) >= 10);
      for i = 0 to 9 do
        Memory.write m (a + i) (i + 1)
      done;
      check "b untouched" 0 (Memory.peek m b);
      check_bool "never null" true (a <> Memory.null && b <> Memory.null))

let test_alloc_free_reuse_scrubbed () =
  in_sim (fun () ->
      let m = fresh () in
      let al = Alloc.create_volatile m ~home:0 in
      let a = Alloc.alloc al 4 in
      Memory.write m a 999;
      Alloc.free al a 4;
      let b = Alloc.alloc al 4 in
      check "same block reused" a b;
      check "scrubbed" 0 (Memory.peek m b))

let test_alloc_grows_arenas () =
  in_sim (fun () ->
      let m = fresh () in
      let al = Alloc.create_volatile m ~home:0 in
      let before = Memory.arena_count m in
      (* allocate more than one arena's worth *)
      for _ = 1 to (2 * Memory.arena_words / 128) + 2 do
        ignore (Alloc.alloc al 128)
      done;
      check_bool "new arenas created" true (Memory.arena_count m > before))

(* Child heaps ([Alloc.child]) own no arena: they bump-allocate from
   chunks of their parent's run, a child of a child from its parent's
   chunks, so the root owns every arena any of them allocated in. Their
   blocks are disjoint from each other and from the root's, the root's
   arena tail goes to a chunk rather than to waste, [adopt] adds a
   child's live words only, and only the parent adopts its child. *)
let test_alloc_child_heaps () =
  in_sim (fun () ->
      let m = fresh () in
      let root = Alloc.create_persistent m ~home:0 in
      let c = Alloc.child root in
      let g = Alloc.child c in
      let blocks = ref [] in
      let take al n =
        let a = Alloc.alloc al n in
        blocks := (a, n) :: !blocks
      in
      (* interleaved, past one chunk each and past the root's first
         arena *)
      for i = 1 to 8_000 do
        take root 7;
        take c (1 + (i mod 5));
        if i mod 2 = 0 then take g 9
      done;
      let owned = Alloc.arenas root in
      check "child owns no arena" 0 (List.length (Alloc.arenas c));
      check "grandchild owns no arena" 0 (List.length (Alloc.arenas g));
      check_bool "the root grew" true (List.length owned > 1);
      let sorted = List.sort compare !blocks in
      List.iter
        (fun (a, n) ->
          if not (List.mem (a / Memory.arena_words) owned) then
            Alcotest.failf "block %d in an arena the root does not own" a;
          if a / Memory.arena_words <> (a + n - 1) / Memory.arena_words then
            Alcotest.failf "block %d straddles an arena" a)
        sorted;
      ignore
        (List.fold_left
           (fun last_end (a, n) ->
             if a < last_end then Alcotest.failf "block %d overlaps" a;
             a + n)
           0 sorted);
      let used = List.fold_left (fun acc (_, n) -> acc + n) 0 !blocks in
      check_bool "no arena but the newest left unfilled" true
        ((List.length owned - 1) * Memory.arena_words <= used);
      let live al = Alloc.live_words al in
      let root_own = live root and c_own = live c and g_own = live g in
      Alcotest.check_raises "only the parent adopts"
        (Invalid_argument "Alloc.adopt: another heap's child") (fun () ->
          Alloc.adopt root g);
      Alloc.adopt c g;
      Alloc.adopt root c;
      check "adopt adds live words" (root_own + c_own + g_own) (live root);
      check "adopt adds no arena" (List.length owned)
        (List.length (Alloc.arenas root));
      check "every word accounted" used (live root))

let test_persistent_alloc_addresses_survive () =
  in_sim (fun () ->
      let m = fresh () in
      let al = Alloc.create_persistent m ~home:0 in
      let a = Alloc.alloc al 4 in
      Memory.write m a 31337;
      Memory.clflush ~site:Persist.Test m a;
      Memory.crash m;
      check "persistent data still at same address" 31337 (Memory.peek m a))

(* ---- context / allocator swap ---- *)

let test_context_swap () =
  in_sim (fun () ->
      let m = fresh () in
      let vol = Alloc.create_volatile m ~home:0 in
      let pers = Alloc.create_persistent m ~home:0 in
      Context.bind ~default:vol ~persistent:pers ();
      let a = Context.alloc 4 in
      check_bool "default allocation is DRAM" false (Memory.is_nvm m a);
      let b = Context.with_persistent (fun () -> Context.alloc 4) in
      check_bool "swapped allocation is NVM" true (Memory.is_nvm m b);
      let c = Context.alloc 4 in
      check_bool "flag restored" false (Memory.is_nvm m c);
      Context.reset ())

let test_context_nested_restore () =
  in_sim (fun () ->
      let m = fresh () in
      let vol = Alloc.create_volatile m ~home:0 in
      let pers = Alloc.create_persistent m ~home:0 in
      Context.bind ~default:vol ~persistent:pers ();
      Context.with_persistent (fun () ->
          Context.with_persistent (fun () -> ());
          let a = Context.alloc 4 in
          check_bool "still persistent after inner exit" true
            (Memory.is_nvm m a));
      Context.reset ())

(* ---- roots ---- *)

let test_roots_survive_crash () =
  in_sim (fun () ->
      let m = fresh () in
      let roots = Roots.make m in
      Roots.set roots 1 4242;
      Roots.set_unflushed roots 2 17;
      Memory.crash m;
      check "flushed root recovered" 4242 (Roots.get roots 1);
      check "unflushed root lost" 0 (Roots.get roots 2))

(* A CAS-based lock must provide mutual exclusion *in simulated time*:
   critical-section intervals of different fibers never overlap. This
   guards the scheduler's causality rule (a fiber only executes while it
   is the earliest runnable one). *)
let test_cas_mutual_exclusion_in_sim_time () =
  let m = fresh () in
  let topo = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  let sim = Sim.create ~seed:9L topo in
  let aid = Memory.new_arena m ~kind:Memory.Dram ~home:0 in
  let lock = Memory.addr_of ~aid ~offset:8 in
  let intervals = ref [] in
  for w = 0 to 7 do
    let socket, core = Sim.Topology.place topo w in
    ignore
      (Sim.spawn sim ~socket ~core (fun () ->
           let rng = Sim.fiber_rng () in
           for _ = 1 to 30 do
             while not (Memory.cas m lock ~expected:0 ~desired:1) do
               Sim.spin ()
             done;
             let enter = Sim.now () in
             Sim.tick (50 + Sim.Rng.int rng 300);
             let exit_ = Sim.now () in
             Memory.write m lock 0;
             intervals := (enter, exit_, w) :: !intervals
           done))
  done;
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  let sorted = List.sort compare !intervals in
  let rec no_overlap = function
    | (_, e1, _) :: ((s2, _, _) :: _ as rest) ->
      if s2 < e1 then
        Alcotest.failf "critical sections overlap: exit %d vs enter %d" e1 s2;
      no_overlap rest
    | _ -> ()
  in
  no_overlap sorted;
  check "all critical sections recorded" 240 (List.length sorted)

(* One WPQ model for both flush modes: a capture queued by clwb is dropped
   once a later write of the same line reaches media another way, so the
   next fence cannot write the older contents back over it. *)
let test_fence_keeps_later_commit () =
  List.iter
    (fun (flit, name, commit) ->
      in_sim (fun () ->
          let m = Memory.make ~bg_period:0 ~flit () in
          let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
          let a = Memory.addr_of ~aid ~offset:8 in
          Memory.write m a 1;
          Memory.clwb ~site:Persist.Test m a;
          Memory.write m a 2;
          commit m a;
          Memory.sfence ~site:Persist.Test m;
          let label = Printf.sprintf "%s, flit=%b" name flit in
          check (label ^ ": media holds the later commit") 2
            (Memory.peek_media m a);
          check_bool (label ^ ": line clean") true
            (Memory.dirty_nvm_line_keys m = [])))
    (List.concat_map
       (fun flit ->
         [ (flit, "clflush", fun m a -> Memory.clflush ~site:Persist.Test m a);
           (flit, "wbinvd", fun m _ -> Memory.wbinvd ~site:Persist.Test m) ])
       [ false; true ])

(* ---- FliT flush elimination ---- *)

let fresh_flit ?(bg_period = 0) () = Memory.make ~bg_period ~flit:true ()

let test_flit_clean_clwb_elided () =
  in_sim (fun () ->
      let m = fresh_flit () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 42;
      Memory.clwb ~site:Persist.Test m a;
      Memory.sfence ~site:Persist.Test m;
      let s = Memory.stats m in
      check "first clwb issued" 1 s.Memory.clwb;
      let media_before = Array.init 8 (fun i -> Memory.peek_media m (a - (a mod 8) + i)) in
      let t0 = Sim.now () in
      Memory.clwb ~site:Persist.Test m a;
      let dt = Sim.now () - t0 in
      let media_after = Array.init 8 (fun i -> Memory.peek_media m (a - (a mod 8) + i)) in
      check "clwb on clean line elided" 1 s.Memory.clwb_elided;
      check "no new write-back issued" 1 s.Memory.clwb;
      check_bool "media unchanged" true (media_before = media_after);
      check "tag check is cheap" (Sim.costs ()).Sim.Costs.flush_tag_check dt;
      Memory.crash m;
      check "still durable" 42 (Memory.peek m a))

let test_flit_clwb_coalesces () =
  in_sim (fun () ->
      let m = fresh_flit () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 1;
      Memory.clwb ~site:Persist.Test m a;
      Memory.write m a 2;
      Memory.clwb ~site:Persist.Test m a;
      let s = Memory.stats m in
      check "one real write-back" 1 s.Memory.clwb;
      check "second coalesced into WPQ entry" 1 s.Memory.clwb_coalesced;
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      check "newest capture wins" 2 (Memory.peek m a))

let test_flit_empty_sfence_free () =
  in_sim (fun () ->
      let m = fresh_flit () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      let t0 = Sim.now () in
      Memory.sfence ~site:Persist.Test m;
      check "empty WPQ: no drain cost" 0 (Sim.now () - t0);
      check "counted as elided" 1 (Memory.stats m).Memory.sfence_elided;
      (* a fence with work still pays *)
      Memory.write m a 9;
      Memory.clwb ~site:Persist.Test m a;
      let t1 = Sim.now () in
      Memory.sfence ~site:Persist.Test m;
      check_bool "non-empty WPQ charges" true (Sim.now () - t1 > 0);
      check "real fence counted" 1 (Memory.stats m).Memory.sfence)

let test_flit_clflush_elided_when_persisted () =
  in_sim (fun () ->
      let m = fresh_flit () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 5;
      Memory.clflush ~site:Persist.Test m a;
      Memory.clflush ~site:Persist.Test m a;
      let s = Memory.stats m in
      check "one real clflush" 1 s.Memory.clflush;
      check "second elided" 1 s.Memory.clflush_elided;
      Memory.crash m;
      check "durable" 5 (Memory.peek m a))

let test_flit_no_stale_writeback_regression () =
  (* clwb captures v1; the line is then rewritten and clflushed (v2 on
     media). The stale queued capture must NOT be replayed by the fence:
     committing a line drops its WPQ capture. *)
  in_sim (fun () ->
      let m = fresh_flit () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 1;
      Memory.clwb ~site:Persist.Test m a;
      Memory.write m a 2;
      Memory.clflush ~site:Persist.Test m a;
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      check "media not regressed to stale capture" 2 (Memory.peek m a))

(* A CLWB of a line already in the write-pending queue merges into its
   entry under the baseline flush model too: the discount is the
   queue's, not FliT's. *)
let test_baseline_clwb_coalesces () =
  in_sim (fun () ->
      let m = Memory.make ~bg_period:0 () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 1;
      Memory.clwb ~site:Persist.Test m a;
      Memory.write m a 2;
      let t0 = Sim.now () in
      Memory.clwb ~site:Persist.Test m a;
      let s = Memory.stats m in
      check "one real write-back" 1 s.Memory.clwb;
      check "second coalesced into WPQ entry" 1 s.Memory.clwb_coalesced;
      check "charged the merge" (Sim.costs ()).Sim.Costs.clwb_merge
        (Sim.now () - t0);
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      check "newest capture wins" 2 (Memory.peek m a))

(* Differential property: the same write/flush/fence sequence on a flit
   memory and a baseline memory must persist identical media, and every
   flush instruction must be accounted exactly once (issued, elided or
   coalesced). Both models coalesce into the write-pending queue; only
   FliT elides, so it issues no more real write-backs than the baseline.
   Rounds write a few words, write back touched lines (with duplicates,
   exercising elision) and fence only sometimes (leaving pending
   write-backs for the next round's clwb to coalesce with). *)
let prop_flit_media_matches_baseline =
  QCheck.Test.make ~count:100
    ~name:"flit: media and accounting match baseline across random rounds"
    QCheck.(
      small_list
        (triple (small_list (pair (int_bound 63) (int_bound 1000))) bool bool))
    (fun rounds ->
      Sim.run_one (fun () ->
          let run flit =
            let m = Memory.make ~bg_period:0 ~flit () in
            let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
            let addr off = Memory.addr_of ~aid ~offset:(8 + off) in
            List.iter
              (fun (writes, dup_clwb, fence) ->
                List.iter (fun (off, v) -> Memory.write m (addr off) v) writes;
                let reps = if dup_clwb then 2 else 1 in
                for _ = 1 to reps do
                  List.iter (fun (off, _) -> Memory.clwb ~site:Persist.Test m (addr off)) writes
                done;
                if fence then Memory.sfence ~site:Persist.Test m)
              rounds;
            Memory.crash m;
            let media =
              List.concat_map
                (fun (writes, _, _) ->
                  List.map (fun (off, _) -> Memory.peek m (addr off)) writes)
                rounds
            in
            (media, Memory.stats m)
          in
          let media_b, sb = run false in
          let media_f, sf = run true in
          media_b = media_f
          && sf.Memory.clwb + sf.Memory.clwb_elided + sf.Memory.clwb_coalesced
             = sb.Memory.clwb + sb.Memory.clwb_coalesced
          && sf.Memory.clwb <= sb.Memory.clwb
          && sf.Memory.sfence + sf.Memory.sfence_elided = sb.Memory.sfence
          && sb.Memory.clwb_elided = 0
          && sb.Memory.sfence_elided = 0))

(* ---- property tests ---- *)

let prop_flushed_equals_peek =
  QCheck.Test.make ~count:50 ~name:"flush then crash preserves all writes"
    QCheck.(small_list (pair (int_bound 500) (int_bound 10_000)))
    (fun writes ->
      Sim.run_one (fun () ->
          let m = fresh () in
          let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
          List.iter
            (fun (off, v) ->
              Memory.write m (Memory.addr_of ~aid ~offset:(off + 8)) v)
            writes;
          List.iter
            (fun (off, _) ->
              Memory.clwb ~site:Persist.Test m (Memory.addr_of ~aid ~offset:(off + 8)))
            writes;
          Memory.sfence ~site:Persist.Test m;
          let expected =
            List.map
              (fun (off, _) -> Memory.peek m (Memory.addr_of ~aid ~offset:(off + 8)))
              writes
          in
          Memory.crash m;
          let got =
            List.map
              (fun (off, _) -> Memory.peek m (Memory.addr_of ~aid ~offset:(off + 8)))
              writes
          in
          expected = got))

let prop_alloc_blocks_disjoint =
  QCheck.Test.make ~count:50 ~name:"allocated blocks never overlap"
    QCheck.(small_list (int_range 1 64))
    (fun sizes ->
      Sim.run_one (fun () ->
          let m = fresh () in
          let al = Alloc.create_volatile m ~home:0 in
          let blocks = List.map (fun s -> (Alloc.alloc al s, s)) sizes in
          let rec disjoint = function
            | [] -> true
            | (a, sa) :: rest ->
              List.for_all (fun (b, sb) -> a + sa <= b || b + sb <= a) rest
              && disjoint rest
          in
          disjoint blocks))

let () =
  Alcotest.run "nvm"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_read_write;
          Alcotest.test_case "cas" `Quick test_cas_semantics;
          Alcotest.test_case "faa" `Quick test_faa;
          Alcotest.test_case "read_words values and charge" `Quick
            test_read_words_values_and_charge;
          Alcotest.test_case "read_words hook per line" `Quick
            test_read_words_hook;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "unflushed write lost" `Quick
            test_unflushed_write_lost_on_crash;
          Alcotest.test_case "clwb alone not durable" `Quick
            test_clwb_alone_not_durable;
          Alcotest.test_case "clwb+sfence durable" `Quick test_clwb_sfence_durable;
          Alcotest.test_case "clflush durable" `Quick
            test_clflush_durable_immediately;
          Alcotest.test_case "clwb captures at call time" `Quick
            test_clwb_captures_at_call_time;
          Alcotest.test_case "whole line flushed" `Quick test_whole_line_flushed;
          Alcotest.test_case "wbinvd own socket only" `Quick
            test_wbinvd_flushes_own_socket_only;
          Alcotest.test_case "dram gone after crash" `Quick
            test_dram_gone_after_crash;
          Alcotest.test_case "background flushes" `Quick
            test_background_flush_persists_sometimes;
          Alcotest.test_case "crash resets to media" `Quick
            test_crash_resets_coherent_view_to_media;
          Alcotest.test_case "flush arena" `Quick test_flush_arena;
          Alcotest.test_case "fence keeps later commit, both modes" `Quick
            test_fence_keeps_later_commit;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "zeroed and disjoint" `Quick
            test_alloc_zeroed_and_disjoint;
          Alcotest.test_case "free/reuse scrubbed" `Quick
            test_alloc_free_reuse_scrubbed;
          Alcotest.test_case "grows arenas" `Quick test_alloc_grows_arenas;
          Alcotest.test_case "child heaps carve the root's arenas" `Quick
            test_alloc_child_heaps;
          Alcotest.test_case "persistent addresses survive" `Quick
            test_persistent_alloc_addresses_survive;
        ] );
      ( "causality",
        [
          Alcotest.test_case "cas mutual exclusion in sim time" `Quick
            test_cas_mutual_exclusion_in_sim_time;
        ] );
      ( "context",
        [
          Alcotest.test_case "swap" `Quick test_context_swap;
          Alcotest.test_case "nested restore" `Quick test_context_nested_restore;
        ] );
      ( "roots", [ Alcotest.test_case "survive crash" `Quick test_roots_survive_crash ] );
      ( "flit",
        [
          Alcotest.test_case "clean clwb elided, media invariant" `Quick
            test_flit_clean_clwb_elided;
          Alcotest.test_case "clwb coalesces into pending entry" `Quick
            test_flit_clwb_coalesces;
          Alcotest.test_case "baseline clwb coalesces too" `Quick
            test_baseline_clwb_coalesces;
          Alcotest.test_case "empty sfence free" `Quick
            test_flit_empty_sfence_free;
          Alcotest.test_case "clflush elided when persisted" `Quick
            test_flit_clflush_elided_when_persisted;
          Alcotest.test_case "no stale write-back after clflush" `Quick
            test_flit_no_stale_writeback_regression;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_flushed_equals_peek;
          QCheck_alcotest.to_alcotest prop_alloc_blocks_disjoint;
          QCheck_alcotest.to_alcotest prop_flit_media_matches_baseline;
        ] );
    ]
