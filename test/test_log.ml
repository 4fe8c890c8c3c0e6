(* Unit tests for the shared circular log: emptyBit parity across wraps,
   payload round-trips, durable persistence of entries. *)

open Nvm
open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_log ?(size = 8) ?(durable = false) f =
  Sim.run_one (fun () ->
      let mem = Memory.make ~bg_period:0 () in
      let log = Log.create mem ~size ~durable in
      f mem log)

let test_empty_initially () =
  with_log (fun _mem log ->
      for i = 0 to 7 do
        check_bool "entry empty" false (Log.is_full log i)
      done)

let test_publish_and_read () =
  with_log (fun _mem log ->
      Log.write_payload log 3 ~op:7 ~args:[| 10; 20 |];
      check_bool "not visible before publish" false (Log.is_full log 3);
      Log.publish log 3;
      check_bool "visible after publish" true (Log.is_full log 3);
      let op, args = Log.read_payload log 3 in
      check "op" 7 op;
      Alcotest.(check (array int)) "args" [| 10; 20 |] args)

let test_parity_flips_each_lap () =
  with_log ~size:4 (fun _mem log ->
      (* lap 0: full means 1 *)
      check "lap0 parity" 1 (Log.full_parity log 0);
      check "lap0 parity end" 1 (Log.full_parity log 3);
      (* lap 1: full means 0 *)
      check "lap1 parity" 0 (Log.full_parity log 4);
      (* lap 2: back to 1 *)
      check "lap2 parity" 1 (Log.full_parity log 8))

let test_stale_entry_reads_empty_after_wrap () =
  with_log ~size:4 (fun _mem log ->
      (* publish index 1 on lap 0 *)
      Log.write_payload log 1 ~op:1 ~args:[||];
      Log.publish log 1;
      check_bool "published on lap 0" true (Log.is_full log 1);
      (* index 5 reuses the same slot on lap 1: the stale emptyBit (1)
         means "empty" there, so no clearing is needed *)
      check_bool "lap-1 view is empty" false (Log.is_full log 5);
      Log.write_payload log 5 ~op:2 ~args:[| 9 |];
      Log.publish log 5;
      check_bool "published on lap 1" true (Log.is_full log 5);
      (* and from lap 2's perspective that slot is empty again *)
      check_bool "lap-2 view is empty" false (Log.is_full log 9))

(* [read_entry]'s one line load answers what [is_full], [read_payload] and
   the tag words answer, on every slot of two laps: published, written but
   unpublished, never written (which reads full on odd laps), tagged *)
let test_read_entry_agrees () =
  with_log ~size:4 (fun mem log ->
      let entry idx =
        if Log.is_full log idx then
          let op, args = Log.read_payload log idx in
          let a = Log.entry_addr log idx in
          Some (op, args, (Memory.peek mem (a + 6), Memory.peek mem (a + 7)))
        else None
      in
      let agree label =
        for idx = 0 to 11 do
          let i0 = Memory.op_index mem in
          let got = Log.read_entry log idx in
          check (label ^ ": one load") (i0 + 1) (Memory.op_index mem);
          check_bool (Printf.sprintf "%s: idx %d" label idx) true (got = entry idx)
        done
      in
      Log.write_payload log 0 ~op:7 ~args:[| 10; 20 |];
      Log.publish log 0;
      Log.write_payload log 1 ~op:8 ~args:[| 1 |];
      Log.write_payload log 2 ~op:9 ~args:[| 4; 5; 6 |];
      Log.write_tag log 2 ~tid:3 ~seqno:11;
      Log.publish log 2;
      agree "lap 0";
      check_bool "tagged entry" true
        (Log.read_entry log 2 = Some (9, [| 4; 5; 6 |], (3, 11)));
      (* lap 1: slot 0 republished with a tag, slot 1 published *)
      Log.write_payload log 4 ~op:12 ~args:[||];
      Log.write_tag log 4 ~tid:1 ~seqno:2;
      Log.publish log 4;
      Log.write_payload log 5 ~op:13 ~args:[| 7; 8 |];
      Log.publish log 5;
      agree "lap 1";
      check_bool "odd-lap entry" true
        (Log.read_entry log 5 = Some (13, [| 7; 8 |], (0, 0)));
      check_bool "lap-0 entry is empty on lap 1" true (Log.read_entry log 6 = None))

let test_entry_addresses_wrap () =
  with_log ~size:4 (fun _mem log ->
      check "idx 0 and 4 share a slot" (Log.entry_addr log 0) (Log.entry_addr log 4);
      check_bool "idx 1 differs from idx 0" true
        (Log.entry_addr log 1 <> Log.entry_addr log 0))

let test_durable_entry_survives_crash () =
  with_log ~durable:true (fun mem log ->
      Log.write_payload log 2 ~op:5 ~args:[| 1; 2; 3 |];
      Log.persist_entry log 2;
      Log.fence log;
      Log.publish log 2;
      Log.persist_entry log 2;
      Log.fence log;
      Memory.crash mem;
      check_bool "entry recovered" true (Log.is_full log 2);
      let op, args = Log.read_payload log 2 in
      check "op recovered" 5 op;
      Alcotest.(check (array int)) "args recovered" [| 1; 2; 3 |] args)

let test_unfenced_entry_lost () =
  with_log ~durable:true (fun mem log ->
      Log.write_payload log 2 ~op:5 ~args:[| 1 |];
      Log.persist_entry log 2;
      Log.publish log 2;
      Log.persist_entry log 2;
      (* no fence *)
      Memory.crash mem;
      check_bool "hole after crash" false (Log.is_full log 2))

let test_volatile_log_gone_after_crash () =
  with_log ~durable:false (fun mem log ->
      Log.write_payload log 0 ~op:1 ~args:[||];
      Log.publish log 0;
      Memory.crash mem;
      check_bool "dram log lost" false (Log.is_full log 0))

let test_large_log_spans_arenas () =
  Sim.run_one (fun () ->
      let mem = Memory.make ~bg_period:0 () in
      let size = (2 * Memory.arena_words / Log.entry_words) + 100 in
      let log = Log.create mem ~size ~durable:false in
      (* write entries at both ends and in the middle *)
      List.iter
        (fun i ->
          Log.write_payload log i ~op:i ~args:[| i |];
          Log.publish log i)
        [ 0; size / 2; size - 1 ];
      List.iter
        (fun i ->
          let op, args = Log.read_payload log i in
          check "op round-trip" i op;
          check "arg round-trip" i args.(0))
        [ 0; size / 2; size - 1 ])

let test_max_args_enforced () =
  with_log (fun _mem log ->
      Alcotest.check_raises "too many args"
        (Invalid_argument "Log: too many args") (fun () ->
          Log.write_payload log 0 ~op:0 ~args:[| 1; 2; 3; 4 |]))

let () =
  Alcotest.run "log"
    [
      ( "circular-log",
        [
          Alcotest.test_case "empty initially" `Quick test_empty_initially;
          Alcotest.test_case "publish and read" `Quick test_publish_and_read;
          Alcotest.test_case "parity flips each lap" `Quick test_parity_flips_each_lap;
          Alcotest.test_case "stale entry reads empty" `Quick
            test_stale_entry_reads_empty_after_wrap;
          Alcotest.test_case "entry addresses wrap" `Quick test_entry_addresses_wrap;
          Alcotest.test_case "read_entry agrees" `Quick test_read_entry_agrees;
          Alcotest.test_case "max args enforced" `Quick test_max_args_enforced;
          Alcotest.test_case "spans arenas" `Quick test_large_log_spans_arenas;
        ] );
      ( "durability",
        [
          Alcotest.test_case "durable entry survives" `Quick
            test_durable_entry_survives_crash;
          Alcotest.test_case "unfenced entry lost" `Quick test_unfenced_entry_lost;
          Alcotest.test_case "volatile log gone" `Quick
            test_volatile_log_gone_after_crash;
        ] );
    ]
