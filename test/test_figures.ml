(* Golden-file tests for the figure renderers.

   The renderers in Harness.Figures are pure string functions over canned
   results, so their exact output is pinned against files in
   test/golden/. A formatting change (column width, alignment, header
   text) shows up as a readable diff instead of silently reshaping every
   table in EXPERIMENTS.md.

   To regenerate after an intentional change:
     dune exec test/test_figures.exe -- --regen && dune runtest *)

open Harness

(* Canned Figure-1-style sweep: throughputs chosen to exercise large and
   small magnitudes plus a failed point (the "-" cell). *)
let canned_sweep () =
  Figures.render_sweep
    ~systems:[ "PREP-V"; "GL" ]
    [
      (1, [ Some 1_517_000.; Some 1_489_333.4 ]);
      (8, [ Some 9_102_500.; Some 2_210_000. ]);
      (16, [ Some 14_800_666.7; None ]);
      (23, [ None; Some 987.6 ]);
    ]

(* Canned Figure-3-style epsilon sweep. *)
let canned_eps () =
  Figures.render_eps_table
    [
      (50, Some 2_000_000., Some 400_000.);
      (1600, Some 5_250_000., Some 4_999_999.6);
      (12000, None, Some 5_100_000.);
    ]

(* Canned open-loop load curve: a healthy point, the last pre-knee point
   and a saturated one (p99 blown up, goodput collapsed), so the JSON
   renderer's knee field is exercised as well as the per-point schema. *)
let canned_loadcurve () =
  let hist ~n ~sum ~min ~max ~p50 ~p95 ~p99 =
    Telemetry.Registry.
      { hs_n = n; hs_sum = sum; hs_min = min; hs_max = max;
        hs_p50 = p50; hs_p95 = p95; hs_p99 = p99 }
  in
  let point ~offered ~arrivals ~completed ~backlogged ~qmax ~sojourn =
    Openloop.
      {
        ol_system = "PREP-Buffered";
        ol_workload = "map 90% read, 1024 keys, uniform";
        ol_workers = 4;
        ol_offered = offered;
        ol_arrivals = arrivals;
        ol_completed = completed;
        ol_backlogged = backlogged;
        ol_qmax = qmax;
        ol_sojourn = sojourn;
        ol_duration_ns = 4_000_000;
        ol_throughput = float_of_int completed *. 1e9 /. 4e6;
      }
  in
  Openloop.curve_to_json ~indent:4
    [
      point ~offered:500_000. ~arrivals:2000 ~completed:2000 ~backlogged:0
        ~qmax:2
        ~sojourn:
          (hist ~n:2000 ~sum:24_000_000 ~min:2_048 ~max:65_536 ~p50:8_192
             ~p95:16_384 ~p99:32_768);
      point ~offered:1_000_000. ~arrivals:4000 ~completed:3990 ~backlogged:10
        ~qmax:9
        ~sojourn:
          (hist ~n:4000 ~sum:90_000_000 ~min:2_048 ~max:131_072 ~p50:12_288
             ~p95:49_152 ~p99:98_304);
      point ~offered:2_000_000. ~arrivals:8000 ~completed:5200
        ~backlogged:2800 ~qmax:2805
        ~sojourn:
          (hist ~n:8000 ~sum:4_000_000_000 ~min:2_048 ~max:3_145_728
             ~p50:786_432 ~p95:2_359_296 ~p99:3_145_728);
    ]

let goldens =
  [
    ("golden/table1.txt", Figures.render_table1);
    ("golden/sweep.txt", canned_sweep);
    ("golden/eps_table.txt", canned_eps);
    ("golden/loadcurve.txt", canned_loadcurve);
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let check_golden (path, render) () =
  let got = render () in
  let want =
    try read_file path
    with Sys_error _ ->
      Alcotest.fail
        (Printf.sprintf "golden file %s missing; regenerate with --regen" path)
  in
  if got <> want then
    Alcotest.fail
      (Printf.sprintf
         "%s: rendering drifted from golden file\n--- golden ---\n%s--- got ---\n%s"
         path want got)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--regen" then
    List.iter
      (fun (path, render) ->
        write_file path (render ());
        Printf.printf "wrote %s\n" path)
      goldens
  else
    Alcotest.run "figures"
      [
        ( "golden",
          List.map
            (fun (path, _ as g) ->
              Alcotest.test_case path `Quick (check_golden g))
            goldens );
      ]
