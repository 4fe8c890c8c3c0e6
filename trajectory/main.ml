(* The trajectory benchmark.

     dune exec trajectory/main.exe -- run --workload NAME [--seed N]
         [--seconds S] [--trace 0|1] [--trace-dir DIR] [--json FILE]
     dune exec trajectory/main.exe -- compare A.json... -- B.json...

   [run] measures one workload (see trajectory/README.md) and prints every
   metric by name and unit, then, as its last line, one JSON object with
   the keys correct, attempted, failed and metrics. Without tracing the
   metrics are the end-to-end ones; [--trace 1] adds a traced copy of the
   run and reports the per-layer ones instead. Any failed check exits 1.
   [compare] sets the [--json] files of two commits side by side against
   the bounds in BENCHMARK.json. *)

let e2e_units =
  [ ("ops_per_s", "ops/s"); ("lat_mean_ns", "ns"); ("lat_p99_ns", "ns");
    ("nvm_writes_per_update", "count"); ("recovery_ns", "ns"); ("setup_s", "s") ]

exception Wedged

let watchdog_s = 150

let usage () =
  prerr_string
    "usage: main.exe run --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \                    [--trace-dir DIR] [--json FILE]\n\
    \       main.exe compare A.json... -- B.json...\n";
  exit 2

let metric_obj l =
  Out.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Out.Obj [ ("value", Out.Num v); ("unit", Out.Str unit) ]))
       l)

let run args =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 in
  let traced = ref false and trace_dir = ref None and json = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> traced := v = "1"; parse rest
    | "--trace-dir" :: v :: rest -> trace_dir := Some v; parse rest
    | "--json" :: v :: rest -> json := Some v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse args with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> Some w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload; expected one of: %s\n"
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
  in
  let ctx =
    { Workloads.seed = !seed; seconds = !seconds; started = Unix.gettimeofday ();
      traced = !traced }
  in
  (* A wedged simulation spins forever on the simulated clock; the alarm
     ends the run well inside the three minutes a run may take. *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Wedged));
  ignore (Unix.alarm watchdog_s);
  let o =
    match Spans.with_span w.Workloads.name (fun () -> w.Workloads.run ctx) with
    | o -> o
    | exception e ->
      let msg =
        match e with
        | Wedged -> Printf.sprintf "no result after %d s: the run is wedged" watchdog_s
        | e -> Printexc.to_string e
      in
      { Workloads.sim = []; setups = []; jobs = []; attempted = 1; unchecked = 0;
        failures = [ msg ]; layers = []; details = [] }
  in
  ignore (Unix.alarm 0);
  let e2e =
    if o.Workloads.sim = [] then []
    else
      o.Workloads.sim @ [ ("setup_s", Stats.median o.Workloads.setups) ]
  in
  let metrics =
    if !traced then o.Workloads.layers
    else List.map (fun (n, v) -> (n, List.assoc n e2e_units, v)) e2e
  in
  let correct = o.Workloads.failures = [] in
  List.iter (fun f -> Printf.eprintf "FAILED: %s\n" f) (List.rev o.Workloads.failures);
  if o.Workloads.unchecked > 0 then
    Printf.eprintf "note: the linearizability search gave up on %d operations\n"
      o.Workloads.unchecked;
  Printf.printf "workload %s, seed %d%s\n" w.Workloads.name !seed
    (if !traced then ", traced" else "");
  List.iter (fun (n, u, v) -> Printf.printf "  %-44s %16.6g %s\n" n v u) metrics;
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Spans.write (Filename.concat dir "bench-trace.json"))
    !trace_dir;
  let result =
    [ ("correct", Out.Bool correct);
      ("attempted", Out.Int (max 1 o.Workloads.attempted));
      ("failed", Out.Int (List.length o.Workloads.failures));
      ("metrics", metric_obj metrics) ]
  in
  Option.iter
    (fun path ->
      Out.write path
        (Out.Obj
           ([ ("workload", Out.Str w.Workloads.name); ("seed", Out.Int !seed);
              ("traced", Out.Bool !traced) ]
           @ result
           @ [ ("failures", Out.List (List.map (fun f -> Out.Str f) o.Workloads.failures));
               ("unchecked_ops", Out.Int o.Workloads.unchecked);
               ("setups_s", Out.List (List.map (fun s -> Out.Num s) o.Workloads.setups));
               ("jobs_s", Out.List (List.map (fun s -> Out.Num s) o.Workloads.jobs));
               ("details", Out.Obj o.Workloads.details) ])))
    !json;
  print_endline (Out.to_string (Out.Obj result));
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "compare" :: args -> exit (Compare.main args)
  | _ -> usage ()
