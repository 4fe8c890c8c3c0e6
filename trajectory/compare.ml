(** [compare A.json... -- B.json...]: each end-to-end metric of
    BENCHMARK.json, per workload, with the median and quartiles of side A
    (the parent) and side B (the change), and a verdict against the
    metric's bound:

    - [unresolved] when either side's quartile spread, as a share of its
      median, exceeds the bound — unless every B run beats (or loses to)
      every A run, which decides it anyway;
    - otherwise [worse] or [better] when B's median moved by more than the
      bound, and [within bound] when it did not.

    Exits 1 when any pair is worse. *)

module J = Telemetry.Json

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse_result s with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let num = function Some (J.Num f) -> f | _ -> nan

(* (workload, metric) -> every value the files hold. A file is one run's
   [--json] output, or an object whose "runs" list holds several. *)
let collect files =
  let tbl = Hashtbl.create 64 in
  let add path v =
    let w =
      match J.member "workload" v with
      | Some (J.Str s) -> s
      | _ -> failwith (path ^ ": a run without a workload")
    in
    match J.member "metrics" v with
    | Some (J.Obj ms) ->
      List.iter
        (fun (m, o) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl (w, m)) in
          Hashtbl.replace tbl (w, m) (num (J.member "value" o) :: prev))
        ms
    | _ -> ()
  in
  List.iter
    (fun path ->
      match load path with
      | J.Obj _ as v -> (
        match J.member "runs" v with
        | Some (J.List runs) -> List.iter (add path) runs
        | _ -> add path v)
      | _ -> failwith (path ^ ": not a JSON object"))
    files;
  tbl

(* (q1, median, q3) *)
let summary = function [ x ] -> (x, x, x) | l -> Stats.quartiles l

let verdict ~lower ~bound a b =
  let q1a, ma, q3a = summary a and q1b, mb, q3b = summary b in
  let spread = Float.max ((q3a -. q1a) /. Float.abs ma) ((q3b -. q1b) /. Float.abs mb) in
  let change = (mb -. ma) /. Float.abs ma in
  let worse_by = if lower then change else -.change in
  let beats x y = if lower then x < y else x > y in
  let every p = List.for_all (fun y -> List.for_all (fun x -> p y x) a) b in
  let v =
    if spread > bound then
      if every beats then "better"
      else if every (fun y x -> beats x y) then "worse"
      else "unresolved"
    else if worse_by > bound then "worse"
    else if worse_by < -.bound then "better"
    else "within bound"
  in
  ((q1a, ma, q3a), (q1b, mb, q3b), change, v)

let main args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  match split [] args with
  | [], _ | _, [] ->
    prerr_endline "usage: main.exe compare A.json... -- B.json...";
    2
  | a_files, b_files ->
    let bench = load "BENCHMARK.json" in
    let metrics =
      match J.member "end_to_end" bench with
      | Some (J.List l) ->
        List.map
          (fun m ->
            match (J.member "name" m, J.member "better" m) with
            | Some (J.Str n), Some (J.Str b) -> (n, b = "lower", num (J.member "bound" m))
            | _ -> failwith "BENCHMARK.json: malformed end_to_end entry")
          l
      | _ -> failwith "BENCHMARK.json: no end_to_end list"
    in
    let a = collect a_files and b = collect b_files in
    let workloads =
      Hashtbl.fold (fun (w, _) _ l -> w :: l) a []
      |> List.filter (fun w -> Hashtbl.fold (fun (w', _) _ f -> f || w = w') b false)
      |> List.sort_uniq compare
    in
    Printf.printf "%-22s %-15s %34s %34s %9s  %s\n" "metric" "workload" "A median [q1, q3]"
      "B median [q1, q3]" "change" "verdict";
    let worse = ref false in
    List.iter
      (fun (m, lower, bound) ->
        List.iter
          (fun w ->
            match (Hashtbl.find_opt a (w, m), Hashtbl.find_opt b (w, m)) with
            | Some va, Some vb ->
              let (q1a, ma, q3a), (q1b, mb, q3b), change, v = verdict ~lower ~bound va vb in
              if v = "worse" then worse := true;
              let cell m q1 q3 = Printf.sprintf "%.6g [%.4g, %.4g]" m q1 q3 in
              Printf.printf "%-22s %-15s %34s %34s %+8.2f%%  %s (bound %.0f%%)\n" m w
                (cell ma q1a q3a) (cell mb q1b q3b) (100.0 *. change) v (100.0 *. bound)
            | _ -> ())
          workloads)
      metrics;
    if !worse then 1 else 0
