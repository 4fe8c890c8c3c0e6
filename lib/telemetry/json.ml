(** A tiny JSON parser and two artifact validators.

    The repo emits two kinds of machine-readable artifacts — bench result
    JSON ([bench smoke], [bench shardscale], ...) and Chrome trace-event JSON
    ([--trace]). CI gates on both being well-formed, so the writers
    self-validate before exiting and the [validate] CLI subcommand lets
    the workflow re-check the files on disk. No external JSON dependency
    is available in the container, hence this ~100-line recursive-descent
    parser; it handles exactly the subset our writers produce (plus
    escapes and nesting a human editor might add). *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of v list
  | Obj of (string * v) list

exception Parse_error of string

(** Bump this when a writer changes a key's meaning or removes a key.
    Additive changes do not require a bump; validators only check the
    keys they know.

    v2: loadcurve points grew required [shed]/[shed_rate] keys (drop-tail
    admission accounting), and [bench shardscale] emits result objects
    whose [system] names carry a [/xN] shard suffix. The shed keys were
    later dropped with the shedding without a bump: no command ever
    turned shedding on, so every artifact that carried them read 0 in
    both, and [arrivals] is the whole offered count. *)
let schema_version = 2

(* ---- parser ---- *)

type st = { s : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && (match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  skip_ws st;
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let lit st word value =
  if
    st.pos + String.length word <= String.length st.s
    && String.sub st.s st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else error st (Printf.sprintf "expected '%s'" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then error st "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
      (if st.pos >= String.length st.s then error st "unterminated escape";
       let e = st.s.[st.pos] in
       st.pos <- st.pos + 1;
       match e with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | '/' -> Buffer.add_char b '/'
       | 'n' -> Buffer.add_char b '\n'
       | 't' -> Buffer.add_char b '\t'
       | 'r' -> Buffer.add_char b '\r'
       | 'b' -> Buffer.add_char b '\b'
       | 'f' -> Buffer.add_char b '\012'
       | 'u' ->
         if st.pos + 4 > String.length st.s then error st "bad \\u escape";
         let hex = String.sub st.s st.pos 4 in
         st.pos <- st.pos + 4;
         let code =
           try int_of_string ("0x" ^ hex)
           with _ -> error st "bad \\u escape"
         in
         (* BMP only; sufficient for our ASCII-producing writers *)
         if code < 0x80 then Buffer.add_char b (Char.chr code)
         else Buffer.add_string b (Printf.sprintf "\\u%s" hex)
       | _ -> error st "bad escape");
      go ()
    | c ->
      Buffer.add_char b c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.s && is_num_char st.s.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then error st "expected number";
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> error st "malformed number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          members ((k, v) :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          List.rev ((k, v) :: acc)
        | _ -> error st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          items (v :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          List.rev (v :: acc)
        | _ -> error st "expected ',' or ']'"
      in
      List (items [])
    end
  | Some 't' -> lit st "true" (Bool true)
  | Some 'f' -> lit st "false" (Bool false)
  | Some 'n' -> lit st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error st "trailing garbage";
  v

let parse_result s =
  match parse s with v -> Ok v | exception Parse_error m -> Error m

(* ---- accessors ---- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let mem_num k o = match member k o with Some (Num _) -> true | _ -> false
let mem_str k o = match member k o with Some (Str _) -> true | _ -> false

(* ---- validators ---- *)

(* A validator returns the list of violations; [] means valid. *)

let check cond msg errs = if cond then errs else msg :: errs

let check_schema_version o errs =
  match member "schema_version" o with
  | Some (Num f) when int_of_float f = schema_version -> errs
  | Some (Num f) ->
    Printf.sprintf "schema_version is %d, expected %d" (int_of_float f)
      schema_version
    :: errs
  | _ -> "missing numeric schema_version" :: errs

(** Chrome trace-event JSON as written by {!Trace_export}:
    a top-level object with [schema_version], [traceEvents] array; each
    event has [ph] of "X" (needs name/ts/dur/pid/tid), "i" (name/ts/tid)
    or "M" (name/args). *)
let validate_trace v =
  match v with
  | Obj _ as o ->
    let errs = check_schema_version o [] in
    (match member "traceEvents" o with
     | Some (List evs) ->
       let errs =
         check (evs <> []) "traceEvents is empty" errs
       in
       let bad = ref [] in
       List.iteri
         (fun i ev ->
           let fail msg =
             if List.length !bad < 5 then
               bad := Printf.sprintf "event %d: %s" i msg :: !bad
           in
           match ev with
           | Obj _ as e -> (
             match member "ph" e with
             | Some (Str "X") ->
               if
                 not
                   (mem_str "name" e && mem_num "ts" e && mem_num "dur" e
                    && mem_num "pid" e && mem_num "tid" e)
               then fail "X event missing name/ts/dur/pid/tid"
             | Some (Str "i") ->
               if not (mem_str "name" e && mem_num "ts" e && mem_num "tid" e)
               then fail "i event missing name/ts/tid"
             | Some (Str "M") ->
               if not (mem_str "name" e) then fail "M event missing name"
             | Some (Str ph) -> fail (Printf.sprintf "unknown ph %S" ph)
             | _ -> fail "missing ph")
           | _ -> fail "event is not an object")
         evs;
       List.rev_append !bad errs
     | _ -> "missing traceEvents array" :: errs)
  | _ -> [ "top level is not an object" ]

let result_keys =
  [ "system"; "workload"; "workers"; "ops"; "duration_ns"; "throughput";
    "wbinvd"; "clwb"; "clwb_elided"; "clwb_coalesced"; "clflush";
    "clflush_elided"; "sfence"; "sfence_elided"; "bg_flushes" ]

(* Per-point keys of a loadcurve curve object ([bench loadcurve] /
   [prep_cli serve-sim]); all numeric. *)
let curve_point_keys =
  [ "offered_ops_per_s"; "arrivals"; "completed"; "backlogged";
    "queue_peak"; "throughput_ops_per_s"; "sojourn_p50_ns"; "sojourn_p95_ns";
    "sojourn_p99_ns"; "sojourn_mean_ns" ]

(** Bench JSON as written by the bench modes: a top-level object with
    [schema_version]; every nested object that has a
    ["system"] key is an experiment result and must carry the full result
    key set plus a [counters] object. Objects with a ["curve_system"] key
    are open-loop load curves: a non-empty [points] array whose entries
    carry the offered/completed counts and sojourn percentiles (with
    p50 <= p95 <= p99), plus a [knee_ops_per_s] number or null. *)
let validate_bench v =
  match v with
  | Obj _ as o ->
    let errs = ref (check_schema_version o []) in
    let fail msg = if List.length !errs < 10 then errs := msg :: !errs in
    let check_curve path v =
      if not (mem_str "workload" v) then
        fail (Printf.sprintf "%s: curve missing workload string" path);
      if not (mem_num "workers" v) then
        fail (Printf.sprintf "%s: curve missing numeric workers" path);
      (match member "knee_ops_per_s" v with
       | Some (Num _) | Some Null -> ()
       | _ ->
         fail
           (Printf.sprintf "%s: curve missing knee_ops_per_s (number or null)"
              path));
      match member "points" v with
      | Some (List []) -> fail (Printf.sprintf "%s: curve has no points" path)
      | Some (List pts) ->
        List.iteri
          (fun i p ->
            let ppath = Printf.sprintf "%s.points[%d]" path i in
            match p with
            | Obj _ ->
              List.iter
                (fun k ->
                  if not (mem_num k p) then
                    fail
                      (Printf.sprintf "%s: point missing numeric %S" ppath k))
                curve_point_keys;
              (match
                 ( member "sojourn_p50_ns" p,
                   member "sojourn_p95_ns" p,
                   member "sojourn_p99_ns" p )
               with
               | Some (Num p50), Some (Num p95), Some (Num p99) ->
                 if not (p50 <= p95 && p95 <= p99) then
                   fail
                     (Printf.sprintf
                        "%s: sojourn percentiles not ordered (p50 %.0f, p95 \
                         %.0f, p99 %.0f)"
                        ppath p50 p95 p99)
               | _ -> ())
            | _ -> fail (Printf.sprintf "%s: point is not an object" ppath))
          pts
      | _ -> fail (Printf.sprintf "%s: curve missing points array" path)
    in
    let rec walk path v =
      match v with
      | Obj kvs ->
        if mem_str "system" v then begin
          List.iter
            (fun k ->
              if member k v = None then
                fail (Printf.sprintf "%s: result missing key %S" path k))
            result_keys;
          match member "counters" v with
          | Some (Obj _) -> ()
          | _ -> fail (Printf.sprintf "%s: result missing counters object" path)
        end;
        if mem_str "curve_system" v then check_curve path v;
        List.iter (fun (k, v) -> walk (path ^ "." ^ k) v) kvs
      | List items ->
        List.iteri (fun i v -> walk (Printf.sprintf "%s[%d]" path i) v) items
      | _ -> ()
    in
    walk "$" o;
    List.rev !errs
  | _ -> [ "top level is not an object" ]

(** Parse [s] and run [validator]; [Ok ()] or a human-readable error. *)
let validate_string validator s =
  match parse_result s with
  | Error m -> Error [ "parse error: " ^ m ]
  | Ok v -> ( match validator v with [] -> Ok () | errs -> Error errs)
