(** Host spans, on the process's CPU clock, around the bench's calls into
    each layer (set-up, run, crash and recovery, checks, explorer, fuzz),
    kept in memory and written as a Chrome trace when asked. Each span
    carries its own id and its parent's. *)

type span = { name : string; id : int; parent : int; t0 : float; t1 : float }

let finished = ref []
let stack = ref [ 0 ]
let next_id = ref 0

(** Record a span that has already ended, under the innermost open one. *)
let add name ~t0 ~t1 =
  incr next_id;
  finished := { name; id = !next_id; parent = List.hd !stack; t0; t1 } :: !finished

let with_span name f =
  incr next_id;
  let id = !next_id and parent = List.hd !stack in
  stack := id :: !stack;
  let t0 = Sys.time () in
  Fun.protect
    ~finally:(fun () ->
      stack := List.tl !stack;
      finished := { name; id; parent; t0; t1 = Sys.time () } :: !finished)
    f

let write path =
  let us t = Out.Num (Float.round (t *. 1e6)) in
  let event s =
    Out.Obj
      [
        ("name", Out.Str s.name);
        ("ph", Out.Str "X");
        ("ts", us s.t0);
        ("dur", us (s.t1 -. s.t0));
        ("pid", Out.Int 1);
        ("tid", Out.Int 1);
        ("args", Out.Obj [ ("id", Out.Int s.id); ("parent", Out.Int s.parent) ]);
      ]
  in
  Out.write path
    (Out.Obj [ ("traceEvents", Out.List (List.rev_map event !finished)) ])
