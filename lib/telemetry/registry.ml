(** Typed telemetry: metric registry, simulated-time phase spans, latency
    histograms, and a Chrome-trace event buffer.

    One [Telemetry.t] registry holds every metric of one measured run:

    - {e counters} — monotonically increasing ints (flush counts per call
      site, scheduler events, ported optimisation counters);
    - {e gauges} — last-written ints (configuration echoes, watermarks);
    - {e histograms} — distributions of simulated-ns values in log2
      buckets, with approximate p50/p95/p99;
    - {e spans} — named phases ("combine", "persist", ...) timed on the
      {e simulated} clock, nested per track (= fiber). Each span kind
      keeps an inclusive-latency histogram plus an exclusive (self-time)
      total, so a profile can attribute every simulated nanosecond to
      exactly one phase.

    Everything here is harness-side: recording charges no simulated time,
    consumes no simulated randomness, and therefore cannot perturb a run.
    A run with a registry installed is step-for-step identical to the same
    run without one — the differential fuzz harness checks exactly that.

    The library is deliberately below [Sim] in the dependency order; it
    learns about simulated time and the current fiber through the
    [set_clock]/[set_track] callbacks, which [Sim] installs at link time.
    When no simulation is running both default to 0.

    Cost without a registry: instrumentation sites are guarded either by
    an [option] captured at subsystem creation ([Nvm.Memory], [Prep_uc])
    or by the one-word [current ()] check, so the default path pays a load
    and a branch, nothing more. *)

(* ---- ambient callbacks (installed by Sim) ---- *)

let clock_fn : (unit -> int) ref = ref (fun () -> 0)
let track_fn : (unit -> int) ref = ref (fun () -> 0)

let set_clock f = clock_fn := f
let set_track f = track_fn := f
let now () = !clock_fn ()
let track () = !track_fn ()

(* ---- metrics ---- *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : int }

let hist_buckets = 63
(* bucket [b] holds values v with [bits v = b], i.e. v in [2^(b-1), 2^b);
   bucket 0 holds 0 (and any negative value, clamped) *)

type histogram = {
  h_name : string;
  mutable h_n : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_counts : int array; (* hist_buckets entries *)
}

type span = {
  sp_name : string;
  sp_hist : histogram; (* inclusive duration per occurrence *)
  mutable sp_self : int; (* exclusive total: inclusive minus child spans *)
}

(* ---- trace events (Chrome trace-event format source data) ---- *)

type event =
  | Complete of { ev_name : string; ev_track : int; ev_t0 : int; ev_dur : int }
  | Instant of { ev_name : string; ev_track : int; ev_t : int }

(* ---- per-track span stack ---- *)

type frame = {
  fr_span : span;
  fr_t0 : int;
  mutable fr_child : int; (* simulated ns spent in nested spans *)
}

type track_info = {
  mutable tk_first : int; (* t0 of the first depth-0 span *)
  mutable tk_last : int; (* end of the last depth-0 span *)
  mutable tk_covered : int; (* total ns inside depth-0 spans *)
}

(* Trace events kept per registry; later ones are counted as dropped. *)
let max_events = 4_000_000

type t = {
  mutable tracing : bool; (* collect Chrome-trace events *)
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  spans : (string, span) Hashtbl.t;
  stacks : (int, frame list) Hashtbl.t; (* track -> open spans, innermost first *)
  tracks : (int, track_info) Hashtbl.t;
  track_names : (int, string) Hashtbl.t;
  mutable events : event list; (* newest first *)
  mutable n_events : int;
  mutable dropped_events : int;
}

let create ?(tracing = false) () =
  {
    tracing;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 32;
    spans = Hashtbl.create 16;
    stacks = Hashtbl.create 16;
    tracks = Hashtbl.create 16;
    track_names = Hashtbl.create 16;
    events = [];
    n_events = 0;
    dropped_events = 0;
  }

let tracing t = t.tracing

(* ---- the ambient registry ---- *)

(* Domain-local, not global: independent sim instances running on separate
   domains (Harness.Campaign) each get their own ambient slot, so one
   domain's registry never observes another domain's recordings. *)
type cur_slot = { mutable cur : t option }

let cur_key : cur_slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cur = None })

let cur () = (Domain.DLS.get cur_key).cur

let current () = cur ()
let set_current r = (Domain.DLS.get cur_key).cur <- r

let with_current r f =
  let slot = Domain.DLS.get cur_key in
  let saved = slot.cur in
  slot.cur <- Some r;
  match f () with
  | v ->
    slot.cur <- saved;
    v
  | exception e ->
    slot.cur <- saved;
    raise e

(* ---- find-or-create ---- *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.counters name c;
    c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0 } in
    Hashtbl.replace t.gauges name g;
    g

let new_hist name =
  {
    h_name = name;
    h_n = 0;
    h_sum = 0;
    h_min = max_int;
    h_max = 0;
    h_counts = Array.make hist_buckets 0;
  }

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = new_hist name in
    Hashtbl.replace t.histograms name h;
    h

let span t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
    let s = { sp_name = name; sp_hist = new_hist name; sp_self = 0 } in
    Hashtbl.replace t.spans name s;
    s

(* ---- recording ---- *)

let add c by = c.c_value <- c.c_value + by
let incr c = add c 1
let value (c : counter) = c.c_value
let set (g : gauge) v = g.g_value <- v

(* bucket index = number of significant bits of v; 0 maps to bucket 0 *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      Stdlib.incr b;
      x := !x lsr 1
    done;
    min !b (hist_buckets - 1)
  end

let observe h v =
  let v = max 0 v in
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_counts.(b) <- h.h_counts.(b) + 1

(** Add [by] to counter [name] of registry [t] (find-or-create). *)
let add_to t name by = add (counter t name) by

(** Convenience: bump a counter on the ambient registry, if any. *)
let cur_add name by =
  match cur () with
  | None -> ()
  | Some t -> add (counter t name) by

let push_event t ev =
  if t.n_events >= max_events then t.dropped_events <- t.dropped_events + 1
  else begin
    t.events <- ev :: t.events;
    t.n_events <- t.n_events + 1
  end

(** Record an instant event (crash, flush, fence) on the current track. *)
let instant t name =
  if tracing t then
    push_event t (Instant { ev_name = name; ev_track = track (); ev_t = now () })

let cur_instant name =
  match cur () with None -> () | Some t -> instant t name

(** Name a track (fiber) for the trace export. *)
let name_track t tid name = Hashtbl.replace t.track_names tid name

let cur_name_track tid name =
  match cur () with None -> () | Some t -> name_track t tid name

(* ---- spans ---- *)

let track_info t tid =
  match Hashtbl.find_opt t.tracks tid with
  | Some i -> i
  | None ->
    let i = { tk_first = max_int; tk_last = 0; tk_covered = 0 } in
    Hashtbl.replace t.tracks tid i;
    i

let span_enter t sp =
  let tid = track () in
  let stack =
    match Hashtbl.find_opt t.stacks tid with Some s -> s | None -> []
  in
  Hashtbl.replace t.stacks tid
    ({ fr_span = sp; fr_t0 = now (); fr_child = 0 } :: stack)

let span_exit t sp =
  let tid = track () in
  match Hashtbl.find_opt t.stacks tid with
  | None | Some [] -> () (* unbalanced exit: ignore *)
  | Some (fr :: rest) ->
    if fr.fr_span != sp then begin
      (* unbalanced (an exception unwound past an enter): pop down to the
         matching frame, discarding orphans rather than mis-attributing
         their time; if [sp] isn't open on this track at all, ignore *)
      if List.exists (fun f -> f.fr_span == sp) rest then begin
        let rec drop = function
          | f :: tl when f.fr_span != sp -> drop tl
          | _ :: tl -> tl
          | [] -> []
        in
        Hashtbl.replace t.stacks tid (drop rest)
      end
    end
    else begin
      Hashtbl.replace t.stacks tid rest;
      let t1 = now () in
      let dur = t1 - fr.fr_t0 in
      observe sp.sp_hist dur;
      sp.sp_self <- sp.sp_self + dur - fr.fr_child;
      (match rest with
       | parent :: _ -> parent.fr_child <- parent.fr_child + dur
       | [] ->
         let info = track_info t tid in
         if fr.fr_t0 < info.tk_first then info.tk_first <- fr.fr_t0;
         if t1 > info.tk_last then info.tk_last <- t1;
         info.tk_covered <- info.tk_covered + dur);
      if t.tracing then
        push_event t
          (Complete
             { ev_name = sp.sp_name; ev_track = tid; ev_t0 = fr.fr_t0;
               ev_dur = dur })
    end

(** Run [f] inside span [sp]. Exception-safe: the span is closed (and its
    time recorded) even if [f] raises — the crash fuzzer aborts fibers by
    raising from a memory-access hook, and an unwound span must not
    corrupt the nesting of later spans on the same track. *)
let with_span t sp f =
  span_enter t sp;
  match f () with
  | v ->
    span_exit t sp;
    v
  | exception e ->
    span_exit t sp;
    raise e

(* ---- snapshots ---- *)

type hist_stats = {
  hs_n : int;
  hs_sum : int;
  hs_min : int;
  hs_max : int;
  hs_p50 : int;
  hs_p95 : int;
  hs_p99 : int;
}

type span_stats = { ss_stats : hist_stats; ss_self : int }

type snapshot = {
  sn_counters : (string * int) list; (* sorted by name *)
  sn_gauges : (string * int) list;
  sn_hists : (string * hist_stats) list;
  sn_spans : (string * span_stats) list;
  sn_wall : int; (* latest depth-0 span end across tracks *)
  sn_tracks : int; (* tracks that recorded at least one span *)
  sn_covered : int; (* total ns inside depth-0 spans *)
  sn_track_extent : int; (* sum over tracks of (last - first) *)
}

let empty_snapshot =
  {
    sn_counters = [];
    sn_gauges = [];
    sn_hists = [];
    sn_spans = [];
    sn_wall = 0;
    sn_tracks = 0;
    sn_covered = 0;
    sn_track_extent = 0;
  }

(* representative value of bucket [b]: the geometric midpoint of
   [2^(b-1), 2^b) — percentiles are bucket-resolution approximations *)
let bucket_rep b = if b = 0 then 0 else (1 lsl (b - 1)) + (1 lsl (b - 1) / 2)

let percentile h q =
  if h.h_n = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.h_n))) in
    let seen = ref 0 and res = ref h.h_max in
    (try
       for b = 0 to hist_buckets - 1 do
         seen := !seen + h.h_counts.(b);
         if !seen >= rank then begin
           res := min (bucket_rep b) h.h_max;
           raise Exit
         end
       done
     with Exit -> ());
    max !res h.h_min |> min h.h_max
  end

let hist_stats h =
  {
    hs_n = h.h_n;
    hs_sum = h.h_sum;
    hs_min = (if h.h_n = 0 then 0 else h.h_min);
    hs_max = h.h_max;
    hs_p50 = percentile h 0.50;
    hs_p95 = percentile h 0.95;
    hs_p99 = percentile h 0.99;
  }

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t =
  let wall = ref 0 and covered = ref 0 and extent = ref 0 and ntracks = ref 0 in
  Hashtbl.iter
    (fun _ info ->
      if info.tk_last > 0 then begin
        Stdlib.incr ntracks;
        if info.tk_last > !wall then wall := info.tk_last;
        covered := !covered + info.tk_covered;
        extent := !extent + (info.tk_last - info.tk_first)
      end)
    t.tracks;
  {
    sn_counters = sorted_bindings t.counters (fun c -> c.c_value);
    sn_gauges = sorted_bindings t.gauges (fun g -> g.g_value);
    sn_hists = sorted_bindings t.histograms hist_stats;
    sn_spans =
      sorted_bindings t.spans (fun s ->
          { ss_stats = hist_stats s.sp_hist; ss_self = s.sp_self });
    sn_wall = !wall;
    sn_tracks = !ntracks;
    sn_covered = !covered;
    sn_track_extent = !extent;
  }

let find_counter snap name =
  match List.assoc_opt name snap.sn_counters with Some v -> v | None -> 0

(* ---- event access (trace export) ---- *)

(** Collected trace events, oldest first. *)
let events t = List.rev t.events

let n_events t = t.n_events
let dropped_events t = t.dropped_events
let track_name t tid = Hashtbl.find_opt t.track_names tid

let track_ids t =
  Hashtbl.fold (fun tid _ acc -> tid :: acc) t.track_names []
  |> List.sort_uniq compare
