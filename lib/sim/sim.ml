(** Discrete-event simulator with effects-based fibers.

    Simulated threads run in direct style. Every simulated memory access
    charges nanoseconds to the running fiber's clock ([tick]); fibers hand
    control back to the scheduler at synchronization points and whenever
    they exhaust their time quantum. The scheduler always resumes the fiber
    with the smallest clock, so simulated time is globally consistent and a
    run is a deterministic function of its seed.

    The simulator is single-OS-thread by construction: [current ()] style
    accessors are safe. *)

module Rng = Rng
module Topology = Topology
module Costs = Costs

type fiber = {
  fid : int;                  (** unique fiber id *)
  socket : int;               (** NUMA node this fiber is pinned to *)
  core : int;                 (** core within the socket *)
  frng : Rng.t;               (** fiber-private random stream *)
  mutable clock : int;        (** fiber-local simulated time, ns *)
  mutable slice : int;        (** time consumed since the last yield *)
  mutable palloc : bool;      (** allocator-swap flag (paper §5.1): when set,
                                  allocations go to the persistent allocator *)
}

type entry = { time : int; seq : int; resume : unit -> unit }

type t = {
  topology : Topology.t;
  costs : Costs.t;
  rng : Rng.t;                    (** scheduler stream (background flushes etc.) *)
  preempt_prob : float;           (** chance per [tick] of a forced, jittered
                                      preemption (schedule fuzzing) *)
  mutable heap : entry option array;
  mutable heap_len : int;
  mutable seq : int;
  mutable live : int;
  mutable next_fid : int;
  mutable running : bool;
  mutable chooser : (int array -> int) option;
      (** controlled-scheduler mode (model checking): when set, fibers are
          not dispatched by simulated time but by this callback, which is
          handed the sorted fids of every runnable fiber and returns the
          one to run next. Clocks still advance (costs stay meaningful)
          but impose no ordering: the explorer drives *every* interleaving
          through here, including ones timed dispatch would never emit. *)
  mutable spin_hook : (int -> unit) option;
      (** controlled mode only: called with the executing fid each time it
          enters a [spin] wait iteration, so a model checker can park the
          fiber until a write makes re-checking its condition worthwhile *)
  runnable : (int, unit -> unit) Hashtbl.t;
      (** controlled mode only: fid -> continuation of each runnable fiber *)
  fibers : (int, fiber) Hashtbl.t;
      (** registry of every spawned fiber, for harness inspection *)
}

type _ Effect.t += Yield : unit Effect.t

(* Suspend the running fiber; the argument receives the function that
   makes it runnable again at a given time (see [fork_join]). *)
type _ Effect.t += Park : ((int -> unit) -> unit) -> unit Effect.t

(* The ambient simulation state is domain-local, not global: a simulation
   is single-OS-thread by construction, but *independent* simulations may
   run concurrently on separate domains (Harness.Campaign). Each domain
   sees only its own "current sim / current fiber" slot, so the
   [current ()]-style accessors stay safe without any locking. *)
type ambient = { mutable amb_sim : t option; mutable amb_fiber : fiber option }

let ambient_key : ambient Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { amb_sim = None; amb_fiber = None })

let ambient () = Domain.DLS.get ambient_key

(* Teach the telemetry layer (which sits below us in the dependency order)
   how to read simulated time and identify the current track. Outside a
   fiber both report 0, matching Registry's defaults. Recording telemetry
   never ticks the clock or consumes simulated randomness, so an installed
   registry cannot perturb a run. *)
let () =
  Telemetry.Registry.set_clock (fun () ->
      match (ambient ()).amb_fiber with Some f -> f.clock | None -> 0);
  Telemetry.Registry.set_track (fun () ->
      match (ambient ()).amb_fiber with Some f -> f.fid | None -> 0)

let instance () =
  match (ambient ()).amb_sim with
  | Some s -> s
  | None -> failwith "Sim: no simulation running"

let self () =
  match (ambient ()).amb_fiber with
  | Some f -> f
  | None -> failwith "Sim: not inside a fiber"

(* The most jitter one forced preemption charges, ns. *)
let quantum = 150

(** [preempt_prob] randomizes preemption: on each [tick], with that
    probability, the fiber is charged up to one extra quantum of jitter and
    forced to yield. This perturbs which fiber is globally earliest at
    synchronization points, so different seeds explore different
    interleavings — deterministic schedule fuzzing for the crash harness.
    The default 0.0 keeps the exact seed behaviour. *)
let create ?(seed = 1L) ?(costs = Costs.default) ?(preempt_prob = 0.0)
    topology =
  {
    topology;
    costs;
    rng = Rng.create seed;
    preempt_prob;
    heap = Array.make 1024 None;
    heap_len = 0;
    seq = 0;
    live = 0;
    next_fid = 0;
    running = false;
    chooser = None;
    spin_hook = None;
    runnable = Hashtbl.create 64;
    fibers = Hashtbl.create 64;
  }

(** Switch the simulation into controlled-scheduler mode (see [t.chooser]).
    Must be called before [run]. *)
let set_chooser t f = t.chooser <- Some f

(** Install the controlled-mode spin notification (see [t.spin_hook]). *)
let set_spin_hook t h = t.spin_hook <- Some h

(** Whether the *current* simulation runs under a controlled scheduler.
    False when no simulation is running (e.g. a nested recovery sim created
    without a chooser), so instrumented code can consult it unconditionally. *)
let controlled () =
  match (ambient ()).amb_sim with Some s -> s.chooser <> None | None -> false

(** Look up a spawned fiber by fid (harness inspection). *)
let find_fiber t fid = Hashtbl.find_opt t.fibers fid

(* ---- binary min-heap ordered by (time, seq) ---- *)

let entry_lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let heap_push t e =
  if t.heap_len = Array.length t.heap then begin
    let bigger = Array.make (2 * Array.length t.heap) None in
    Array.blit t.heap 0 bigger 0 t.heap_len;
    t.heap <- bigger
  end;
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      match t.heap.(parent) with
      | Some p when entry_lt e p ->
        t.heap.(i) <- t.heap.(parent);
        up parent
      | _ -> t.heap.(i) <- Some e
    end
    else t.heap.(i) <- Some e
  in
  t.heap.(t.heap_len) <- Some e;
  t.heap_len <- t.heap_len + 1;
  up (t.heap_len - 1)

let heap_pop t =
  match t.heap.(0) with
  | None -> None
  | Some top ->
    t.heap_len <- t.heap_len - 1;
    let last = t.heap.(t.heap_len) in
    t.heap.(t.heap_len) <- None;
    if t.heap_len > 0 then begin
      let last = Option.get last in
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let smallest = ref i and cur = ref last in
        (match t.heap.(l) with
         | Some e when l < t.heap_len && entry_lt e !cur -> smallest := l; cur := e
         | _ -> ());
        (match t.heap.(r) with
         | Some e when r < t.heap_len && entry_lt e !cur -> smallest := r; cur := e
         | _ -> ());
        if !smallest <> i then begin
          t.heap.(i) <- t.heap.(!smallest);
          down !smallest
        end
        else t.heap.(i) <- Some last
      in
      down 0
    end;
    Some top

let heap_peek t = t.heap.(0)

let schedule t ~fid ~time resume =
  match t.chooser with
  | Some _ -> Hashtbl.replace t.runnable fid resume
  | None ->
    heap_push t { time; seq = t.seq; resume };
    t.seq <- t.seq + 1

(* ---- fiber lifecycle ---- *)

let run_under_handler t fiber f =
  let open Effect.Deep in
  match_with
    (fun () -> f ())
    ()
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some
              (fun (k : (a, unit) continuation) ->
                schedule t ~fid:fiber.fid ~time:fiber.clock (fun () ->
                    (ambient ()).amb_fiber <- Some fiber;
                    continue k ()))
          | Park register ->
            Some
              (fun (k : (a, unit) continuation) ->
                register (fun time ->
                    if time > fiber.clock then fiber.clock <- time;
                    schedule t ~fid:fiber.fid ~time:fiber.clock (fun () ->
                        (ambient ()).amb_fiber <- Some fiber;
                        continue k ())))
          | _ -> None);
    }

(** [spawn t ~socket ?core f] registers a fiber pinned to [socket]/[core].
    If called from inside a running fiber, the child starts at the parent's
    current clock; otherwise at time 0. *)
let spawn t ~socket ?(core = 0) f =
  if socket < 0 || socket >= t.topology.Topology.sockets then
    invalid_arg "Sim.spawn: bad socket";
  let start_time =
    match (ambient ()).amb_fiber with
    | Some parent -> parent.clock
    | None -> 0
  in
  let fiber =
    {
      fid = t.next_fid;
      socket;
      core;
      frng = Rng.split t.rng;
      clock = start_time;
      slice = 0;
      palloc = false;
    }
  in
  t.next_fid <- t.next_fid + 1;
  t.live <- t.live + 1;
  Hashtbl.replace t.fibers fiber.fid fiber;
  Telemetry.Registry.cur_add "sim.fibers_spawned" 1;
  Telemetry.Registry.cur_name_track fiber.fid
    (Printf.sprintf "fiber-%d (s%d.c%d)" fiber.fid socket core);
  schedule t ~fid:fiber.fid ~time:start_time (fun () ->
      (ambient ()).amb_fiber <- Some fiber;
      run_under_handler t fiber f);
  fiber

(** [run t ~until ()] dispatches fibers in simulated-time order. Returns
    [`Done] when every fiber has finished, or [`Cut t] when the next
    runnable fiber's clock exceeds [until] — which models a full-system
    power failure at time [until]: in-flight fibers are simply abandoned,
    exactly as a crash abandons in-flight threads. *)
let run ?(until = max_int) t () =
  if t.running then failwith "Sim.run: reentrant run";
  (* Save the caller's simulation (if any) instead of clearing the globals:
     the explorer runs a whole recovery simulation from inside a scheduler
     callback of an outer controlled run, and must find the outer sim intact
     afterwards. *)
  let amb = ambient () in
  let saved_sim = amb.amb_sim and saved_fiber = amb.amb_fiber in
  t.running <- true;
  amb.amb_sim <- Some t;
  let cleanup () =
    t.running <- false;
    amb.amb_sim <- saved_sim;
    amb.amb_fiber <- saved_fiber
  in
  let rec timed_loop () =
    match heap_peek t with
    | None -> `Done
    | Some e when e.time > until -> `Cut e.time
    | Some _ ->
      let e = Option.get (heap_pop t) in
      e.resume ();
      timed_loop ()
  in
  (* Controlled dispatch: every runnable fiber is a candidate at every step;
     the chooser (the explorer) picks. It is called even with a single
     candidate — that call doubles as the explorer's per-step hook (state
     dedup, crash-frontier enumeration). [until] does not apply: there is
     no global time order to cut. *)
  let rec controlled_loop choose =
    let n = Hashtbl.length t.runnable in
    if n = 0 then `Done
    else begin
      let fids = Array.make n 0 in
      let i = ref 0 in
      Hashtbl.iter (fun fid _ -> fids.(!i) <- fid; incr i) t.runnable;
      Array.sort compare fids;
      let fid = choose fids in
      let resume =
        match Hashtbl.find_opt t.runnable fid with
        | Some r -> r
        | None -> failwith "Sim.run: chooser picked a non-runnable fid"
      in
      Hashtbl.remove t.runnable fid;
      resume ();
      controlled_loop choose
    end
  in
  let loop () =
    match t.chooser with
    | Some choose -> controlled_loop choose
    | None -> timed_loop ()
  in
  (* An exception escaping a fiber (e.g. a crash hook firing mid-access)
     abandons the whole run, like a power failure; reset the globals so a
     fresh simulation can be started for recovery. *)
  match loop () with
  | result -> cleanup (); result
  | exception e -> cleanup (); raise e

(** [run_horizon t ~started ~horizon ()] is [run] with a wedge watchdog
    measured from a point inside the run rather than from time 0: it cuts
    the run [horizon] ns of simulated time after [started ()], which
    reports [None] until that point is reached (a set-up of any length
    runs uncut). A correct run returns [`Done]; [`Cut] means it was still
    going at the horizon. Resuming a cut run dispatches exactly what one
    uncut run would, so the watchdog never perturbs the schedule. *)
let run_horizon t ~started ~horizon () =
  let rec go until =
    match run ~until t () with
    | `Done -> `Done
    | `Cut at as cut -> (
      match started () with
      | Some t0 when t0 + horizon <= until -> cut
      | Some t0 -> go (t0 + horizon)
      | None -> go (at + horizon))
  in
  go horizon

(* ---- fiber-facing API ---- *)

let now () = (self ()).clock

let costs () = (instance ()).costs

(** Charge [cost] ns to the running fiber.

    Causality rule: a fiber may keep executing only while it is the
    globally earliest runnable fiber. As soon as its clock passes another
    fiber's wake time it yields, so every memory operation executes in
    simulated-time order — which is what makes locks and CAS exclusion
    sound in simulated time (a fiber can never observe a "future" write
    of a logically-later fiber). *)
let tick cost =
  let f = self () in
  f.clock <- f.clock + cost;
  let t = instance () in
  match t.chooser with
  | Some _ ->
    (* Controlled mode: scheduling points live at operation *starts*
       ([Nvm.Memory.op_point] yields there), so the whole operation —
       charge plus effect — executes as one indivisible step once chosen.
       Yielding here too would split an operation across two steps and
       misattribute its memory footprint. *)
    ()
  | None ->
    if t.preempt_prob > 0.0 && Rng.float t.rng < t.preempt_prob then begin
      f.clock <- f.clock + Rng.int t.rng quantum;
      Telemetry.Registry.cur_add "sim.preemptions" 1;
      Effect.perform Yield
    end
    else
      match heap_peek t with
      | Some e when e.time < f.clock ->
        Telemetry.Registry.cur_add "sim.switches" 1;
        Effect.perform Yield
      | Some _ | None -> ()

(** Force a scheduling point without advancing time. *)
let yield () = Effect.perform Yield

(** One iteration of a spin-wait loop: charge the spin cost and give the
    scheduler a chance to run whoever we are waiting for. *)
let spin () =
  let f = self () in
  let s = instance () in
  f.clock <- f.clock + s.costs.Costs.spin;
  Telemetry.Registry.cur_add "sim.spins" 1;
  (match s.spin_hook with Some h -> h f.fid | None -> ());
  Effect.perform Yield

(** Advance the fiber's clock to [time] (no-op if already past). *)
let sleep_until time =
  let f = self () in
  if time > f.clock then f.clock <- time;
  Effect.perform Yield

let fiber_rng () = (self ()).frng
let socket () = (self ()).socket
let topology () = (instance ()).topology

(** Spawn a sibling fiber from inside a running fiber. *)
let spawn_here ~socket ?core f =
  ignore (spawn (instance ()) ~socket ?core f)

(** [fork_join jobs main] runs each [(socket, core, f)] of [jobs] as a
    child fiber starting at the caller's clock and [main ()] on the
    calling fiber, then suspends the caller until every child has
    returned. The caller resumes at the latest child's return time (or
    its own clock, if later) with [main]'s result. An exception from
    [main] propagates at once; one from a child abandons the run, like
    any fiber's. *)
let fork_join jobs main =
  let t = instance () in
  let pending = ref (List.length jobs) and last = ref 0 and wake = ref None in
  List.iter
    (fun (socket, core, f) ->
      ignore
        (spawn t ~socket ~core (fun () ->
             f ();
             last := max !last (self ()).clock;
             decr pending;
             if !pending = 0 then Option.iter (fun w -> w !last) !wake)))
    jobs;
  let r = main () in
  if !pending > 0 then Effect.perform (Park (fun w -> wake := Some w))
  else if !last > now () then sleep_until !last;
  r

(** A write-once cell: one fiber [fill]s it, any number [get] it. A read
    before the fill parks the reader until the fill, and it resumes at
    the filler's clock or at its own, if that is later. A read after the
    fill neither parks nor costs anything. *)
module Once = struct
  type 'a t = {
    mutable value : 'a option;
    mutable waiters : (int -> unit) list;  (** parked readers' wakes *)
  }

  let create () = { value = None; waiters = [] }

  let fill c v =
    if Option.is_some c.value then invalid_arg "Sim.Once.fill: already filled";
    c.value <- Some v;
    let at = now () and waiters = List.rev c.waiters in
    c.waiters <- [];
    List.iter (fun wake -> wake at) waiters

  let rec get c =
    match c.value with
    | Some v -> v
    | None ->
      Effect.perform (Park (fun wake -> c.waiters <- wake :: c.waiters));
      get c
end

(** Run [f] as a single fiber on socket 0 of a fresh default simulation and
    return its result. Convenience for tests and sequential examples. *)
let run_one ?(seed = 1L) ?(topology = Topology.default) f =
  let sim = create ~seed topology in
  let result = ref None in
  ignore (spawn sim ~socket:0 (fun () -> result := Some (f ())));
  (match run sim () with
   | `Done -> ()
   | `Cut _ -> failwith "Sim.run_one: unexpected cut");
  match !result with
  | Some r -> r
  | None -> failwith "Sim.run_one: fiber did not complete"
