(** Observation of one simulated run from outside the layers.

    [wrap_system] wraps an [Experiment.system]: its [make] learns the
    memory, the set-up end and the measurement window; the instance's
    [exec]/[exec_batch] record every operation's invocation and response
    on the simulated clock, and its [teardown] first reads back every key
    the run touched. [wrap_workload] stamps each arrival of an open-loop
    generator. All of it reads [Sim.now] and harness-side state only, so
    the wrapped run follows exactly the schedule of the bare one. *)

open Harness

type t = {
  warmup_ns : int;
  duration_ns : int;
  open_loop : bool;
      (** latency runs from the arrival stamped by the wrapped [next]
          (sojourn), not from the call to [exec] *)
  is_update : int -> bool;
  keys_of : op:int -> args:int array -> int list;
  op_get : int;
  checkpoints : unit -> int;  (** checkpoints completed so far *)
  tel : Telemetry.Registry.t option;
      (** traced runs: each operation becomes an ["op"] root span *)
  read_back : bool;  (** read back every touched key at teardown *)
  mutable mem : Nvm.Memory.t option;
  mutable ready : int;  (** simulated time at which set-up finished *)
  mutable host_ready : float;  (** process CPU seconds at set-up end *)
  mutable ready_snap : Telemetry.Registry.snapshot;
  mutable end_snap : Telemetry.Registry.snapshot;
  mutable ready_calls : int * int;  (** [Timed] calls and ns at set-up end *)
  mutable end_calls : int * int;  (** the same once the workers drained *)
  mutable end_ops : int;  (** operations executed by then *)
  mutable measure_start : int;
  mutable deadline : int;
  lat : Stats.vec;  (** in-window latencies (sojourns in open loop) *)
  service : Stats.vec;  (** in-window [exec] durations *)
  wait : Stats.vec;  (** in-window admission-queue waits (open loop) *)
  mutable window_ops : int;
  mutable window_updates : int;
  mutable writes0 : int array;  (** [media_writes] at the window start *)
  mutable writes1 : int array;  (** and at its end; empty until taken *)
  mutable ckpt0 : int;
  mutable ckpt1 : int;
  arrivals : int Queue.t;
  mutable history : Check.History.event list;  (** newest first *)
  mutable n_history : int;
  mutable readback : (int * int) list;  (** (key, value) at the end *)
}

let create ?tel ?(open_loop = false) ?(read_back = true) ~warmup_ns ~duration_ns
    ~is_update ~keys_of ~op_get ~checkpoints () =
  {
    warmup_ns;
    duration_ns;
    open_loop;
    is_update;
    keys_of;
    op_get;
    checkpoints;
    tel;
    read_back;
    mem = None;
    ready = 0;
    host_ready = 0.0;
    ready_snap = Telemetry.Registry.empty_snapshot;
    end_snap = Telemetry.Registry.empty_snapshot;
    ready_calls = (0, 0);
    end_calls = (0, 0);
    end_ops = 0;
    measure_start = 0;
    deadline = 0;
    lat = Stats.vec ();
    service = Stats.vec ();
    wait = Stats.vec ();
    window_ops = 0;
    window_updates = 0;
    writes0 = [||];
    writes1 = [||];
    ckpt0 = -1;
    ckpt1 = -1;
    arrivals = Queue.create ();
    history = [];
    n_history = 0;
    readback = [];
  }

(** Lines written to NVM media so far, by cause: write-backs queued by
    CLWB, CLFLUSH media writes, lines written back by WBINVD and
    background evictions. *)
let media_writes mem =
  let s = Nvm.Memory.stats mem in
  Nvm.Memory.[| s.clwb; s.clflush; s.wbinvd_lines; s.bg_flushes |]

let write_causes = [| "clwb"; "clflush"; "wbinvd_lines"; "bg_flushes" |]

(** Media line writes inside the window, by cause. *)
let window_writes r = Array.map2 ( - ) r.writes1 r.writes0

let in_window r t = t > r.measure_start && t <= r.deadline

let timed_calls () = Timed.(totals.calls, totals.call_ns)

let snap r =
  match r.tel with
  | Some reg -> Telemetry.Registry.snapshot reg
  | None -> Telemetry.Registry.empty_snapshot

let note_start r t =
  if r.writes0 = [||] && t >= r.measure_start then begin
    r.writes0 <- media_writes (Option.get r.mem);
    r.ckpt0 <- r.checkpoints ()
  end

let note_end r t =
  if r.writes1 = [||] && t > r.deadline then begin
    r.writes1 <- media_writes (Option.get r.mem);
    r.ckpt1 <- r.checkpoints ()
  end

let record r ~t_inv ~t_resp ~op ~args ~resp =
  r.history <-
    { Check.History.thread = (Sim.self ()).Sim.fid; t_inv; t_resp; op; args; resp }
    :: r.history;
  r.n_history <- r.n_history + 1

let in_op_span r f =
  match r.tel with
  | Some reg -> Telemetry.Registry.with_span reg (Telemetry.Registry.span reg "op") f
  | None -> f ()

let exec r (inst : Experiment.instance) ~op ~args =
  let t_inv = Sim.now () in
  let arrived = if r.open_loop then Queue.pop r.arrivals else t_inv in
  note_start r t_inv;
  let resp = in_op_span r (fun () -> inst.Experiment.exec ~op ~args) in
  let t_resp = Sim.now () in
  record r ~t_inv ~t_resp ~op ~args ~resp;
  note_end r t_resp;
  if in_window r t_resp then begin
    Stats.push r.lat (t_resp - arrived);
    Stats.push r.service (t_resp - t_inv);
    Stats.push r.wait (t_inv - arrived);
    r.window_ops <- r.window_ops + 1;
    if r.is_update op then r.window_updates <- r.window_updates + 1
  end;
  resp

(* A pipelined batch counts only when it ran entirely inside the window,
   which is [Experiment.run]'s rule; every op of it shares the batch's
   interval and the client sees one latency for the whole batch. *)
let batch r f ops =
  let t_inv = Sim.now () in
  note_start r t_inv;
  let resps = in_op_span r (fun () -> f ops) in
  let t_resp = Sim.now () in
  Array.iteri
    (fun i (op, args) -> record r ~t_inv ~t_resp ~op ~args ~resp:resps.(i))
    ops;
  note_end r t_resp;
  if t_inv > r.measure_start && t_resp <= r.deadline then begin
    Stats.push r.lat (t_resp - t_inv);
    Stats.push r.service (t_resp - t_inv);
    r.window_ops <- r.window_ops + Array.length ops;
    Array.iter
      (fun (op, _) ->
        if r.is_update op then r.window_updates <- r.window_updates + 1)
      ops
  end;
  resps

(** Close the observation once the workers have stopped. *)
let mark_end r =
  if r.writes1 = [||] then r.writes1 <- media_writes (Option.get r.mem);
  if r.ckpt1 < 0 then r.ckpt1 <- r.checkpoints ();
  r.end_snap <- snap r;
  r.end_calls <- timed_calls ();
  r.end_ops <- r.n_history

(* Runs on the harness's supervisor fiber once every worker has drained:
   read back every key the run touched, through the construction, so the
   final state joins the checked history. The per-layer numbers end at
   [mark_end], before it. *)
let read_back r (inst : Experiment.instance) =
  mark_end r;
  let keys = Hashtbl.create 4096 in
  List.iter
    (fun (e : Check.History.event) ->
      List.iter
        (fun k -> Hashtbl.replace keys k ())
        (r.keys_of ~op:e.Check.History.op ~args:e.Check.History.args))
    r.history;
  let keys = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) keys []) in
  inst.Experiment.register ();
  r.readback <-
    List.map
      (fun k ->
        let args = [| k |] in
        let t_inv = Sim.now () in
        let v = inst.Experiment.exec ~op:r.op_get ~args in
        record r ~t_inv ~t_resp:(Sim.now ()) ~op:r.op_get ~args ~resp:v;
        (k, v))
      keys

let wrap_system r (sys : Experiment.system) =
  if sys.Experiment.duration_factor <> 1 then
    invalid_arg "Record.wrap_system: stretched systems are not supported";
  {
    sys with
    Experiment.make =
      (fun mem roots ~workers ~prefill ->
        let inst = sys.Experiment.make mem roots ~workers ~prefill in
        r.mem <- Some mem;
        r.ready <- Sim.now ();
        r.host_ready <- Sys.time ();
        r.ready_snap <- snap r;
        r.ready_calls <- timed_calls ();
        r.measure_start <- r.ready + r.warmup_ns;
        r.deadline <- r.measure_start + r.duration_ns;
        {
          inst with
          Experiment.exec = (fun ~op ~args -> exec r inst ~op ~args);
          exec_batch = Option.map (fun f ops -> batch r f ops) inst.Experiment.exec_batch;
          teardown =
            (fun () ->
              if r.read_back then read_back r inst else mark_end r;
              inst.Experiment.teardown ());
        });
  }

(** Stamp every arrival an open-loop generator draws. The generator
    draws an operation exactly when it enqueues it, and service workers
    dequeue in FIFO order straight into [exec], so the k-th stamp belongs
    to the k-th service start. *)
let wrap_workload r (w : Workload.t) =
  {
    w with
    Workload.next =
      (fun rng ~phase ->
        Queue.push (Sim.now ()) r.arrivals;
        w.Workload.next rng ~phase);
  }

(** Open loop, after the run: arrivals of the window still queued at the
    deadline get the censored sojourn [deadline - arrival], as [Openloop]
    does. Returns how many there were. *)
let censor_backlog r =
  let n = ref 0 in
  Queue.iter
    (fun a ->
      if in_window r a then begin
        Stats.push r.lat (r.deadline - a);
        incr n
      end)
    r.arrivals;
  !n

let history r = List.rev r.history
