(** One epoch: the scaffold every simulated run but the explorer's
    controlled schedules runs in — a crash checker's incarnation of the
    system or a measured window.

    An epoch is a fresh [Sim] whose one socket-0 fiber runs a set-up
    (create the system, or recover it and judge the recovery) and then a
    body (the workload, usually [run_workers]). [run] arms the crash plan
    when set-up returns, bounds the run by a wedge horizon — counted from
    time 0 until set-up returns and from the end of set-up after that —
    and reports how the epoch ended. It only reports a power failure: the
    caller crashes the memory ([Memory.crash]) before it recovers.

    The horizon is checked between dispatches: a set-up that runs alone
    on the epoch's fiber is never cut part-way.

    The fuzzer's episodes and recoveries, every [Harness.Session] epoch,
    the explorer's recoveries, [Harness.Experiment.run]'s and
    [Harness.Openloop.run]'s measured windows and bench ckptscale's
    workload and recovery all run through [run]. *)

open Nvm

type crash_point =
  | At_op of int
      (** power failure once [n] memory operations issued after set-up
          have taken effect, as the next one starts *)
  | At_time of int
      (** power failure at this simulated time (ns) of the epoch, which
          may land inside set-up *)
  | No_crash  (** run to quiescence; check the final state instead *)

type ended = Quiescent | Crashed | Wedged

type 'a t = {
  ended : ended;
  set_up : 'a option;  (** [None]: set-up never returned *)
  runtime_ops : int;  (** memory operations issued after set-up *)
  end_ns : int;  (** simulated ns at which the body returned (0 if not) *)
}

(** Run [set_up] then [body] in a fresh simulation on [topology], under
    [crash] and a wedge [horizon] (simulated ns). [mem] is the memory the
    crash plan counts operations of. *)
let run ~topology ~seed ~preempt_prob ~mem ~horizon ~crash ~set_up ~body =
  let exception Crash_injected in
  let sim = Sim.create ~seed ~preempt_prob topology in
  let value = ref None and setup_ops = ref 0 in
  let setup_ns = ref 0 and end_ns = ref 0 in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let v = set_up () in
         value := Some v;
         setup_ops := Memory.op_index mem;
         setup_ns := Sim.now ();
         (match crash with
          | At_op n ->
            Memory.set_crash_hook mem (fun i ->
                if i - !setup_ops >= n then raise Crash_injected)
          | At_time _ | No_crash -> ());
         body v;
         end_ns := Sim.now ()));
  let cut_at =
    match crash with At_time ns -> ns | At_op _ | No_crash -> max_int
  in
  (* cutting a run and resuming it dispatches exactly what one uncut run
     would, so neither bound perturbs the schedule *)
  let rec go until =
    match Sim.run ~until:(min until cut_at) sim () with
    | `Done -> Quiescent
    | `Cut _ when cut_at <= until -> Crashed
    | `Cut _ ->
      let limit = !setup_ns + horizon in
      if limit <= until then Wedged else go limit
  in
  let ended = try go horizon with Crash_injected -> Crashed in
  Memory.clear_crash_hook mem;
  {
    ended;
    set_up = !value;
    runtime_ops =
      (if Option.is_some !value then Memory.op_index mem - !setup_ops else 0);
    end_ns = !end_ns;
  }

(** The workload body the fuzzer and the session share: [start] the
    system's persistence, run [worker w] for each of [threads] workers on
    the core [Sim.Topology.place] gives it, wait for them all, then
    [finish] (stop and sync the system). *)
let run_workers ~threads ~start ~finish worker =
  start ();
  let topology = Sim.topology () in
  let done_count = ref 0 in
  for w = 0 to threads - 1 do
    let socket, core = Sim.Topology.place topology w in
    Sim.spawn_here ~socket ~core (fun () ->
        worker w;
        incr done_count)
  done;
  while !done_count < threads do
    Sim.tick 10_000
  done;
  finish ()
