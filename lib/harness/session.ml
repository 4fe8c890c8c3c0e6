(** Crash–restart–continue sessions: the end-to-end exactly-once harness.

    A session gives every client thread a fixed script of update operations
    and runs it to completion across [crashes] full-system power failures.
    Each epoch is one simulated incarnation: the first builds the UC, every
    later one recovers it from NVM media and lets the clients resume.

    How a client resumes is the point of the harness:

    - with [detect] on, the client consults [Prep_uc.resolve] — and nothing
      else — to learn where its script stands: [Completed s] resumes at
      [s + 1], [Lost s] re-submits [s] (same seqno, so the system can
      deduplicate), [Unannounced] restarts the script. The session's
      cumulative history must then contain every scripted op exactly once;
    - with [detect] off, the client cannot distinguish "my in-flight op
      applied" from "it was lost", so the honest client never re-submits
      and skips past it. The harness counts those ghost-truth losses —
      the baseline the detectability layer exists to eliminate.

    Every crash is additionally judged by [Durable_lin.check] (loss bound 0
    — sessions run PREP-Durable) and, under [detect], by
    [Durable_lin.check_resolutions] against the cumulative tagged history.
    The final state is judged by [Durable_lin.check_exactly_once].

    Every epoch runs through the checkers' crash-epoch driver
    ([Check.Epoch.run]), with create/recover as its set-up. Crashes are
    injected at calibrated memory-operation indexes counted from the end
    of set-up: a restart epoch never loses power mid-recovery
    (crash-during-recovery is outside the paper's model).

    A wedged system fails the session instead of hanging it: every epoch
    runs under the fuzzer's simulated-time horizon
    ([Check.Fuzz.wedge_horizon_ns]), counted from the end of
    create/recover (and bounding create/recover itself), and an epoch
    still running there ends the session with [Durable_lin.Wedged]. A
    recovery that raises (torn media, or a checkpoint that never reached
    it) ends the session with [Durable_lin.Recovery_raised]. *)

open Nvm

type config = {
  seed : int;  (** seeds scripts, schedules and crash points *)
  threads : int;  (** client threads (≤ total cores − 1) *)
  ops_per_client : int;  (** scripted update ops per client *)
  epsilon : int;
  log_size : int;
  crashes : int;  (** crash epochs to inject (best effort: a session that
                      finishes early injects fewer) *)
  detect : bool;  (** detectable execution: resume via [resolve] *)
  lsm_ckpt : bool;  (** the incremental checkpoint backend *)
  fault : Prep.Config.fault;  (** planted protocol fault, for the checks' teeth *)
}

let default_config =
  {
    seed = 1;
    threads = 4;
    ops_per_client = 40;
    epsilon = 8;
    log_size = 1024;
    crashes = 3;
    detect = true;
    lsm_ckpt = false;
    fault = Prep.Config.No_fault;
  }

(** How a session epoch ended. *)
type status =
  | Ended of Check.Epoch.ended
      (** its set-up returned, then its clients ran to quiescence, were
          cut by a power failure, or wedged *)
  | Recovery_raised  (** its recovery raised: no client ran *)

let status_to_string = function
  | Ended Check.Epoch.Quiescent -> "quiescent"
  | Ended Check.Epoch.Crashed -> "crashed"
  | Ended Check.Epoch.Wedged -> "wedged"
  | Recovery_raised -> "recovery raised"

type epoch_info = {
  epoch : int;
  status : status;
  resubmitted : int;  (** ops re-submitted during this epoch (post-restart) *)
}

type outcome = {
  epochs : epoch_info list;
  crashes_injected : int;
  submitted : int;  (** execute calls issued, resubmissions included *)
  resubmitted : int;  (** execute calls that repeated an earlier seqno *)
  completed : int;  (** scripted ops present in the final state *)
  lost : int;  (** scripted ops that never took effect *)
  duplicated : int;  (** scripted ops that took effect more than once *)
  violations : Check.Durable_lin.violation list;
  history_len : int;  (** ops applied across all epochs (survivors) *)
  runtime_ops : int;  (** memory operations issued outside construction *)
  duration_ns : int;  (** simulated ns summed over completed epochs *)
  mem_stats : Memory.stats;
}

module Make (Ds : Seqds.Ds_intf.S) = struct
  module Uc = Prep.Prep_uc.Make (Ds)
  module Dl = Check.Durable_lin.Make (Ds.Model)

  (* sessions run on the fuzzer's machine *)
  let tid = Sim.Topology.tid Check.Fuzz.topology

  (** Run one session. [gen_op] draws candidate ops; read-only draws are
      re-drawn (scripts are updates — only updates are announced, and the
      exactly-once contract is about effects). The session is a
      deterministic function of [cfg]. *)
  let rec run (cfg : config) ~gen_op =
    if cfg.threads < 1 || cfg.threads > Check.Fuzz.max_threads then
      invalid_arg "Session: thread count out of range";
    if cfg.crashes < 0 then invalid_arg "Session: negative crash count";
    (* calibration: the same session without crashes sizes the
       crash-point space (memory ops per full run) *)
    let calib =
      if cfg.crashes = 0 then None else Some (run { cfg with crashes = 0 } ~gen_op)
    in
    let horizon =
      Check.Fuzz.wedge_horizon_ns ~ops:(cfg.threads * cfg.ops_per_client)
    in
    let crash_rng =
      Sim.Rng.create (Int64.of_int ((cfg.seed * 1_000_003) + 41))
    in
    let pick_crash () =
      match calib with
      | None -> assert false
      | Some c ->
        (* one slice of the full run per crash, so epochs make progress *)
        let slice = max 1 (c.runtime_ops / (cfg.crashes + 1)) in
        Check.Fuzz.At_op (1 + Sim.Rng.int crash_rng slice)
    in
    (* per-client scripts, drawn once outside the simulation *)
    let script_rng =
      Sim.Rng.create (Int64.of_int ((cfg.seed * 1_000_003) + 29))
    in
    let draw_update rng =
      let rec go budget =
        if budget = 0 then invalid_arg "Session: gen_op never yields updates";
        let op, args = gen_op rng in
        if Ds.is_readonly ~op then go (budget - 1) else (op, args)
      in
      go 1_000
    in
    let scripts =
      Array.init cfg.threads (fun _ ->
          Array.init cfg.ops_per_client (fun _ -> draw_update script_rng))
    in
    let mem =
      Memory.make
        ~seed:(Int64.of_int (cfg.seed + 7919))
        ~sockets:Check.Fuzz.topology.Sim.Topology.sockets
        ~bg_period:Check.Fuzz.bg_period ()
    in
    let uc_cfg =
      Prep.Config.make ~mode:Prep.Config.Durable ~log_size:cfg.log_size
        ~epsilon:cfg.epsilon ~detect:cfg.detect ~lsm_ckpt:cfg.lsm_ckpt
        ~fault:cfg.fault
        ~workers:cfg.threads ()
    in
    (* client ghost state; [next] is rebuilt from [resolve] on restart when
       detectability is on, so it is client knowledge, not an oracle *)
    let next = Array.make cfg.threads 1 in
    let submitted = Array.make cfg.threads 0 in
    let submit_total = ref 0 in
    let resubmit_total = ref 0 in
    let history = ref [] in
    let violations = ref [] in
    let epoch_infos = ref [] in
    let uc_ref = ref None in
    let recovery_raised = ref false in
    let crashes_done = ref 0 in
    let duration = ref 0 in
    let runtime_ops = ref 0 in
    let applied_seqno_cum tid =
      List.fold_left
        (fun acc (t, s, _, _) -> if t = tid && s > acc then s else acc)
        0 !history
    in

    (* append entry [i] of [trace] to the cumulative history *)
    let survived trace i =
      let e = Prep.Trace.get trace i in
      history :=
        ( e.Prep.Trace.tid,
          e.Prep.Trace.seqno,
          e.Prep.Trace.op,
          e.Prep.Trace.args )
        :: !history
    in

    (* restart epoch's set-up: recover, judge the crash, append the
       survivors to the cumulative history, resume clients; [None] when
       the recovery raised, which is the verdict *)
    let restart old_uc =
      let old_trace = Uc.trace old_uc in
      match Uc.recover old_uc with
      | exception (Invalid_argument msg | Failure msg) ->
        violations := !violations @ [ Check.Durable_lin.Recovery_raised msg ];
        recovery_raised := true;
        None
      | uc', report ->
      let completed = Prep.Trace.completed_indexes old_trace in
      violations :=
        !violations
        @ Dl.check ~trace:old_trace ~prefill:(Uc.prefill_ops old_uc)
            ~applied:report.Prep.Prep_uc.applied ~completed
            ~recovered_snapshot:(Uc.snapshot uc') ~loss_bound:0 ();
      List.iter (survived old_trace) report.Prep.Prep_uc.applied;
      if cfg.detect then begin
        let resolutions =
          List.init cfg.threads (fun w -> (tid w, Uc.resolve uc' ~tid:(tid w)))
        in
        violations :=
          !violations
          @ Check.Durable_lin.check_resolutions ~resolutions
              ~applied_seqno:applied_seqno_cum;
        List.iteri
          (fun w (_, r) ->
            let resume =
              match (r : Prep.Prep_uc.resolution) with
              | Prep.Prep_uc.Completed { seqno; _ } -> seqno + 1
              | Prep.Prep_uc.Lost { seqno } -> seqno
              | Prep.Prep_uc.Unannounced -> 1
            in
            next.(w) <- min resume (cfg.ops_per_client + 1))
          resolutions
      end
      else
        (* no detectability: skip past the uncertain in-flight op rather
           than risk a duplicate *)
        Array.iteri (fun w s -> next.(w) <- max next.(w) (s + 1)) submitted;
      Some uc'
    in

    (* one epoch: create or recover, then the clients run their scripts
       from [next] *)
    let run_epoch crash =
      let epoch = List.length !epoch_infos in
      let resub_here = ref 0 in
      let run =
        Check.Epoch.run ~topology:Check.Fuzz.topology
          ~seed:(Int64.of_int (cfg.seed + (31 * epoch)))
          ~preempt_prob:Check.Fuzz.preempt_prob ~mem ~horizon ~crash
          ~set_up:(fun () ->
            match !uc_ref with
            | None -> Some (Uc.create mem (Roots.make mem) uc_cfg)
            | Some old_uc -> restart old_uc)
          ~body:(Option.iter @@ fun uc ->
            Check.Epoch.run_workers ~threads:cfg.threads
              ~start:(fun () -> Uc.start_persistence uc)
              ~finish:(fun () ->
                Uc.stop uc;
                Uc.sync uc)
              (fun w ->
                Uc.register_worker uc;
                while next.(w) <= cfg.ops_per_client do
                  let s = next.(w) in
                  let op, args = scripts.(w).(s - 1) in
                  if s <= submitted.(w) then begin
                    incr resubmit_total;
                    incr resub_here;
                    Telemetry.Registry.cur_add "detect.resubmit" 1
                  end;
                  if s > submitted.(w) then submitted.(w) <- s;
                  incr submit_total;
                  ignore (Uc.execute uc ~seqno:s ~op ~args);
                  next.(w) <- s + 1
                done))
      in
      Option.iter (Option.iter (fun uc -> uc_ref := Some uc)) run.set_up;
      runtime_ops := !runtime_ops + run.runtime_ops;
      let ended = run.ended in
      if ended = Quiescent then
        duration := !duration + run.end_ns;
      epoch_infos :=
        { epoch;
          status = (if !recovery_raised then Recovery_raised else Ended ended);
          resubmitted = !resub_here }
        :: !epoch_infos;
      ended
    in

    let rec epochs () =
      let crash =
        if !crashes_done < cfg.crashes then pick_crash ()
        else Check.Fuzz.No_crash
      in
      match run_epoch crash with
      | ended when !recovery_raised -> ended
      | Crashed ->
        incr crashes_done;
        Memory.crash mem;
        Context.reset ();
        epochs ()
      | (Quiescent | Wedged) as ended -> ended
    in
    let ended = epochs () in

    let uc = Option.get !uc_ref in
    if ended = Quiescent && not !recovery_raised then begin
      (* final epoch ran to quiescence: its whole trace applied *)
      let trace = Uc.trace uc in
      for i = 0 to Prep.Trace.length trace - 1 do
        survived trace i
      done
    end;
    let history = List.rev !history in
    let scripted =
      if not cfg.detect then []
      else
        List.concat
          (List.init cfg.threads (fun w ->
               List.init cfg.ops_per_client (fun i -> (tid w, i + 1))))
    in
    violations :=
      !violations
      @ (if !recovery_raised then
           (* no final state to judge: the raise is the session's failure *)
           []
         else if ended = Wedged then
           (* nor after a wedge, the session's failure *)
           [ Check.Durable_lin.Wedged { horizon_ns = horizon } ]
         else
           Dl.check_exactly_once ~history ~scripted
             ~recovered_snapshot:(Uc.snapshot uc) ());
    (* lost/duplicated accounting: exact per-(tid, seqno) under [detect];
       per-thread totals otherwise (seqno tags are only written under
       [detect]) — sound because without resubmission each scripted op is
       submitted, hence applied, at most once *)
    let total_scripted = cfg.threads * cfg.ops_per_client in
    let lost, duplicated =
      if cfg.detect then begin
        let counts = Hashtbl.create 256 in
        List.iter
          (fun (t, s, _, _) ->
            if s > 0 then
              Hashtbl.replace counts (t, s)
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts (t, s))))
          history;
        let lost = ref 0 and dup = ref 0 in
        for w = 0 to cfg.threads - 1 do
          for s = 1 to cfg.ops_per_client do
            match Hashtbl.find_opt counts (tid w, s) with
            | None -> incr lost
            | Some 1 -> ()
            | Some _ -> incr dup
          done
        done;
        (!lost, !dup)
      end
      else begin
        let per_tid = Hashtbl.create 16 in
        List.iter
          (fun (t, _, _, _) ->
            Hashtbl.replace per_tid t
              (1 + Option.value ~default:0 (Hashtbl.find_opt per_tid t)))
          history;
        let lost = ref 0 in
        for w = 0 to cfg.threads - 1 do
          let n = Option.value ~default:0 (Hashtbl.find_opt per_tid (tid w)) in
          lost := !lost + max 0 (cfg.ops_per_client - n)
        done;
        (!lost, 0)
      end
    in
    {
      epochs = List.rev !epoch_infos;
      crashes_injected = !crashes_done;
      submitted = !submit_total;
      resubmitted = !resubmit_total;
      completed = total_scripted - lost;
      lost;
      duplicated;
      violations = !violations;
      history_len = List.length history;
      runtime_ops = !runtime_ops;
      duration_ns = max 1 !duration;
      mem_stats = Memory.stats mem;
    }

  (** [sessions] independent sessions on consecutive seeds, evaluated by
      [Campaign.run ~j] (each session is a self-contained sim, so the
      outcome list is identical at any [j]). *)
  let campaign ?(j = 1) (cfg : config) ~gen_op ~sessions =
    Array.to_list
      (Campaign.run ~j
         (Array.init sessions (fun i () ->
              run { cfg with seed = cfg.seed + i } ~gen_op)))
end
