(** The checkpoint-backend signature of [Prep_uc] (DESIGN.md §8): the
    paper's persistent replica pair ([Prep_uc.classic]) or the incremental
    log-structured store ([Lsm_ckpt]). [Prep_uc.build] picks one from
    [Config.lsm_ckpt] and recovery's [Prep_uc.mount] mounts the same one;
    every other checkpoint decision goes through these hooks. Mount and
    replay are the backends' constructors, not hooks. ['h] is the
    sequential object's handle. *)
type 'h backend = {
  prepare : int -> 'h -> op:int -> args:int array -> unit;
      (** [prepare rid h ~op ~args], before volatile replica [rid]'s handle
          [h] runs [op], under its write lock: make the op's keys present
          in [h] (lsm: rematerialise the ones a recovered replica lacks). *)
  needs_write : int -> op:int -> args:int array -> bool;
      (** Cost-free: would [prepare rid] write? A reader then takes the
          write lock for this op. *)
  catch_up : 'h -> op:int -> args:int array -> unit;
      (** The persistence thread applies one log entry to its replica. *)
  poll : unit -> unit;
      (** Once per persistence-loop iteration, before the boundary check:
          take in finished background work (lsm: a merge). *)
  checkpoint : unit -> unit;
      (** Make the caught-up state durable and name it the stable
          checkpoint, never ahead of the durable log. *)
  span : Phases.t -> Telemetry.Registry.span;  (** [checkpoint]'s phase *)
  background : (stopped:(unit -> bool) -> unit) option;
      (** A fiber run on the persistence core until [stopped ()] (lsm:
          compaction). *)
  counters : unit -> (string * int) list;
      (** Bench-JSON counters: the same keys from both backends. *)
  ghost : unit -> int;
      (** Hash of the volatile state the memory fingerprints cannot see,
          for the explorer's state dedup; 0 if there is none. *)
  snapshot : 'h -> int list;
      (** Cost-free abstract state, through replica 0's handle. *)
}
