(** The checkpoint-backend signature of [Prep_uc] (DESIGN.md §8): the
    paper's persistent replica pair ([Classic_ckpt]) or the incremental
    log-structured store ([Lsm_ckpt]). [Prep_uc] picks one [kit] from
    [Config.lsm_ckpt] and reaches the checkpoint through nothing else.
    ['h] is the sequential object's handle.

    Recovery runs four steps, one contract each for both backends:
    {b mount} reads the stable checkpoint and writes nothing; {b replay}
    builds every replica as a copy of its master with the log suffix
    replayed into it and writes nothing durable; {b install}
    ([Prep_uc.build]) writes the gap record naming the mounted
    checkpoint's [stamp]; {b commit} names the copies the stable
    checkpoint and ends when [Prep_uc] clears [slot_pending]. Until then a
    crash recovers the named checkpoint, its log suffix and the new log's
    durable prefix. *)

open Nvm

(* The root slot, relative to [Config.root_base], naming the persistence
   thread's active replica (p_activePReplica); [Prep_uc] owns the
   instance's other shared slots. *)
let slot_active = 1

(** One of the persistence thread's two replicas: [meta]'s first word is
    its tail, [pds] the handle it catches up. *)
type 'h replica = { meta : int; mutable pds : 'h }

(** What [Prep_uc.build] hands a backend. *)
type env = {
  mem : Memory.t;
  roots : Roots.t;
  cfg : Config.t;
  pa : Alloc.t option;  (** the persistent heap; [None] when volatile *)
  p_socket : int;
  log : Log.t;
  tails : int * int;  (** two zeroed DRAM words, for replica tails *)
  replicas : int;  (** volatile replicas *)
  tel : Phases.t option;
}

type 'h backend = {
  prepare : int -> 'h -> op:int -> args:int array -> unit;
      (** [prepare rid h ~op ~args], before volatile replica [rid]'s handle
          [h] runs [op], under its write lock or in replay: make the op's
          keys present in [h] (lsm: rematerialise the ones a recovered
          replica lacks). *)
  needs_write : int -> op:int -> args:int array -> bool;
      (** Cost-free: would [prepare rid] write? A reader then takes the
          write lock for this op. *)
  catch_up : 'h -> op:int -> args:int array -> unit;
      (** The persistence thread applies one log entry to its replica;
          replay applies the suffix to each [copy] with it. *)
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

(** A recovery's persistence side. *)
type 'h rebuild = {
  copy : background:bool -> helpers:(int * int) list -> int -> (unit -> 'h) -> unit;
      (** Replay: build copy [i] from [clone ()], the master with the
          suffix replayed through [catch_up], split across [helpers];
          [background] when it runs on past the first op. Raises on torn
          media. *)
  commit : defer:((unit -> unit) -> unit) -> 'h replica array;
      (** Commit every built copy, each durable write through [defer]
          (after [install]: at once in the background, else queued for
          [install] behind the gap record), and return the persistence
          thread's replicas. *)
}

(** What mount read. *)
type 'h stable = {
  covered : int;  (** the checkpoint holds log entries [0, covered) *)
  stamp : int;  (** the word a gap record names it by *)
  master : 'h option;  (** what every replica copies; [None]: empty *)
  recover : env -> 'h backend * 'h rebuild;
}

type 'h kit = {
  copies : int;  (** the persistence side's copies a recovery builds *)
  mount : Memory.t -> Roots.t -> Config.t -> stamp:int option -> 'h stable;
      (** The checkpoint a gap record's [stamp] names, or the committed
          one. *)
  create : env -> master:'h -> first:'h -> 'h replica array * 'h backend;
      (** Checkpoint zero of [master] ([first], volatile replica 0, is a
          copy of it), durable and named by the roots at once. *)
}
