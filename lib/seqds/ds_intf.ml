(** The black-box sequential object signature.

    This is the contract between a universal construction and the
    sequential data structure it lifts (paper §3, §5.2):

    - operations are invoked through a single [execute] dispatch — the
      paper's [Execute] switch over raw function pointers. An operation is
      an integer op code plus integer arguments, which is exactly what gets
      written into (and recovered from) the shared log;
    - the UC may ask whether an op code is read-only ([is_readonly]), the
      paper's optional boolean argument to [ExecuteConcurrent];
    - the UC may deep-[copy] a structure to instantiate a replica; the copy
      is a linear-time clone of the source's shape (see [S.copy]) that
      allocates through the *current* fiber allocator ([Nvm.Context]), so
      the same code builds volatile and persistent replicas;
    - [attach] reattaches a handle to a structure recovered from NVM media
      after a crash, given its persisted root address.

    The structure's entire state must live in simulated memory reached from
    the root address: the UC never sees its internals, and a crash must be
    able to take away exactly the unpersisted part. *)

(** Syntactic key-footprint classification of an operation, for backends
    that track state at per-key granularity (the incremental-checkpoint
    layer). The classification must be a pure function of the op
    descriptor — it is evaluated on raw log entries during catch-up and
    recovery, where no structure state is available:

    - [Keyed] lists every key the op may write ([written]) and every key
      it only observes ([read]); a read-modify-write key belongs in
      [written]. The dirty-object tracker marks [written] keys, and lazy
      rematerialisation resolves both sets before the op runs on a
      partially-hydrated replica;
    - [Read_all] observes the whole key space (size, aggregate queries);
    - [Opaque] is anything else — structures without per-key semantics
      (queues, stacks, priority queues) classify every op [Opaque], and
      key-granular backends must refuse to run on them. *)
type key_effect =
  | Keyed of { written : int array; read : int array }
  | Read_all
  | Opaque

module type MODEL = sig
  (** Pure reference model of the same object, for checkers. *)

  type m

  val empty : m
  val apply : m -> op:int -> args:int array -> m * int
  val snapshot : m -> int list
end

module type S = sig
  val name : string

  type handle

  (** Allocate a fresh, empty structure via the current fiber allocator. *)
  val create : Nvm.Memory.t -> handle

  (** Stable root address of the structure (what a PUC persists so it can
      find the structure again after a crash). *)
  val root_addr : handle -> int

  (** Reattach to a structure whose root block is at [addr]. *)
  val attach : Nvm.Memory.t -> int -> handle

  (** Run one operation; returns its integer response. *)
  val execute : handle -> op:int -> args:int array -> int

  val is_readonly : op:int -> bool

  (** Pure per-key footprint of an op descriptor (see [key_effect]). *)
  val classify : op:int -> args:int array -> key_effect

  (** Current value bound to [key], or [None] if absent. Charged like the
      structure's own read path. Only meaningful for structures whose ops
      classify [Keyed]; others raise [Invalid_argument]. *)
  val key_get : handle -> int -> int option

  (** Bind [key := value] (insert-or-replace), charged like the
      structure's own write path — the rematerialisation primitive of the
      incremental-checkpoint layer. Only meaningful for structures whose
      ops classify [Keyed]; others raise [Invalid_argument]. *)
  val key_put : handle -> int -> int -> unit

  (** Deep copy into the current fiber allocator. The contract:
      - shape-preserving: the copy has the source's layout (tree shape and
        colours, bucket capacity and chain order, tower heights, element
        order), element for element, and shares no node with it;
      - O(n) memory accesses in the number of live elements: each source
        element is read, and each copy element allocated and written, a
        constant number of times;
      - never re-executes the history: the copy is cloned from the
        source's current shape, not rebuilt by inserts that search,
        rebalance or resize. (The queue, stack and priority queue append
        in the source's order through their O(1) push paths; a heap in
        array order never sifts.)
      The UC copies a replica at set-up, at every recovery and (CX-PUC)
      on every update, so this is on the recovery-to-first-op path. *)
  val copy : handle -> handle

  (** Cost-free canonical observation of the current (coherent) state, for
      checkers only. *)
  val snapshot : handle -> int list

  module Model : MODEL
end
