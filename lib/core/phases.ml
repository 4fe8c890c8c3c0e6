(** The core phases every PREP-UC variant is profiled by — combine,
    publish, persist, catch-up, plus the detectability announce/response
    work — as telemetry spans, shared by [Prep_uc], [Cx_puc] and [Gl_uc].

    A [t option] is captured once at construction time from the ambient
    registry ([Telemetry.Registry.current ()]); [None] makes every
    [in_span] a single match on the option, so an uninstrumented run pays
    nothing. The span values are created eagerly so a profile always
    shows all phases, even ones a variant never enters. *)

type t = {
  reg : Telemetry.Registry.t;
  combine : Telemetry.Registry.span;
  publish : Telemetry.Registry.span;
  persist : Telemetry.Registry.span;
  catchup : Telemetry.Registry.span;
  detect : Telemetry.Registry.span;
      (** announce writes + flushes (worker side) and response-slot
          persistence (combiner side) under detectable execution *)
  seal : Telemetry.Registry.span;
      (** incremental-checkpoint seal: memtable drain, segment builds and
          the manifest publish ([Config.lsm_ckpt] only) *)
  compact : Telemetry.Registry.span;
      (** background segment merges on the compaction fiber
          ([Config.lsm_ckpt] only) *)
}

(** The phase names, in canonical display order. *)
let phase_names =
  [ "combine"; "publish"; "persist"; "catch-up"; "detect"; "seal"; "compact" ]

(** [make ~tag ()] suffixes every span name with [tag] (e.g.
    ["combine/shard2"]), so a multi-instance construction — the sharded
    router — shows one row per shard per phase in the profile and
    per-shard span names in the trace, instead of an indistinguishable
    merge. The empty tag keeps the canonical names. *)
let make ?(tag = "") () =
  match Telemetry.Registry.current () with
  | None -> None
  | Some reg ->
    Some
      {
        reg;
        combine = Telemetry.Registry.span reg ("combine" ^ tag);
        publish = Telemetry.Registry.span reg ("publish" ^ tag);
        persist = Telemetry.Registry.span reg ("persist" ^ tag);
        catchup = Telemetry.Registry.span reg ("catch-up" ^ tag);
        detect = Telemetry.Registry.span reg ("detect" ^ tag);
        seal = Telemetry.Registry.span reg ("seal" ^ tag);
        compact = Telemetry.Registry.span reg ("compact" ^ tag);
      }

(** [in_span tel sel f] runs [f] inside the phase selected by [sel],
    or plainly when no registry was attached. Exception-safe. *)
let in_span tel sel f =
  match tel with
  | None -> f ()
  | Some pt -> Telemetry.Registry.with_span pt.reg (sel pt) f
