(** The persistency-policy layer: every flush/fence call site in the
    codebase, as a closed variant, with a per-site policy deciding what
    the simulated hardware primitive actually does.

    The FliT layer ([Memory.set_flit]) elides flushes *dynamically* — a
    CLWB on a line whose media is already current costs only a tag check.
    The line of work this module follows (Guo et al., "Automated Insertion
    of Flushes and Fences for Persistency") argues for the stronger
    *static* form: compute a minimal per-site flush/fence set that still
    satisfies durable linearizability, and drop the rest at the call site,
    tag checks and all. That requires persistency to be a first-class,
    switchable *policy* rather than hard-coded instructions, which is what
    this module provides:

    - [site]: one constructor per flush/fence call site. The memory
      primitives take a site as a mandatory argument, so an unlabelled
      flush cannot exist (the compiler surfaces any new site), and every
      site gets per-site emitted/elided telemetry for free.
    - [action]: what the policy does at a site — emit the instruction as
      written, elide it entirely, downgrade a blocking CLFLUSH to an
      asynchronous CLWB, or defer an SFENCE to the next emitted fence.
    - [policy]: a site-indexed action table, serializable to/from JSON so
      an inferred set can flow between [optimize-persist], the fuzzer, the
      explorer and the benchmarks ([Config.persist_policy]).

    The inference pass that searches this space lives in
    [Check.Persist_infer]; this module is mechanism only. *)

type site =
  (* shared circular log (lib/core/log.ml) *)
  | Log_persist_entry  (** per-entry CLWB of a just-written log line *)
  | Log_persist_range  (** line sweep of the lsm seal's replay window *)
  | Log_fence_payload  (** combine phase 1: fence after payload write-backs *)
  | Log_fence_publish  (** combine phase 2: fence after emptyBit write-backs *)
  | Log_fence  (** other log fences (lsm seal sweep, tests) *)
  (* core construction (lib/core/prep_uc.ml) *)
  | Prep_init  (** completedTail word flushed at construction *)
  | Prep_completed_tail  (** §5.2 CLFLUSH after advancing completedTail *)
  | Prep_checkpoint  (** WBINVD / heap walk + fence of the checkpoint *)
  (* detectability layer (lib/nvm/announce.ml) *)
  | Detect_announce_init  (** zeroed announce/response table at create *)
  | Detect_announce  (** announce record CLFLUSH before slot publish *)
  | Detect_response  (** response-line CLWBs + per-round fence *)
  (* incremental checkpoint (lib/nvm/segment.ml, manifest.ml) *)
  | Manifest_publish  (** manifest record write-backs + fence *)
  | Segment_body  (** sealed segment body sweep + fence *)
  | Segment_seal  (** segment seal-word write-back + fence *)
  (* allocator and roots (lib/nvm/alloc.ml, roots.ml) *)
  | Alloc_persist_heap  (** whole-heap arena walk + fence *)
  | Roots_set  (** root-directory slot CLFLUSH *)
  (* cross-shard transactions (lib/core/sharded_uc.ml) *)
  | Txn_decision  (** commit-decision slot CLFLUSH + fence (commit point) *)
  | Txn_gate  (** decision write-back queued before the checkpoint fence *)
  (* CX-PUC baseline (lib/core/cx_puc.ml) *)
  | Cx_dir_init  (** replica directory flushed at construction *)
  | Cx_replica_dir  (** lazily instantiated replica's directory entry *)
  | Cx_publish  (** published-count root CLFLUSH (CX commit point) *)
  | Cx_dirty_flag  (** mid-update marker CLFLUSH around the heap persist *)
  (* SOFT hash set (lib/core/soft_hash.ml) *)
  | Soft_insert  (** new pnode persisted before volatile link-in *)
  | Soft_update  (** value-node line persisted on update *)
  | Soft_delete  (** deleted-mark persisted before unlink *)
  (* harness-only *)
  | Test  (** unit tests exercising the primitives directly *)

let all =
  [|
    Log_persist_entry; Log_persist_range; Log_fence_payload;
    Log_fence_publish; Log_fence; Prep_init; Prep_completed_tail;
    Prep_checkpoint; Detect_announce_init; Detect_announce; Detect_response;
    Manifest_publish; Segment_body; Segment_seal; Alloc_persist_heap;
    Roots_set; Txn_decision; Txn_gate; Cx_dir_init; Cx_replica_dir;
    Cx_publish; Cx_dirty_flag; Soft_insert; Soft_update; Soft_delete; Test;
  |]

let n_sites = Array.length all

let index = function
  | Log_persist_entry -> 0
  | Log_persist_range -> 1
  | Log_fence_payload -> 2
  | Log_fence_publish -> 3
  | Log_fence -> 4
  | Prep_init -> 5
  | Prep_completed_tail -> 6
  | Prep_checkpoint -> 7
  | Detect_announce_init -> 8
  | Detect_announce -> 9
  | Detect_response -> 10
  | Manifest_publish -> 11
  | Segment_body -> 12
  | Segment_seal -> 13
  | Alloc_persist_heap -> 14
  | Roots_set -> 15
  | Txn_decision -> 16
  | Txn_gate -> 17
  | Cx_dir_init -> 18
  | Cx_replica_dir -> 19
  | Cx_publish -> 20
  | Cx_dirty_flag -> 21
  | Soft_insert -> 22
  | Soft_update -> 23
  | Soft_delete -> 24
  | Test -> 25

let to_string = function
  | Log_persist_entry -> "log.persist_entry"
  | Log_persist_range -> "log.persist_range"
  | Log_fence_payload -> "log.fence_payload"
  | Log_fence_publish -> "log.fence_publish"
  | Log_fence -> "log.fence"
  | Prep_init -> "prep.init"
  | Prep_completed_tail -> "prep.completed_tail"
  | Prep_checkpoint -> "prep.checkpoint"
  | Detect_announce_init -> "detect.announce_init"
  | Detect_announce -> "detect.announce"
  | Detect_response -> "detect.response"
  | Manifest_publish -> "manifest.publish"
  | Segment_body -> "segment.body"
  | Segment_seal -> "segment.seal"
  | Alloc_persist_heap -> "alloc.persist_heap"
  | Roots_set -> "roots.set"
  | Txn_decision -> "txn.decision"
  | Txn_gate -> "txn.gate"
  | Cx_dir_init -> "cx.dir_init"
  | Cx_replica_dir -> "cx.replica_dir"
  | Cx_publish -> "cx.publish"
  | Cx_dirty_flag -> "cx.dirty_flag"
  | Soft_insert -> "soft.insert"
  | Soft_update -> "soft.update"
  | Soft_delete -> "soft.delete"
  | Test -> "test"

let of_string s = Array.find_opt (fun site -> to_string site = s) all

(** What the policy does with the instruction at a site. Semantics are
    per primitive; a combination that makes no sense (e.g. downgrading a
    CLWB, which is already asynchronous) falls back to [Emit]:

    - CLWB: [Elide] removes the instruction; everything else emits.
    - CLFLUSH: [Elide] removes it; [Downgrade_to_clwb] and
      [Defer_to_next_fence] both replace the blocking line write with an
      asynchronous CLWB whose capture reaches media at the next emitted
      fence.
    - SFENCE: [Elide] and [Defer_to_next_fence] both skip the fence; the
      write-pending queue survives and drains at the next emitted fence
      (or is lost to a crash — exactly the window the oracle must clear).
    - WBINVD / arena walk: [Elide] removes it; everything else emits. *)
type action = Emit | Elide | Downgrade_to_clwb | Defer_to_next_fence

let action_to_string = function
  | Emit -> "emit"
  | Elide -> "elide"
  | Downgrade_to_clwb -> "downgrade-to-clwb"
  | Defer_to_next_fence -> "defer-to-next-fence"

let action_of_string = function
  | "emit" -> Some Emit
  | "elide" -> Some Elide
  | "downgrade-to-clwb" -> Some Downgrade_to_clwb
  | "defer-to-next-fence" -> Some Defer_to_next_fence
  | _ -> None

(** A policy is a site-indexed action table. Treat installed policies as
    immutable; derive variants with [copy] + [set]. *)
type policy = action array

let default () : policy = Array.make n_sites Emit
let copy (p : policy) : policy = Array.copy p
let get (p : policy) site = p.(index site)
let set (p : policy) site a = p.(index site) <- a
let equal (a : policy) (b : policy) = a = b

(** Sites whose action differs from [Emit], in [all] order. *)
let weakenings (p : policy) =
  Array.to_list all
  |> List.filter_map (fun s ->
         match get p s with Emit -> None | a -> Some (s, a))

let is_default p = weakenings p = []

(* ---- serialization ----

   The on-disk format names only the weakened sites:

     {"schema": "prep.persist-policy/1",
      "sites": {"log.fence_payload": "defer-to-next-fence", ...}}

   The inline spec form (CLI convenience, also what repro commands embed)
   is "site=action[,site=action...]"; "none" is the empty policy. *)

let schema = "prep.persist-policy/1"

let to_spec p =
  match weakenings p with
  | [] -> "none"
  | ws ->
    String.concat ","
      (List.map (fun (s, a) -> to_string s ^ "=" ^ action_to_string a) ws)

let of_spec spec =
  let p = default () in
  let spec = String.trim spec in
  if spec = "" || spec = "none" then Ok p
  else
    let rec go = function
      | [] -> Ok p
      | kv :: rest -> (
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "persist-policy: expected site=action, got %S" kv)
        | Some i -> (
          let sname = String.trim (String.sub kv 0 i) in
          let aname =
            String.trim (String.sub kv (i + 1) (String.length kv - i - 1))
          in
          match (of_string sname, action_of_string aname) with
          | None, _ ->
            Error (Printf.sprintf "persist-policy: unknown site %S" sname)
          | _, None ->
            Error (Printf.sprintf "persist-policy: unknown action %S" aname)
          | Some s, Some a ->
            set p s a;
            go rest))
    in
    go (String.split_on_char ',' spec)

let to_json p =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": %S,\n" schema);
  Buffer.add_string b "  \"sites\": {";
  let ws = weakenings p in
  List.iteri
    (fun i (s, a) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    %S: %S" (to_string s) (action_to_string a)))
    ws;
  if ws <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "}\n}\n";
  Buffer.contents b

let of_json s =
  match Telemetry.Json.parse_result s with
  | Error m -> Error ("persist-policy: " ^ m)
  | Ok v -> (
    match Telemetry.Json.member "schema" v with
    | Some (Telemetry.Json.Str sc) when sc = schema -> (
      match Telemetry.Json.member "sites" v with
      | Some (Telemetry.Json.Obj kvs) ->
        let p = default () in
        let rec go = function
          | [] -> Ok p
          | (k, Telemetry.Json.Str a) :: rest -> (
            match (of_string k, action_of_string a) with
            | Some s, Some act ->
              set p s act;
              go rest
            | None, _ ->
              Error (Printf.sprintf "persist-policy: unknown site %S" k)
            | _, None ->
              Error (Printf.sprintf "persist-policy: unknown action %S" a))
          | (k, _) :: _ ->
            Error (Printf.sprintf "persist-policy: site %S action must be a string" k)
        in
        go kvs
      | _ -> Error "persist-policy: missing \"sites\" object")
    | Some _ | None ->
      Error
        (Printf.sprintf "persist-policy: missing or wrong \"schema\" (want %S)"
           schema))

(** Parse either an inline spec ("site=action,...", or "none") or, when
    the string names a readable file, that file's JSON. The CLI accepts
    both so repro commands need no temp files. *)
let load arg =
  if Sys.file_exists arg && not (String.contains arg '=') then begin
    let ic = open_in_bin arg in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_json s
  end
  else of_spec arg

(* ---- per-site telemetry naming ----

   [Memory] attributes every flush/fence to its site through the ambient
   telemetry registry using counter names of the form

     nvm.<metric>@<site-string>

   where <metric> is the primitive name ("clwb", "sfence", ...) for
   emitted instructions, "<prim>_ns" for their simulated-ns share, and
   "<prim>_flit_elided" / "<prim>_policy_elided" / "clflush_downgraded" /
   "sfence_deferred" for the elision classes. [split_counter] is the
   shared parser the profile table and the inference ranking use. *)

let split_counter name =
  if String.length name > 4 && String.sub name 0 4 = "nvm." then
    match String.index_opt name '@' with
    | None -> None
    | Some i ->
      let metric = String.sub name 4 (i - 4) in
      let sname = String.sub name (i + 1) (String.length name - i - 1) in
      (match of_string sname with
       | Some site -> Some (metric, site)
       | None -> None)
  else None
