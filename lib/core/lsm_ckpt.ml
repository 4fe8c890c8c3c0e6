(** The incremental log-structured checkpoint backend ([Config.lsm_ckpt]),
    the second implementation of [Checkpoint.backend]. Instead of two
    persistent replicas swapped every ε operations, the persistence thread
    keeps one volatile shadow of the object and folds the post-image of
    every key its catch-up writes into a memtable; a checkpoint drains the
    memtable into sealed segments and publishes a manifest naming them.
    The durable truth is the manifest plus the sealed segments; everything
    in a [store] is a volatile mount of it plus the memtable, reproducible
    from NVM media and the log suffix past [sealed_lt]. *)

open Nvm

(* ---- the store (ds-independent) ---- *)

type pending_merge = {
  replaced : Segment.meta list;
      (* a contiguous same-level run of [segs], newest first *)
  merged : Segment.meta list;
      (* already built and sealed by the compaction fiber *)
}

type store = {
  mem : Memory.t;
  manifest : Manifest.t;
  fanout : int;
  memtable : Segment.Memtable.t;
      (* latest value per key written since the last seal *)
  mutable segs : Segment.meta list; (* mounted segment set, newest first *)
  mutable epoch : int; (* last published manifest epoch *)
  mutable sealed_lt : int;
      (* log entries [0, sealed_lt) of the current log epoch are covered
         by the sealed segments *)
  mutable pending : pending_merge option;
      (* handoff from the compaction fiber to the manifest's single
         writer (the persistence thread) *)
  (* harness-side counters (no simulated cost) *)
  mutable seals : int;
  mutable segments_built : int;
  mutable keys_sealed : int;
  mutable compactions : int;
  mutable bloom_skips : int;
  mutable range_skips : int;
  mutable seg_finds : int;
  mutable materialized : int;
}

(* The volatile mount of [manifest] at its loaded record [r] — the
   segments it names, torn ones (which only the planted fault can
   produce) dropped — or an empty store when there is no record yet. *)
let make mem manifest ~fanout r =
  let segs, epoch, sealed_lt =
    match r with
    | None -> ([], 0, 0)
    | Some r ->
      ( List.filter_map (Segment.mount mem) r.Manifest.segs,
        r.Manifest.epoch,
        r.Manifest.sealed_lt )
  in
  {
    mem;
    manifest;
    fanout;
    memtable = Segment.Memtable.create ();
    segs;
    epoch;
    sealed_lt;
    pending = None;
    seals = 0;
    segments_built = 0;
    keys_sealed = 0;
    compactions = 0;
    bloom_skips = 0;
    range_skips = 0;
    seg_finds = 0;
    materialized = 0;
  }

(** An empty store over a fresh manifest in [pa]. *)
let create mem pa ~fanout = make mem (Manifest.create pa) ~fanout None

(* The instance's manifest root: above every shard's eight slots
   ([Config.root_base] = i * 8 for i <= 6, slots i*8 + 1 .. i*8 + 7), so
   slots 56..62 are free — slot [56 + i] belongs to the instance whose
   [root_base] is [i * 8] — and slot 63 holds the sharded decision
   table. *)
let manifest_slot root_base = 56 + (root_base / 8)

(** Mount the store whose manifest lives at [base], writing nothing: at
    [epoch], which a gap record names, or at the newest valid record — a
    torn newest record falls back to the previous epoch inside
    [Manifest.load]. *)
let mount mem ~base ~fanout ~epoch =
  let manifest = Manifest.attach mem ~base in
  let r =
    match epoch with
    | None -> Manifest.load manifest
    | Some e -> Manifest.load_epoch manifest e
  in
  match r with
  | Some r -> make mem manifest ~fanout (Some r)
  | None ->
    (* the initial publish is fenced before any op can complete, and
       only the commit publishes while a gap record names an epoch *)
    failwith "Prep_uc.recover: no valid manifest record on media"

(** Newest-first store lookup (charged reads). [Some v] may carry the
    tombstone; [None] means no segment knows the key. *)
let store_find l key =
  let rec go = function
    | [] -> None
    | m :: rest ->
      if not (Segment.range_hit m key) then begin
        l.range_skips <- l.range_skips + 1;
        go rest
      end
      else if not (Segment.bloom_hit l.mem m key) then begin
        l.bloom_skips <- l.bloom_skips + 1;
        go rest
      end
      else (
        match Segment.find l.mem m key with
        | Some v ->
          l.seg_finds <- l.seg_finds + 1;
          Some v
        | None -> go rest)
  in
  go l.segs

(* The newest record of every key in [segs] (newest first), each read
   with [read], sorted by key; tombstones dropped unless [tombstones]. *)
let newest ~read ~tombstones segs =
  let seen = Hashtbl.create 256 and acc = ref [] in
  List.iter
    (fun m ->
      Array.iter
        (fun (k, v) ->
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            if tombstones || v <> Segment.tombstone then acc := (k, v) :: !acc
          end)
        (read m))
    segs;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

(** Cost-free live view of the whole store (checkers/snapshots). *)
let peek_live l =
  newest ~read:(Segment.peek_array l.mem) ~tombstones:false l.segs

(** Publish the current segment list under a fresh epoch (persistence
    thread only — the manifest has a single writer). *)
let publish l ~sealed_lt =
  l.epoch <- l.epoch + 1;
  Manifest.publish l.manifest ~epoch:l.epoch ~sealed_lt
    ~segs:(List.map (fun m -> m.Segment.addr) l.segs);
  l.sealed_lt <- sealed_lt

(* Split sorted records into segment-sized chunks and allocate NVM for
   each; returns [(addr, chunk, meta)] newest-position-first metas. *)
let plan_segments pa ~level recs =
  let n = Array.length recs in
  let rec chunks i =
    if i >= n then []
    else
      let len = min Segment.max_records (n - i) in
      Array.sub recs i len :: chunks (i + len)
  in
  List.map
    (fun chunk ->
      let count = Array.length chunk in
      let addr = Alloc.alloc_lines pa (Segment.lines_needed ~count) in
      let meta =
        {
          Segment.addr;
          count;
          level;
          min_key = fst chunk.(0);
          max_key = fst chunk.(count - 1);
          bloom_words = Segment.Bloom.words_for ~count;
        }
      in
      (addr, chunk, meta))
    (chunks 0)

let build_planned l ~level planned =
  List.iter
    (fun (addr, chunk, _) -> ignore (Segment.build l.mem ~addr ~level chunk))
    planned;
  l.segments_built <- l.segments_built + List.length planned

(** Seal sorted records [recs] into fresh level-0 segments, mount them
    and publish the manifest naming them with [sealed_lt] — segments
    built before the manifest names them. [publish_first] inverts that
    order: the planted [Manifest_before_segment_seal] fault. *)
let seal ?(publish_first = false) l pa recs ~sealed_lt =
  let planned =
    if Array.length recs = 0 then [] else plan_segments pa ~level:0 recs
  in
  let metas = List.map (fun (_, _, m) -> m) planned in
  if publish_first then begin
    l.segs <- metas @ l.segs;
    publish l ~sealed_lt;
    build_planned l ~level:0 planned
  end
  else begin
    build_planned l ~level:0 planned;
    l.segs <- metas @ l.segs;
    publish l ~sealed_lt
  end

(** Pick the oldest contiguous run of [fanout] same-level segments, if
    any (compaction fiber; only when no merge is outstanding). *)
let pick_merge l =
  if l.pending <> None then None
  else
    let rec runs acc cur = function
      | [] -> if List.length cur >= l.fanout then cur :: acc else acc
      | m :: rest -> (
        match cur with
        | c :: _ when c.Segment.level = m.Segment.level ->
          runs acc (m :: cur) rest
        | _ ->
          runs (if List.length cur >= l.fanout then cur :: acc else acc)
            [ m ] rest)
    in
    (* [runs] walks newest→oldest accumulating reversed runs, so each
       completed run is oldest-first; the first completed run pushed
       last is the newest — take the head of [acc] as the oldest. *)
    match runs [] [] l.segs with
    | [] -> None
    | run :: _ ->
      (* restore newest-first order and trim to exactly [fanout] oldest *)
      let run = List.rev run in
      let len = List.length run in
      let run =
        if len > l.fanout then
          List.filteri (fun i _ -> i >= len - l.fanout) run
        else run
      in
      Some run

(** Merge [run] (from [pick_merge]) into sealed segments one level up —
    newest wins, and a tombstone is dropped only when the run reaches the
    store's oldest segment, since nothing older could then still hold the
    key it shadows — and leave the result in [l.pending] for
    [apply_pending]. Never touches the manifest. *)
let merge l pa run =
  let oldest_included =
    match List.rev l.segs with
    | [] -> false
    | oldest :: _ -> List.memq oldest run
  in
  let recs =
    Array.of_list
      (newest ~read:(Segment.to_array l.mem)
         ~tombstones:(not oldest_included) run)
  in
  let level = (List.hd run).Segment.level + 1 in
  let merged =
    if Array.length recs = 0 then []
    else begin
      let planned = plan_segments pa ~level recs in
      build_planned l ~level planned;
      List.map (fun (_, _, m) -> m) planned
    end
  in
  l.pending <- Some { replaced = run; merged }

(** Fold a finished background merge into the mounted set and republish
    the manifest (persistence thread only). *)
let apply_pending l =
  match l.pending with
  | None -> ()
  | Some { replaced; merged } ->
    let rec splice = function
      | [] -> failwith "Lsm.apply_pending: replaced run not found"
      | m :: rest when m == List.hd replaced ->
        let rest' =
          List.fold_left (fun acc _ -> List.tl acc) (m :: rest) replaced
        in
        merged @ rest'
      | m :: rest -> m :: splice rest
    in
    l.segs <- splice l.segs;
    l.compactions <- l.compactions + 1;
    publish l ~sealed_lt:l.sealed_lt;
    l.pending <- None

(* Order-independent hash of every volatile bit of the store the memory
   fingerprints cannot see. *)
let store_ghost l =
  let h = ref (Memory.h2 l.epoch l.sealed_lt) in
  h := Memory.h2 !h (Segment.Memtable.hash l.memtable);
  List.iter
    (fun m -> h := Memory.h2 !h (Memory.h2 m.Segment.addr m.Segment.level))
    l.segs;
  (match l.pending with
   | None -> ()
   | Some { replaced; merged } ->
     List.iter (fun m -> h := Memory.h2 !h (m.Segment.addr lxor 0x5a5a)) replaced;
     List.iter (fun m -> h := Memory.h2 !h (m.Segment.addr lxor 0xa5a5)) merged);
  !h

(** The bench-JSON counters, in their key order. *)
let counter_names =
  [ "lsm_seals"; "lsm_segments_built"; "lsm_keys_sealed"; "lsm_compactions";
    "lsm_segments_live"; "lsm_bloom_skips"; "lsm_range_skips";
    "lsm_seg_finds"; "lsm_materialized" ]

let counters l =
  List.combine counter_names
    [ l.seals; l.segments_built; l.keys_sealed; l.compactions;
      List.length l.segs; l.bloom_skips; l.range_skips; l.seg_finds;
      l.materialized ]

(** The same keys, all zero: what an instance without this backend
    reports. *)
let idle_counters = List.map (fun k -> (k, 0)) counter_names

(* a keyed map's flattened [k; v; ...] snapshot, as pairs *)
let rec pairs = function k :: v :: rest -> (k, v) :: pairs rest | _ -> []

module Make (Ds : Seqds.Ds_intf.S) = struct
  (** Per-handle hydration state. A handle rebuilt after a crash starts
      as the replayed suffix only; keys below the sealed horizon are
      rematerialised from the segment store on first touch. Invariant:
      every key present in the ds is in [resolved] (so a resolved key's
      ds binding — or absence — is the truth, and an unresolved key's
      truth lives in the segments). [hydrated] means every live store key
      has been resolved, after which all checks short-circuit — the
      steady state, and the only state outside recovery. *)
  type view = {
    resolved : (int, unit) Hashtbl.t;
    mutable hydrated : bool;
  }

  (* [op]'s key footprint as [Some (written, read)]; [None] reads every
     key. Only keyed maps can run on this backend. *)
  let footprint ~op ~args =
    match Ds.classify ~op ~args with
    | Seqds.Ds_intf.Keyed { written; read } -> Some (written, read)
    | Seqds.Ds_intf.Read_all -> None
    | Seqds.Ds_intf.Opaque ->
      invalid_arg
        ("Prep_uc: " ^ Config.Feature.(flag lsm_ckpt)
        ^ " requires keyed-map operations")

  (** Ensure [key]'s truth is in [ds]: if [view] hasn't resolved it yet,
      look it up in the segment store and [key_put] a live hit. Charged
      reads/writes; the caller holds write access to the structure. *)
  let materialize l view ds key =
    if (not view.hydrated) && not (Hashtbl.mem view.resolved key) then begin
      (match store_find l key with
       | Some v when v <> Segment.tombstone ->
         Ds.key_put ds key v;
         l.materialized <- l.materialized + 1
       | Some _ (* tombstone *) | None -> ());
      Hashtbl.replace view.resolved key ()
    end

  (** Full hydration, for [Read_all] ops (aggregates like size must see
      every live key): resolve every key of every segment, newest first.
      One-time cost after a recovery; a no-op forever after. *)
  let hydrate l view ds =
    if not view.hydrated then begin
      List.iter
        (fun m ->
          Array.iter
            (fun (k, _) -> materialize l view ds k)
            (Segment.to_array l.mem m))
        l.segs;
      view.hydrated <- true
    end

  (** Resolve the key footprint of [op]/[args] so it may run on a possibly
      partially-hydrated handle of store [l]. *)
  let prepare l view ds ~op ~args =
    if not view.hydrated then
      match footprint ~op ~args with
      | Some (written, read) ->
        Array.iter (materialize l view ds) written;
        Array.iter (materialize l view ds) read
      | None -> hydrate l view ds

  (* Cost-free: would [prepare] have any work to do? *)
  let needs view ~op ~args =
    (not view.hydrated)
    &&
    match footprint ~op ~args with
    | Some (written, read) ->
      let unresolved k = not (Hashtbl.mem view.resolved k) in
      Array.exists unresolved written || Array.exists unresolved read
    | None -> true

  (* Fold the post-images of [keys] on [ds] into the memtable, in order:
     the values a future segment will carry. *)
  let fold_post_images l ds keys =
    Array.iter
      (fun k ->
        match Ds.key_get ds k with
        | Some v -> Segment.Memtable.put l.memtable k v
        | None -> Segment.Memtable.del l.memtable k)
      keys

  (* Cost-free snapshot through a replica's handle [ds] and [view]: a
     partially-hydrated replica's is the merge of its ds (truth for every
     resolved key) over the store's live view (truth for the rest) — the
     flattened sorted-pair convention of the keyed maps. *)
  let snapshot l view ds =
    if view.hydrated then Ds.snapshot ds
    else
      let own = pairs (Ds.snapshot ds) in
      let store =
        List.filter
          (fun (k, _) -> not (Hashtbl.mem view.resolved k))
          (peek_live l)
      in
      List.concat_map (fun (k, v) -> [ k; v ]) (List.sort compare (own @ store))

  let view_hash v =
    Hashtbl.fold
      (fun k () acc -> acc lxor Memory.mix k)
      v.resolved
      (if v.hydrated then 1 else 2)

  (* The backend of an instance over store [l]. Every volatile replica
     and the persistence thread's shadow start [hydrated] (checkpoint
     zero, a copy of the whole object) or with nothing resolved (a
     recovery's, copies of an empty object with the suffix replayed).
     [shadow_tail] is the shadow's catch-up tail and [watermark] the
     stable tail, which is the seal watermark. *)
  let backend env l ~hydrated =
    let open Checkpoint in
    let mem = env.mem and pa = Option.get env.pa and log = env.log in
    let shadow_tail, watermark = env.tails in
    let publish_first =
      env.cfg.Config.fault = Config.Manifest_before_segment_seal
    in
    let view () = { resolved = Hashtbl.create 16; hydrated } in
    let views = Array.init env.replicas (fun _ -> view ())
    and shadow_view = view () in
    (* The incremental checkpoint: drain the memtable — exactly the keys
       written since the last seal — into fresh level-0 segments, then
       publish a manifest naming them with [sealed_lt] advanced to the
       shadow's tail. O(dirty) instead of O(replica); there is no
       active/stable swap — the manifest epoch *is* the swap. The planted
       [Manifest_before_segment_seal] fault ([publish_first]) inverts the
       publish/build order, leaving a crash window where the durable
       manifest names torn segments whose effects [sealed_lt] claims are
       covered. *)
    let checkpoint () =
      let reached = Memory.read mem shadow_tail in
      let recs = Segment.Memtable.drain_sorted l.memtable in
      if Array.length recs > 0 || reached > l.sealed_lt then begin
        (* Advancing [sealed_lt] to [reached] asserts that recovery may
           skip replaying entries below it — so every entry the segments
           cover must be durable in the log *before* the manifest naming
           them is. The classic checkpoint gets this for free (WBINVD/heap
           walk flushes the log arenas too); the incremental one must
           sweep the sealed window explicitly or a crash could keep a
           sealed effect whose log entry never reached media. No-op in
           buffered mode (DRAM log), whose recovery never replays. *)
        Log.persist_range log ~first:l.sealed_lt ~n:(reached - l.sealed_lt);
        Log.fence log;
        (* [seal] builds before the metas become visible in [l.segs]: the
           compaction fiber shares this core and yields interleave with
           [Segment.build]'s stores, so publishing an unbuilt segment to
           the mounted set would let a concurrent merge read its
           still-zero records and splice the real ones out of the store
           (silent loss that only a post-crash recovery can see). *)
        seal l pa recs ~sealed_lt:reached ~publish_first;
        l.seals <- l.seals + 1;
        l.keys_sealed <- l.keys_sealed + Array.length recs;
        (* Release the log window the seal just covered. The watermark
           stays at [sealed_lt] between seals, so Algorithm 3's reuse
           guard keeps every unsealed entry pinned in the log — recovery
           replays exactly that suffix — and when it pins logMin, the
           laggard-force path lowers the flush boundary, which triggers an
           early seal instead of an early swap. *)
        Memory.write mem watermark reached
      end
    in
    (* Background size-tiered compaction: whenever a level accumulates
       [fanout] adjacent segments, [merge] them one level up. The fiber
       builds and seals the merged segments itself but never touches the
       manifest: the persistence thread folds the finished merge in
       ([poll]), keeping the manifest single-writer. *)
    let compaction_loop ~stopped =
      Context.bind
        ~default:(Alloc.create_volatile mem ~home:env.p_socket)
        ~persistent:pa ();
      while not (stopped ()) do
        match pick_merge l with
        | None -> Sim.spin ()
        | Some run ->
          Phases.in_span env.tel (fun pt -> pt.Phases.compact) (fun () ->
              merge l pa run);
          (* wait for the persistence thread to fold the merge into the
             manifest before scanning for the next one *)
          while l.pending <> None && not (stopped ()) do
            Sim.spin ()
          done
      done
    in
    {
      prepare = (fun rid -> prepare l views.(rid));
      needs_write = (fun rid -> needs views.(rid));
      catch_up =
        (fun ds ~op ~args ->
          prepare l shadow_view ds ~op ~args;
          ignore (Ds.execute ds ~op ~args);
          Option.iter
            (fun (written, _) -> fold_post_images l ds written)
            (footprint ~op ~args));
      poll = (fun () -> apply_pending l);
      checkpoint;
      span = (fun pt -> pt.Phases.seal);
      background = Some compaction_loop;
      counters = (fun () -> counters l);
      ghost =
        (fun () ->
          Memory.h2
            (Array.fold_left
               (fun h v -> Memory.h2 h (view_hash v))
               (store_ghost l) views)
            (view_hash shadow_view));
      snapshot = snapshot l views.(0);
    }

  (* The persistence thread's replicas: the shadow, with the two tails. *)
  let replicas env shadow =
    let m0, m1 = env.Checkpoint.tails in
    [| { Checkpoint.meta = m0; pds = shadow }; { meta = m1; pds = shadow } |]

  (* Checkpoint zero: the shadow a copy of [master], a fresh store with
     [master]'s contents sealed as epoch 1, so recovery always finds a
     manifest, and the manifest's root. *)
  let create env ~master ~first:_ =
    let open Checkpoint in
    let mem = env.mem and pa = Option.get env.pa in
    let rb = env.cfg.Config.root_base in
    (* no NVM replica: both tails are DRAM words, which keeps Algorithm
       3's laggard machinery working unchanged *)
    let shadow =
      Context.with_allocator
        (Alloc.create_volatile mem ~home:env.p_socket)
        (fun () -> Ds.copy master)
    in
    let m0, m1 = env.tails in
    Memory.write mem m0 0;
    Memory.write mem m1 0;
    Roots.set env.roots (rb + slot_active) 0;
    let l = create mem pa ~fanout:env.cfg.Config.lsm_fanout in
    Roots.set env.roots (manifest_slot rb) (Manifest.base l.manifest);
    seal l pa (Array.of_list (pairs (Ds.snapshot master))) ~sealed_lt:0;
    (replicas env shadow, backend env l ~hydrated:true)

  (* Recovery's persistence side. The replay builds the shadow, whose
     catch-up folds the post-image of every key the suffix writes into
     the memtable; the commit seals them into level-0 segments and
     publishes a new manifest epoch with [sealed_lt] reset, because the
     rebuilt instance starts a fresh log. Both the seal's segments and
     the publish come after the gap record, which names the mounted
     epoch: the publish writes the manifest slot that epoch does not
     occupy. *)
  let recover l env =
    let copied = ref None in
    let copy ~background:_ ~helpers:_ _ clone =
      Context.set_default
        (Alloc.create_volatile env.Checkpoint.mem ~home:env.p_socket);
      copied := Some (clone ())
    in
    let commit ~defer =
      defer (fun () ->
          seal l (Option.get env.pa)
            (Segment.Memtable.drain_sorted l.memtable)
            ~sealed_lt:0);
      replicas env (Option.get !copied)
    in
    (backend env l ~hydrated:false, { Checkpoint.copy; commit })

  (* The store at the manifest epoch [stamp] names, or the newest one;
     every replica is a copy of an empty object that rematerialises the
     keys it touches from the segments, so time to first operation is
     O(suffix), independent of the object's size. *)
  let mount mem roots cfg ~stamp =
    let l =
      mount mem
        ~base:(Roots.get roots (manifest_slot cfg.Config.root_base))
        ~fanout:cfg.Config.lsm_fanout ~epoch:stamp
    in
    { Checkpoint.covered = l.sealed_lt; stamp = l.epoch; master = None;
      recover = recover l }

  (* a recovery's persistence side is the one shadow *)
  let kit = { Checkpoint.copies = 1; mount; create }
end
