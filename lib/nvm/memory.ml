(** Simulated byte-addressable memory with an explicit cache model.

    The address space is divided into fixed-size arenas, each homed on a
    NUMA socket and backed by either DRAM (volatile) or NVM. All stores
    first take effect in the coherent view ([values]) and dirty their cache
    line; NVM arenas additionally carry a [media] array holding the last
    *persisted* value of every word. A line's contents reach media only via
    [clwb]+[sfence], [clflush], [wbinvd], or a random seeded *background
    flush* — the cache-coherence-induced write-backs the paper warns about
    (§2.2, §4.1). [crash] discards everything except media.

    The write-pending queue (WPQ) holds at most one capture per line: a
    [clwb] captures the line's current contents, replacing any earlier
    capture of it, and [sfence] writes every capture to media and empties
    the queue. Any other commit of a line to media ([clflush], [wbinvd],
    [flush_arena], a background flush) drops the line's capture, so a fence
    never writes back contents older than media already holds. FliT
    ([set_flit]) changes what a flush costs and which flushes are elided,
    never what reaches media. The queue's own discount, a [clwb] of a
    line it already holds merging into that entry, is the hardware's
    and applies under both flush models; FliT adds only what its
    tracking knows (see [Sim.Costs]): a flush of a line with no pending
    store and a fence with nothing to drain.

    Addresses are plain ints: [addr = arena_id * arena_words + offset].
    Address 0 is reserved and plays the role of the null pointer. *)

let arena_shift = 16
let arena_words = 1 lsl arena_shift (* 65536 words per arena *)
let line_words = 8
let lines_per_arena = arena_words / line_words

let null = 0

type kind = Dram | Nvm

type arena = {
  aid : int;
  kind : kind;
  home : int; (* socket the arena is homed on *)
  values : int array; (* coherent view, what loads observe *)
  media : int array; (* persisted view; length 0 for DRAM arenas *)
  dirty : Bytes.t; (* per line: 0 = clean, 1 + socket = dirty in that socket's cache *)
}

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable cas_ops : int;
  mutable clwb : int;          (** CLWBs that queued a real media write-back *)
  mutable clflush : int;       (** CLFLUSHes that performed a real media write *)
  mutable sfence : int;        (** SFENCEs that paid the drain cost *)
  mutable wbinvd : int;
  mutable wbinvd_lines : int;
  mutable bg_flushes : int;
  (* flush-elimination accounting: FliT's elisions (0 unless
     [set_flit m true]) and the WPQ's merges (either flush model) *)
  mutable clwb_elided : int;    (** CLWB on a clean, already-persisted line *)
  mutable clwb_coalesced : int; (** CLWB merged into an existing WPQ entry *)
  mutable clflush_elided : int; (** CLFLUSH on a clean line with current media *)
  mutable sfence_elided : int;  (** SFENCE with an empty write-pending queue *)
  (* static per-site policy accounting ([set_policy]; all 0 by default): *)
  mutable policy_elided : int;     (** instructions removed by [Persist.Elide] *)
  mutable policy_downgraded : int; (** CLFLUSHes rewritten to CLWB *)
  mutable policy_deferred : int;   (** SFENCEs left to the next emitted fence *)
}

let new_stats () =
  { reads = 0; writes = 0; cas_ops = 0; clwb = 0; clflush = 0; sfence = 0;
    wbinvd = 0; wbinvd_lines = 0; bg_flushes = 0;
    clwb_elided = 0; clwb_coalesced = 0; clflush_elided = 0; sfence_elided = 0;
    policy_elided = 0; policy_downgraded = 0; policy_deferred = 0 }

let dirty_key aid line = (aid * lines_per_arena) + line

(* ---- incremental state hashing (model-checking support) ----

   The explorer (lib/check/explore.ml) deduplicates global states by a
   fingerprint of (coherent values, media, dirty map, write-pending queue).
   Recomputing those over every arena at every scheduling point would be
   quadratic, so each component is maintained *incrementally*: the value and
   media hashes are XORs of a per-word hash (zero words contribute nothing,
   so a fresh arena costs nothing), and the dirty and WPQ hashes XORs of
   per-line contributions. *)

let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x1B03738712FAD5C9 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x2545F4914F6CDD1D in
  x lxor (x lsr 31)

let h2 a b = mix (a + (mix b * 0x27D4EB2F165667C5))
let word_h addr v = if v = 0 then 0 else h2 addr v
let words_h key words = Array.fold_left h2 (mix key) words
let pending_entry_h key words = h2 key (words_h key words)

let dummy_arena =
  { aid = -1; kind = Dram; home = 0; values = [||]; media = [||];
    dirty = Bytes.create 0 }

type t = {
  mutable m_arenas : arena array;
  mutable m_count : int;
  m_dirty_by_socket : (int, unit) Hashtbl.t array;
  mutable m_flit : bool;
  m_wpq : (int, int array) Hashtbl.t;
      (* dirty_key -> captured line words, one capture per line *)
  m_rng : Sim.Rng.t;
  m_bg_period : int;
  mutable m_countdown : int;
  m_stats : stats;
  mutable m_op_index : int;
  mutable m_crash_hook : (int -> unit) option;
  (* incremental state fingerprints, see the comment at [mix] *)
  mutable m_value_hash : int;
  mutable m_media_hash : int;
  mutable m_dirty_hash : int;
  mutable m_wpq_hash : int;
  mutable m_access_hook : (int -> int -> bool -> int -> unit) option;
      (* called at the *effect* of every fiber-facing operation with
         (dirty_key | -1 for whole-cache ops, word address | -1, is_write,
         value involved); the explorer derives per-step cache-line
         footprints and fine-grained state hashes from it *)
  m_tel : Telemetry.Registry.t option;
      (* telemetry registry captured at [make]; [None] costs one branch per
         operation and nothing else. Recording never ticks simulated time,
         so an attached registry cannot change a run's behaviour. *)
  mutable m_policy : Persist.policy;
      (* per-site persistency policy consulted by every flush/fence
         primitive before it emits; the all-[Emit] default reproduces the
         hardware instruction stream exactly as written *)
}

let make ?(seed = 42L) ?(sockets = 2) ?(bg_period = 50_000) ?(flit = false) () =
  let m =
    {
      m_arenas = Array.make 64 dummy_arena;
      m_count = 0;
      m_dirty_by_socket = Array.init sockets (fun _ -> Hashtbl.create 4096);
      m_flit = flit;
      m_wpq = Hashtbl.create 256;
      m_rng = Sim.Rng.create seed;
      m_bg_period = bg_period;
      m_countdown = (if bg_period = 0 then max_int else bg_period);
      m_stats = new_stats ();
      m_op_index = 0;
      m_crash_hook = None;
      m_value_hash = 0;
      m_media_hash = 0;
      m_dirty_hash = 0;
      m_wpq_hash = 0;
      m_access_hook = None;
      m_tel = Telemetry.Registry.current ();
      m_policy = Persist.default ();
    }
  in
  m

(* Per-primitive telemetry: a count and a simulated-ns total per operation
   kind, e.g. [nvm.clwb] / [nvm.clwb_ns]. *)
let tel_op m name cost =
  match m.m_tel with
  | None -> ()
  | Some r ->
    if Telemetry.Registry.enabled r then begin
      Telemetry.Registry.add_to r ("nvm." ^ name) 1;
      Telemetry.Registry.add_to r ("nvm." ^ name ^ "_ns") cost
    end

(* Per-site flush/fence telemetry ([Persist.split_counter] is the reader).
   An *emitted* instruction records its count and its simulated-ns share
   ([nvm.clwb@log.persist_entry] / [nvm.clwb_ns@log.persist_entry]); the
   elision classes record a count under a metric naming the class
   ([nvm.clwb_flit_elided@...], [nvm.clflush_policy_elided@...], ...), so
   the profile table and the inference ranking can separate what actually
   reached the bus from what a layer removed. *)
let tel_emit m prim site cost =
  match m.m_tel with
  | None -> ()
  | Some r ->
    if Telemetry.Registry.enabled r then begin
      let s = Persist.to_string site in
      Telemetry.Registry.add_to r ("nvm." ^ prim ^ "@" ^ s) 1;
      Telemetry.Registry.add_to r ("nvm." ^ prim ^ "_ns@" ^ s) cost
    end

let tel_site_count m metric site =
  match m.m_tel with
  | None -> ()
  | Some r ->
    if Telemetry.Registry.enabled r then
      Telemetry.Registry.add_to r
        ("nvm." ^ metric ^ "@" ^ Persist.to_string site) 1

let tel_instant m name =
  match m.m_tel with
  | None -> ()
  | Some r -> Telemetry.Registry.instant r name

let stats m = m.m_stats

(** The installed per-site persistency policy (all-[Emit] by default). *)
let policy m = m.m_policy

(** Install a per-site persistency policy. Every flush/fence primitive
    consults it before emitting: a policy-removed instruction charges no
    simulated time, takes no scheduling point and has no effect — it is
    gone from the instruction stream, which is exactly the static claim
    the [optimize-persist] oracle must then prove safe. Orthogonal to
    [set_flit]: FliT elides dynamically whatever the policy still emits. *)
let set_policy m p = m.m_policy <- p

let policy_action m site = Persist.get m.m_policy site

(** Enable/disable FliT-style flush tracking (Wei et al.). It changes costs
    and elisions only: a CLWB on a clean line and a CLFLUSH on a clean line
    with nothing queued are counted tag checks, a CLWB on a line already
    queued pays the coalesce charge, and an SFENCE with an empty WPQ
    retires for free. What reaches media is the same in both modes. *)
let set_flit m on = m.m_flit <- on

(* ---- crash-hook API (fuzzing instrumentation) ---- *)

(** Number of fiber-facing memory operations issued so far. Every load,
    block load, store, CAS, FAA, scrub, flush and fence counts as one
    operation, so an operation index names one precise point in the
    global (simulated-time-ordered) sequence of memory events. *)
let op_index m = m.m_op_index

(** Install [hook], called with the operation index at the *start* of every
    fiber-facing operation — before the operation takes any effect. A hook
    that raises aborts the executing fiber mid-access, which models a
    full-system power failure immediately before that operation: the crash
    fuzzer uses this to cut a run at an exact memory-operation index rather
    than at a simulated time. *)
let set_crash_hook m hook = m.m_crash_hook <- Some hook

let clear_crash_hook m = m.m_crash_hook <- None

let op_point m =
  let i = m.m_op_index in
  m.m_op_index <- i + 1;
  (match m.m_crash_hook with None -> () | Some hook -> hook i);
  (* Controlled-scheduler mode: every fiber-facing memory operation is a
     scheduling choice point, taken *before* the operation has any effect
     so the explorer observes a consistent between-operations state. *)
  if Sim.controlled () then Sim.yield ()

(* ---- access-footprint hook (model-checking instrumentation) ---- *)

(** Install [hook], called at the effect point of every fiber-facing
    operation with [(key, addr, is_write, value)]: [key] is the
    [dirty_key] of the touched cache line (or [-1] for operations with a
    whole-cache footprint: SFENCE, WBINVD, arena flushes), [addr] the
    word address involved ([-1] when the operation touches a whole line
    or cache rather than a word), [is_write] whether the operation can
    change persistent-visible state, and [value] the word read or written
    (0 for flush/fence ops). The explorer derives per-step footprints for
    DPOR-style sleep sets (line granularity, via [key]) and last-access
    state hashes (word granularity, via [addr]) from this. *)
let set_access_hook m hook = m.m_access_hook <- Some hook

let clear_access_hook m = m.m_access_hook <- None

let access_point m key ~addr ~write v =
  match m.m_access_hook with None -> () | Some hook -> hook key addr write v

(* ---- state fingerprints (explorer) ---- *)

let value_hash m = m.m_value_hash
let media_hash m = m.m_media_hash
let dirty_hash m = m.m_dirty_hash
let wpq_hash m = m.m_wpq_hash

(** Allocate a fresh arena homed on [home]. Returns the arena id. *)
let new_arena m ~kind ~home =
  if m.m_count = Array.length m.m_arenas then begin
    let bigger = Array.make (2 * Array.length m.m_arenas) dummy_arena in
    Array.blit m.m_arenas 0 bigger 0 m.m_count;
    m.m_arenas <- bigger
  end;
  let aid = m.m_count in
  let arena =
    {
      aid;
      kind;
      home;
      values = Array.make arena_words 0;
      media = (match kind with Nvm -> Array.make arena_words 0 | Dram -> [||]);
      dirty = Bytes.make lines_per_arena '\000';
    }
  in
  m.m_arenas.(aid) <- arena;
  m.m_count <- m.m_count + 1;
  aid

let arena_of_addr m addr =
  let aid = addr lsr arena_shift in
  if aid >= m.m_count then invalid_arg "Memory: address beyond allocated arenas";
  m.m_arenas.(aid)

let offset_of_addr addr = addr land (arena_words - 1)
let line_of_offset off = off / line_words
let addr_of ~aid ~offset = (aid lsl arena_shift) lor offset

let is_nvm m addr = (arena_of_addr m addr).kind = Nvm

(* Every mutation of [values]/[media] funnels through these two setters so
   the incremental fingerprints can never drift from the arrays. *)

let set_value m arena off v =
  let old = arena.values.(off) in
  if old <> v then begin
    let addr = addr_of ~aid:arena.aid ~offset:off in
    m.m_value_hash <-
      m.m_value_hash lxor word_h addr old lxor word_h addr v;
    arena.values.(off) <- v
  end

let set_media_word m arena off v =
  let old = arena.media.(off) in
  if old <> v then begin
    let addr = addr_of ~aid:arena.aid ~offset:off in
    m.m_media_hash <-
      m.m_media_hash lxor word_h addr old lxor word_h addr v;
    arena.media.(off) <- v
  end

(* ---- cost accounting ---- *)

let access_cost m arena ~line_dirty =
  let c = Sim.costs () in
  let base =
    if line_dirty then c.Sim.Costs.cache_access
    else
      match arena.kind with
      | Dram -> c.Sim.Costs.dram_access
      | Nvm -> c.Sim.Costs.nvm_read
  in
  let remote =
    if arena.home <> Sim.socket () then c.Sim.Costs.remote_penalty else 0
  in
  ignore m;
  base + remote

(* ---- line persistence ---- *)

let commit_line_to_media m arena line =
  if arena.kind = Nvm then begin
    let base = line * line_words in
    for i = 0 to line_words - 1 do
      set_media_word m arena (base + i) arena.values.(base + i)
    done
  end

let clear_dirty m arena line =
  let d = Bytes.get_uint8 arena.dirty line in
  if d <> 0 then begin
    let key = dirty_key arena.aid line in
    m.m_dirty_hash <- m.m_dirty_hash lxor h2 key d;
    Bytes.set_uint8 arena.dirty line 0;
    Hashtbl.remove m.m_dirty_by_socket.(d - 1) key
  end

let mark_dirty m arena line socket =
  let d = Bytes.get_uint8 arena.dirty line in
  if d <> socket + 1 then begin
    let key = dirty_key arena.aid line in
    if d <> 0 then begin
      m.m_dirty_hash <- m.m_dirty_hash lxor h2 key d;
      Hashtbl.remove m.m_dirty_by_socket.(d - 1) key
    end;
    m.m_dirty_hash <- m.m_dirty_hash lxor h2 key (socket + 1);
    Bytes.set_uint8 arena.dirty line (socket + 1);
    Hashtbl.replace m.m_dirty_by_socket.(socket) key ()
  end

(* A line committed to media drops its WPQ capture: the capture is now
   stale-or-equal, and writing it back at the next fence could regress
   media behind the newer commit. *)
let wpq_prune m arena line =
  let key = dirty_key arena.aid line in
  match Hashtbl.find_opt m.m_wpq key with
  | None -> ()
  | Some words ->
    m.m_wpq_hash <- m.m_wpq_hash lxor pending_entry_h key words;
    Hashtbl.remove m.m_wpq key

let background_flush m arena line =
  m.m_stats.bg_flushes <- m.m_stats.bg_flushes + 1;
  commit_line_to_media m arena line;
  wpq_prune m arena line;
  clear_dirty m arena line

let maybe_background_flush m arena line =
  if arena.kind = Nvm && m.m_bg_period > 0 then begin
    m.m_countdown <- m.m_countdown - 1;
    if m.m_countdown <= 0 then begin
      m.m_countdown <- 1 + Sim.Rng.int m.m_rng (2 * m.m_bg_period);
      background_flush m arena line
    end
  end

(* ---- fiber-facing operations (charge simulated time) ---- *)

let read m addr =
  op_point m;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let line = line_of_offset off in
  let line_dirty = Bytes.get_uint8 arena.dirty line <> 0 in
  let cost = access_cost m arena ~line_dirty in
  Sim.tick cost;
  tel_op m "read" cost;
  m.m_stats.reads <- m.m_stats.reads + 1;
  let v = arena.values.(off) in
  access_point m (dirty_key arena.aid line) ~addr ~write:false v;
  v

(** Load the [n] words from [addr] as a memcpy's source side would: one
    operation whose charge is, per cache line spanned, exactly what [read]
    charges for that line (a hit when dirty, else DRAM or NVM plus the
    remote penalty); the line's other words ride along for free. Reading
    the same words one [read] at a time still pays per word. The access
    hook sees one line-granular load per line ([~addr:(-1)]) whose value
    folds in all of the line's words, so a change to any word of a line
    the block touches changes the hashed access. The block must lie in one
    arena. *)
let read_words m addr n =
  let off = offset_of_addr addr in
  if n <= 0 || off + n > arena_words then invalid_arg "Memory.read_words: bad span";
  op_point m;
  let arena = arena_of_addr m addr in
  let first_line = line_of_offset off and last_line = line_of_offset (off + n - 1) in
  let cost = ref 0 in
  for line = first_line to last_line do
    cost :=
      !cost + access_cost m arena ~line_dirty:(Bytes.get_uint8 arena.dirty line <> 0)
  done;
  Sim.tick !cost;
  tel_op m "read_words" !cost;
  m.m_stats.reads <- m.m_stats.reads + (last_line - first_line + 1);
  (match m.m_access_hook with
   | None -> ()
   | Some _ ->
     for line = first_line to last_line do
       let key = dirty_key arena.aid line in
       let words = Array.sub arena.values (line * line_words) line_words in
       access_point m key ~addr:(-1) ~write:false (words_h key words)
     done);
  Array.sub arena.values off n

(** Load the [n] words from [addr] one cache line at a time, one
    [read_words] per line, and call [f i v] on word [addr + i], in order:
    the source side of a memcpy longer than a line. *)
let iter_lines m addr n f =
  let i = ref 0 in
  while !i < n do
    let a = addr + !i in
    let w = read_words m a (min (line_words - (a mod line_words)) (n - !i)) in
    Array.iteri (fun j v -> f (!i + j) v) w;
    i := !i + Array.length w
  done

let write m addr v =
  op_point m;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let line = line_of_offset off in
  let cost = access_cost m arena ~line_dirty:true in
  Sim.tick cost;
  tel_op m "write" cost;
  m.m_stats.writes <- m.m_stats.writes + 1;
  set_value m arena off v;
  mark_dirty m arena line (Sim.socket ());
  access_point m (dirty_key arena.aid line) ~addr ~write:true v;
  maybe_background_flush m arena line

(** Store that duplicates a just-issued write into a DRAM shadow (the log
    mirror): the writer's cache already holds both lines, so the copy is
    charged the flat [mirror_write] cost instead of a full [access_cost]
    (in particular, no remote penalty — the mirror line rides along in the
    writer's store buffer). Semantically identical to [write]. *)
let mirror_write m addr v =
  op_point m;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let line = line_of_offset off in
  let cost = (Sim.costs ()).Sim.Costs.mirror_write in
  Sim.tick cost;
  tel_op m "mirror_write" cost;
  m.m_stats.writes <- m.m_stats.writes + 1;
  set_value m arena off v;
  mark_dirty m arena line (Sim.socket ());
  access_point m (dirty_key arena.aid line) ~addr ~write:true v;
  maybe_background_flush m arena line

(** Zero [size] words starting at [addr], as a memset would: the stores
    dirty their cache lines (so a later flush re-persists the zeros) but
    cost is charged per line rather than per word. Used by the allocator
    when recycling blocks. *)
let scrub m addr size =
  op_point m;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let first_line = line_of_offset off in
  let last_line = line_of_offset (off + size - 1) in
  let cost = (last_line - first_line + 1) * (Sim.costs ()).Sim.Costs.cache_access in
  Sim.tick cost;
  tel_op m "scrub" cost;
  let socket = Sim.socket () in
  for i = off to off + size - 1 do
    set_value m arena i 0
  done;
  for line = first_line to last_line do
    mark_dirty m arena line socket;
    access_point m (dirty_key arena.aid line) ~addr:(addr - off + (line * line_words)) ~write:true 0
  done

(** Atomic compare-and-swap. The cost is charged (and a scheduling point
    taken) *before* the read-modify-write, which is then indivisible. *)
let cas m addr ~expected ~desired =
  op_point m;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let line = line_of_offset off in
  let c = Sim.costs () in
  let cost = c.Sim.Costs.cas + access_cost m arena ~line_dirty:true in
  Sim.tick cost;
  tel_op m "cas" cost;
  m.m_stats.cas_ops <- m.m_stats.cas_ops + 1;
  (* the hook fires after the compare so a failed CAS registers as a plain
     read: it changes nothing, so treating it as a write would spuriously
     wake every parked fiber in the explorer's await machinery (two CAS
     spinners would then wake each other forever). Read-vs-write conflicts
     still give the sleep sets the dependency they need. *)
  if arena.values.(off) = expected then begin
    access_point m (dirty_key arena.aid line) ~addr ~write:true expected;
    set_value m arena off desired;
    mark_dirty m arena line (Sim.socket ());
    maybe_background_flush m arena line;
    true
  end
  else begin
    access_point m (dirty_key arena.aid line) ~addr ~write:false
      arena.values.(off);
    false
  end

(** Atomic fetch-and-add, used by reader counts in the reader-writer lock. *)
let faa m addr delta =
  op_point m;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let line = line_of_offset off in
  let c = Sim.costs () in
  let cost = c.Sim.Costs.cas + access_cost m arena ~line_dirty:true in
  Sim.tick cost;
  tel_op m "faa" cost;
  let old = arena.values.(off) in
  set_value m arena off (old + delta);
  mark_dirty m arena line (Sim.socket ());
  access_point m (dirty_key arena.aid line) ~addr ~write:true old;
  old

(** Asynchronous write-back of the line containing [addr]. The captured
    line contents only reach media at the next [sfence] (or clflush /
    background flush), so a crash in between loses them. [site] is
    mandatory: every write-back belongs to exactly one [Persist.site],
    whose policy is consulted first — [Elide] removes the instruction
    entirely (no cost, no scheduling point, no effect). *)
let clwb ~site m addr =
  match policy_action m site with
  | Persist.Elide ->
    m.m_stats.policy_elided <- m.m_stats.policy_elided + 1;
    tel_site_count m "clwb_policy_elided" site
  | Persist.Emit | Persist.Downgrade_to_clwb | Persist.Defer_to_next_fence ->
  op_point m;
  let arena = arena_of_addr m addr in
  if arena.kind <> Nvm then invalid_arg "Memory.clwb: not an NVM address";
  let line = line_of_offset (offset_of_addr addr) in
  let base = line * line_words in
  let key = dirty_key arena.aid line in
  let c = Sim.costs () in
  if m.m_flit && Bytes.get_uint8 arena.dirty line = 0 then begin
    (* clean line: media or the WPQ already holds the current contents —
       the flush tag says there is nothing to write back *)
    Sim.tick c.Sim.Costs.flush_tag_check;
    tel_op m "clwb_elided" c.Sim.Costs.flush_tag_check;
    tel_site_count m "clwb_flit_elided" site;
    m.m_stats.clwb_elided <- m.m_stats.clwb_elided + 1;
    access_point m key ~addr:(-1) ~write:false 0
  end
  else begin
    if Hashtbl.mem m.m_wpq key then begin
      (* same line already queued: the WPQ updates its entry in place,
         under either flush model *)
      Sim.tick c.Sim.Costs.clwb_merge;
      tel_op m "clwb_coalesced" c.Sim.Costs.clwb_merge;
      tel_emit m "clwb" site c.Sim.Costs.clwb_merge;
      m.m_stats.clwb_coalesced <- m.m_stats.clwb_coalesced + 1
    end
    else begin
      Sim.tick c.Sim.Costs.clwb_line;
      tel_op m "clwb" c.Sim.Costs.clwb_line;
      tel_emit m "clwb" site c.Sim.Costs.clwb_line;
      m.m_stats.clwb <- m.m_stats.clwb + 1
    end;
    (* capture after the tick (a yield point): a concurrent fence may have
       drained and pruned the looked-up entry meanwhile, so always
       (re-)queue the line's current contents rather than mutating a
       possibly-orphaned capture *)
    wpq_prune m arena line;
    let words = Array.sub arena.values base line_words in
    Hashtbl.replace m.m_wpq key words;
    m.m_wpq_hash <- m.m_wpq_hash lxor pending_entry_h key words;
    clear_dirty m arena line;
    access_point m key ~addr:(-1) ~write:true 0
  end

(** [clwb] once per cache line covered by words [base, base + words), in
    ascending line order. *)
let clwb_range ~site m ~base ~words =
  for line = base / line_words to (base + words - 1) / line_words do
    clwb ~site m (line * line_words)
  done

(** Blocking flush: the line is persisted before the call returns.
    Policy: [Elide] removes the instruction; [Downgrade_to_clwb] (and
    [Defer_to_next_fence], which means the same thing for a blocking
    flush) replaces it with an asynchronous [clwb] of the same line, so
    the contents reach media only at the next emitted fence. Both the
    FliT clean-line elision and the policy classes are surfaced per site
    — the unified accounting [clwb] always had. *)
let clflush ~site m addr =
  match policy_action m site with
  | Persist.Elide ->
    m.m_stats.policy_elided <- m.m_stats.policy_elided + 1;
    tel_site_count m "clflush_policy_elided" site
  | Persist.Downgrade_to_clwb | Persist.Defer_to_next_fence ->
    m.m_stats.policy_downgraded <- m.m_stats.policy_downgraded + 1;
    tel_site_count m "clflush_downgraded" site;
    clwb ~site m addr
  | Persist.Emit ->
  op_point m;
  let arena = arena_of_addr m addr in
  if arena.kind <> Nvm then invalid_arg "Memory.clflush: not an NVM address";
  let line = line_of_offset (offset_of_addr addr) in
  if m.m_flit
     && Bytes.get_uint8 arena.dirty line = 0
     && not (Hashtbl.mem m.m_wpq (dirty_key arena.aid line))
  then begin
    (* clean and nothing queued: media already holds the line *)
    Sim.tick (Sim.costs ()).Sim.Costs.flush_tag_check;
    tel_op m "clflush_elided" (Sim.costs ()).Sim.Costs.flush_tag_check;
    tel_site_count m "clflush_flit_elided" site;
    m.m_stats.clflush_elided <- m.m_stats.clflush_elided + 1;
    access_point m (dirty_key arena.aid line) ~addr:(-1) ~write:false 0
  end
  else begin
    Sim.tick (Sim.costs ()).Sim.Costs.clflush_line;
    tel_op m "clflush" (Sim.costs ()).Sim.Costs.clflush_line;
    tel_emit m "clflush" site (Sim.costs ()).Sim.Costs.clflush_line;
    m.m_stats.clflush <- m.m_stats.clflush + 1;
    commit_line_to_media m arena line;
    wpq_prune m arena line;
    clear_dirty m arena line;
    access_point m (dirty_key arena.aid line) ~addr:(-1) ~write:true 0
  end

(* Write one WPQ capture (always of an NVM line) back to media. *)
let drain_capture m key words =
  let arena = m.m_arenas.(key / lines_per_arena) in
  let base = (key mod lines_per_arena) * line_words in
  for i = 0 to line_words - 1 do
    set_media_word m arena (base + i) words.(i)
  done

(** Persistent fence: drains every queued [clwb] capture to media. *)
let sfence ~site m =
  match policy_action m site with
  | Persist.Elide ->
    (* the fence is gone; any queued write-backs stay pending and drain at
       the next emitted fence — or are lost to a crash, which is exactly
       the window the admission oracle has to clear *)
    m.m_stats.policy_elided <- m.m_stats.policy_elided + 1;
    tel_site_count m "sfence_policy_elided" site
  | Persist.Defer_to_next_fence ->
    m.m_stats.policy_deferred <- m.m_stats.policy_deferred + 1;
    tel_site_count m "sfence_deferred" site
  | Persist.Emit | Persist.Downgrade_to_clwb ->
  op_point m;
  if m.m_flit && Hashtbl.length m.m_wpq = 0 then begin
    (* empty WPQ: FliT's tracking knows nothing is pending and skips
       the fence, no drain cost *)
    tel_op m "sfence_elided" 0;
    tel_site_count m "sfence_flit_elided" site;
    m.m_stats.sfence_elided <- m.m_stats.sfence_elided + 1;
    access_point m (-1) ~addr:(-1) ~write:false 0
  end
  else begin
    Sim.tick (Sim.costs ()).Sim.Costs.sfence;
    tel_op m "sfence" (Sim.costs ()).Sim.Costs.sfence;
    tel_emit m "sfence" site (Sim.costs ()).Sim.Costs.sfence;
    tel_instant m "sfence";
    m.m_stats.sfence <- m.m_stats.sfence + 1;
    Hashtbl.iter (drain_capture m) m.m_wpq;
    Hashtbl.reset m.m_wpq;
    m.m_wpq_hash <- 0;
    access_point m (-1) ~addr:(-1) ~write:true 0
  end

(** Write back and invalidate the executing socket's entire cache: every
    line dirtied by this socket is persisted (NVM) or merely cleaned
    (DRAM). Cost scales with the number of dirty lines, making this the
    expensive hammer the paper says it is. *)
let wbinvd ~site m =
  match policy_action m site with
  | Persist.Elide ->
    m.m_stats.policy_elided <- m.m_stats.policy_elided + 1;
    tel_site_count m "wbinvd_policy_elided" site
  | Persist.Emit | Persist.Downgrade_to_clwb | Persist.Defer_to_next_fence ->
  op_point m;
  let socket = Sim.socket () in
  let table = m.m_dirty_by_socket.(socket) in
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) table [] in
  let flushed = List.length keys in
  let c = Sim.costs () in
  let cost = c.Sim.Costs.wbinvd_base + (flushed * c.Sim.Costs.wbinvd_per_line) in
  Sim.tick cost;
  tel_op m "wbinvd" cost;
  tel_emit m "wbinvd" site cost;
  tel_instant m "wbinvd";
  m.m_stats.wbinvd <- m.m_stats.wbinvd + 1;
  m.m_stats.wbinvd_lines <- m.m_stats.wbinvd_lines + flushed;
  List.iter
    (fun key ->
      let aid = key / lines_per_arena and line = key mod lines_per_arena in
      let arena = m.m_arenas.(aid) in
      commit_line_to_media m arena line;
      wpq_prune m arena line;
      clear_dirty m arena line)
    keys;
  access_point m (-1) ~addr:(-1) ~write:true 0

(** Write back every dirty line of arena [aid] to media (blocking).
    Used by CX-PUC's persist-the-whole-replica step: clean lines cost
    nothing, dirty lines cost one [clwb] each, plus one trailing fence. *)
let clean_line_flush_cost = 12
(* issuing CLWB for a line that turns out to be clean still costs the
   instruction; this is what makes walking a huge address range more
   expensive than WBINVD for large structures *)

let flush_arena ~site m aid =
  match policy_action m site with
  | Persist.Elide ->
    m.m_stats.policy_elided <- m.m_stats.policy_elided + 1;
    tel_site_count m "flush_arena_policy_elided" site
  | Persist.Emit | Persist.Downgrade_to_clwb | Persist.Defer_to_next_fence ->
  op_point m;
  let arena = m.m_arenas.(aid) in
  if arena.kind <> Nvm then invalid_arg "Memory.flush_arena: not an NVM arena";
  let c = Sim.costs () in
  let total = ref (lines_per_arena * clean_line_flush_cost) in
  Sim.tick (lines_per_arena * clean_line_flush_cost);
  for line = 0 to lines_per_arena - 1 do
    if Bytes.get_uint8 arena.dirty line <> 0 then begin
      Sim.tick c.Sim.Costs.clwb_line;
      total := !total + c.Sim.Costs.clwb_line;
      m.m_stats.clwb <- m.m_stats.clwb + 1;
      commit_line_to_media m arena line;
      wpq_prune m arena line;
      clear_dirty m arena line
    end
  done;
  tel_op m "flush_arena" !total;
  tel_emit m "flush_arena" site !total;
  access_point m (-1) ~addr:(-1) ~write:true 0

(* ---- crash and inspection (no simulated cost: harness-side) ---- *)

(** Full-system power failure: caches and DRAM vanish; only NVM media
    survives. The coherent view of every NVM arena is rebuilt from media;
    DRAM arenas are zeroed. *)
let crash m =
  tel_instant m "crash";
  for aid = 0 to m.m_count - 1 do
    let arena = m.m_arenas.(aid) in
    (match arena.kind with
     | Nvm -> Array.blit arena.media 0 arena.values 0 arena_words
     | Dram -> Array.fill arena.values 0 arena_words 0);
    Bytes.fill arena.dirty 0 (Bytes.length arena.dirty) '\000'
  done;
  Array.iter Hashtbl.reset m.m_dirty_by_socket;
  Hashtbl.reset m.m_wpq;
  (* post-crash the coherent view of NVM equals media and DRAM is all
     zeroes, so the value fingerprint collapses to the media fingerprint
     and the dirty/WPQ fingerprints to empty — no rescan needed *)
  m.m_value_hash <- m.m_media_hash;
  m.m_dirty_hash <- 0;
  m.m_wpq_hash <- 0

(** Read a word without charging simulated time (test/assertion helper). *)
let peek m addr = (arena_of_addr m addr).values.(offset_of_addr addr)

(** Read a word as it would be recovered after a crash right now. *)
let peek_media m addr =
  let arena = arena_of_addr m addr in
  match arena.kind with
  | Nvm -> arena.media.(offset_of_addr addr)
  | Dram -> 0

let arena_kind m aid = m.m_arenas.(aid).kind
let arena_count m = m.m_count

(* ---- enumerable crash-set API (model checking) ----

   The random crash hook above cuts a run at *one* point with whatever the
   background flusher happened to persist. The explorer instead asks, at a
   chosen point: which media images are reachable by a crash *right now*?
   Answer: current media plus any subset of the dirty NVM lines that the
   cache could have written back first (the WPQ is volatile, exactly as in
   [crash]). These helpers enumerate that frontier: a sorted dirty-line
   list, an O(line) XOR delta per line for incremental dedup of subset
   images, a cost-free [commit_line] to realise a subset, and
   [snapshot]/[restore] so one run can branch into many crash checks and
   resume unharmed. *)

(** Sorted [dirty_key]s of every dirty NVM line. The order is the subset-
    mask convention shared by the explorer and its replay mode: bit [i] of
    a frontier mask refers to element [i] of this list. *)
let dirty_nvm_line_keys m =
  let acc = ref [] in
  Array.iter
    (fun tbl -> Hashtbl.iter (fun key () ->
         let aid = key / lines_per_arena in
         if m.m_arenas.(aid).kind = Nvm then acc := key :: !acc) tbl)
    m.m_dirty_by_socket;
  List.sort compare !acc

(** XOR delta that committing line [key]'s coherent contents to media would
    apply to [media_hash]. Lets the explorer fingerprint all 2^k subset
    images of k dirty lines in O(2^k) word-hashes via Gray-code order
    instead of O(2^k · k). *)
let line_commit_delta m key =
  let aid = key / lines_per_arena and line = key mod lines_per_arena in
  let arena = m.m_arenas.(aid) in
  let base = line * line_words in
  let d = ref 0 in
  for i = 0 to line_words - 1 do
    let off = base + i in
    if arena.values.(off) <> arena.media.(off) then begin
      let addr = addr_of ~aid ~offset:off in
      d := !d lxor word_h addr arena.values.(off)
           lxor word_h addr arena.media.(off)
    end
  done;
  !d

(** Commit line [key] to media without simulated cost: models the
    background flusher having persisted that line just before a crash.
    Leaves the dirty map alone — [crash] wipes it anyway. *)
let commit_line m key =
  commit_line_to_media m m.m_arenas.(key / lines_per_arena)
    (key mod lines_per_arena)

type snap = {
  s_count : int;
  s_values : int array array;
  s_media : int array array;
  s_dirty : Bytes.t array;
  s_dirty_tbls : (int, unit) Hashtbl.t array;
  s_wpq : (int, int array) Hashtbl.t;
  s_flit : bool;
  s_value_hash : int;
  s_media_hash : int;
  s_dirty_hash : int;
  s_wpq_hash : int;
  s_op_index : int;
  s_countdown : int;
}

(** Capture the complete simulated-memory state. Pending-line captures are
    immutable once queued, so they are shared, not copied. *)
let snapshot m =
  {
    s_count = m.m_count;
    s_values = Array.init m.m_count (fun i -> Array.copy m.m_arenas.(i).values);
    s_media = Array.init m.m_count (fun i -> Array.copy m.m_arenas.(i).media);
    s_dirty = Array.init m.m_count (fun i -> Bytes.copy m.m_arenas.(i).dirty);
    s_dirty_tbls = Array.map Hashtbl.copy m.m_dirty_by_socket;
    s_wpq = Hashtbl.copy m.m_wpq;
    s_flit = m.m_flit;
    s_value_hash = m.m_value_hash;
    s_media_hash = m.m_media_hash;
    s_dirty_hash = m.m_dirty_hash;
    s_wpq_hash = m.m_wpq_hash;
    s_op_index = m.m_op_index;
    s_countdown = m.m_countdown;
  }

(** Restore a snapshot taken on this memory. Arenas allocated after the
    snapshot become unreachable again (the arena counter rewinds), exactly
    as if the interlude never happened. A snapshot may be restored any
    number of times. *)
let restore m s =
  m.m_count <- s.s_count;
  for aid = 0 to s.s_count - 1 do
    let a = m.m_arenas.(aid) in
    Array.blit s.s_values.(aid) 0 a.values 0 arena_words;
    if Array.length a.media > 0 then
      Array.blit s.s_media.(aid) 0 a.media 0 arena_words;
    Bytes.blit s.s_dirty.(aid) 0 a.dirty 0 (Bytes.length a.dirty)
  done;
  Array.iteri
    (fun i tbl ->
      let dst = m.m_dirty_by_socket.(i) in
      Hashtbl.reset dst;
      Hashtbl.iter (fun k () -> Hashtbl.replace dst k ()) tbl)
    s.s_dirty_tbls;
  Hashtbl.reset m.m_wpq;
  Hashtbl.iter (fun k v -> Hashtbl.replace m.m_wpq k v) s.s_wpq;
  m.m_flit <- s.s_flit;
  m.m_value_hash <- s.s_value_hash;
  m.m_media_hash <- s.s_media_hash;
  m.m_dirty_hash <- s.s_dirty_hash;
  m.m_wpq_hash <- s.s_wpq_hash;
  m.m_op_index <- s.s_op_index;
  m.m_countdown <- s.s_countdown
