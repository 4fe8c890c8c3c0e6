(** Dynamic memory allocators over simulated memory.

    Two flavours, mirroring the paper's setup (§5.1, §6):

    - a *volatile* allocator (the stand-in for jemalloc) serving DRAM
      arenas homed on a given socket, and
    - a *persistent* allocator (the stand-in for the simple free-list
      allocator of Correia et al.) serving NVM arenas.

    Crash-safety policy of the persistent allocator: arena contents are
    media-backed, so allocated objects keep their addresses across a crash
    (requirement 2 of §5.1). Allocator bookkeeping itself is volatile and is
    *rebuilt fresh* on recovery — a recovered heap never reuses pre-crash
    addresses, so a crash can leak but can never corrupt a live object
    (requirement 1). Within a run, freed blocks are recycled through
    per-size free lists.

    A heap is a root, which owns arenas, or a child ([child]), which owns
    none and bump-allocates from chunks carved from its parent's bump
    run: every word a child hands out lies in an arena its root owns. *)

type t = {
  mem : Memory.t;
  kind : Memory.kind;
  home : int;
  parent : t option; (* a child's chunks come from here *)
  mutable arenas : int list; (* aids owned by this allocator, newest first *)
  mutable bump_aid : int;
  mutable bump_off : int;
  mutable bump_end : int; (* end of the bump run: the arena's, or the chunk's *)
  free_lists : (int, int list ref) Hashtbl.t; (* size -> reusable addrs *)
  mutable live_words : int;
}

let alloc_cost = 90 (* fixed simulated cost of one malloc/free call *)

let create mem ~kind ~home =
  let aid = Memory.new_arena mem ~kind ~home in
  {
    mem;
    kind;
    home;
    parent = None;
    arenas = [ aid ];
    bump_aid = aid;
    (* never hand out offset 0 of any arena: address 0 is the null pointer
       and keeping offset 0 reserved everywhere makes bugs loud *)
    bump_off = Memory.line_words;
    bump_end = Memory.arena_words;
    free_lists = Hashtbl.create 16;
    live_words = 0;
  }

let create_volatile mem ~home = create mem ~kind:Memory.Dram ~home
let create_persistent mem ~home = create mem ~kind:Memory.Nvm ~home

let mem t = t.mem
let arenas t = t.arenas
let live_words t = t.live_words

(** A sub-heap of [t]: same memory, kind and home, arenas of its own, so
    a second fiber can allocate beside [t]'s owner without sharing a bump
    pointer. Hand it back with [adopt]. *)
let sub t = create t.mem ~kind:t.kind ~home:t.home

(* The size of a child's chunk: big enough that a child refills rarely,
   small enough that the unused ends of a fork's chunks stay under one
   arena for any fan-out a socket lends. *)
let chunk_words = Memory.arena_words / 16

(** A child heap of [t]: same memory, kind and home, owning no arena. It
    bump-allocates from chunks carved from [t]'s bump run as it needs
    them, so a second fiber can allocate beside [t]'s owner without
    sharing a bump pointer, and [t] (or, for a child of a child, its
    root) owns every arena the child's words lie in. Hand it back with
    [adopt]. *)
let child t =
  {
    mem = t.mem;
    kind = t.kind;
    home = t.home;
    parent = Some t;
    arenas = [];
    bump_aid = 0;
    bump_off = 0;
    bump_end = 0;
    free_lists = Hashtbl.create 16;
    live_words = 0;
  }

(** Take over [s]'s arenas and live words: everything [s] handed out now
    belongs to [t] (its [arenas], its [persist_heap]). For a child of
    [t] that is its live words alone. [t] keeps bumping in its own run,
    and blocks freed into [s] stay unused (a leak, never a reuse); [s]
    must not be used afterwards. *)
let adopt t s =
  if s.mem != t.mem || s.kind <> t.kind then invalid_arg "Alloc.adopt: foreign heap";
  (match s.parent with
   | Some p when p != t -> invalid_arg "Alloc.adopt: another heap's child"
   | Some _ | None -> ());
  t.arenas <- s.arenas @ t.arenas;
  t.live_words <- t.live_words + s.live_words

(* [n] fresh words from [t]'s bump run, refilled first if too short: a
   root opens a new arena, a child carves a chunk of its parent's run —
   [max chunk_words n] words, or the rest of the parent's run when that
   is shorter but fits [n], so no arena's tail is left unused for a
   chunk. *)
let rec bump t n =
  if t.bump_off + n > t.bump_end then begin
    match t.parent with
    | None ->
      let aid = Memory.new_arena t.mem ~kind:t.kind ~home:t.home in
      t.arenas <- aid :: t.arenas;
      t.bump_aid <- aid;
      t.bump_off <- Memory.line_words;
      t.bump_end <- Memory.arena_words
    | Some p ->
      let want = max chunk_words n and left = p.bump_end - p.bump_off in
      let len = if left >= n && left < want then left else want in
      let addr = bump p len in
      t.bump_aid <- addr / Memory.arena_words;
      t.bump_off <- Memory.offset_of_addr addr;
      t.bump_end <- t.bump_off + len
  end;
  let addr = Memory.addr_of ~aid:t.bump_aid ~offset:t.bump_off in
  t.bump_off <- t.bump_off + n;
  addr

(** Allocate [size] words, zero-initialised. *)
let alloc t size =
  if size <= 0 || size > Memory.arena_words / 2 then
    invalid_arg "Alloc.alloc: bad size";
  Sim.tick alloc_cost;
  t.live_words <- t.live_words + size;
  match Hashtbl.find_opt t.free_lists size with
  | Some ({ contents = addr :: rest } as cell) ->
    cell := rest;
    (* recycled block: scrub it so stale words cannot leak between users;
       the scrub dirties the lines so the zeros are re-persistable *)
    Memory.scrub t.mem addr size;
    addr
  | Some _ | None -> bump t size

(** Allocate [lines] whole cache lines, zero-initialised and line-aligned.
    Over-allocates by one line and rounds the returned address up to a line
    boundary, so structures whose crash atomicity depends on line layout
    (announce/response records, open-coded locks) never straddle lines. The
    padding is never reclaimed — line-aligned blocks are not [free]d. *)
let alloc_lines t lines =
  if lines <= 0 then invalid_arg "Alloc.alloc_lines: bad count";
  let lw = Memory.line_words in
  let raw = alloc t ((lines + 1) * lw) in
  (raw + lw - 1) / lw * lw

(** Return a block of [size] words to the allocator's free list. *)
let free t addr size =
  Sim.tick alloc_cost;
  t.live_words <- t.live_words - size;
  match Hashtbl.find_opt t.free_lists size with
  | Some cell -> cell := addr :: !cell
  | None -> Hashtbl.replace t.free_lists size (ref [ addr ])

(** Persist the allocator's entire heap (every owned arena). This is the
    CX-PUC persistence strategy: write back whatever is dirty in the
    replica's address range, then fence. [split] runs the per-arena
    write-backs, by default in order on this fiber (recovery deals them
    over idle cores, [Context.spread]); the one fence follows them all. *)
let persist_heap ?(split = fun jobs -> List.iter (fun f -> f ()) jobs) t =
  if t.kind <> Memory.Nvm then invalid_arg "Alloc.persist_heap: volatile heap";
  split
    (List.map
       (fun aid () ->
         Memory.flush_arena ~site:Persist.Alloc_persist_heap t.mem aid)
       t.arenas);
  Memory.sfence ~site:Persist.Alloc_persist_heap t.mem
