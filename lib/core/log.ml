(** The shared circular operation log (paper §3, §4.1, Table 1).

    Each entry occupies one cache line:
    [0] emptyBit | [1] op | [2] argc | [3..5] args | [6] tid | [7] seqno.
    Words 6–7 are zero unless detectable execution is on, in which case the
    combiner tags each entry with the submitting thread and its client
    seqno before publishing, so recovery's replay can reconcile response
    slots from the log itself.

    The various indexes (logTail, localTail, completedTail, logMin) are
    monotonically increasing; the entry for index [i] is [i mod size]. The
    emptyBit's meaning flips parity on every wrap of the log: on even laps
    a full entry holds 1, on odd laps 0 — so a stale entry from the
    previous lap reads as empty and entries can be reused without being
    cleared (§3).

    In durable mode the log lives in NVM and writers persist entries with
    CLWB + SFENCE before publishing responses; in buffered/volatile mode it
    lives in DRAM and a crash destroys it (§5.1, §5.2). *)

open Nvm

let entry_words = 8
let max_args = 3

type t = {
  mem : Memory.t;
  base : int; (* address of entry 0 *)
  size : int; (* entries *)
  durable : bool;
  mirror : int option;
      (* address of entry 0 of the DRAM shadow copy, if the log-mirror
         optimisation is on: every entry store is duplicated there and all
         consumer reads (replica catch-up, persistence thread, readonly
         catch-up) are served from it at DRAM cost. CLWB/SFENCE and
         recovery keep using [base] — the NVM copy stays the sole
         durability source, and the mirror is rebuilt from it after a
         crash. *)
  (* harness-side counters (no simulated cost), surfaced in bench JSON *)
  mutable primary_reads : int;
  mutable mirror_reads : int;
  mutable mirror_stores : int;
}

let alloc_arenas mem ~size ~kind =
  let words = size * entry_words in
  let arenas = (words + Memory.arena_words - 1) / Memory.arena_words in
  let first = Memory.new_arena mem ~kind ~home:0 in
  for i = 1 to arenas - 1 do
    let aid = Memory.new_arena mem ~kind ~home:0 in
    if aid <> first + i then failwith "Log.create: arenas not consecutive"
  done;
  Memory.addr_of ~aid:first ~offset:0

(** Allocate the log as dedicated consecutive arenas homed on socket 0.
    [mirror] additionally allocates a same-sized DRAM shadow (durable
    mode only: in buffered/volatile mode the log itself is already in
    DRAM and a mirror would buy nothing). *)
let create ?(mirror = false) mem ~size ~durable =
  let base = alloc_arenas mem ~size ~kind:(if durable then Memory.Nvm else Memory.Dram) in
  let mirror =
    if mirror && durable then Some (alloc_arenas mem ~size ~kind:Memory.Dram)
    else None
  in
  { mem; base; size; durable; mirror;
    primary_reads = 0; mirror_reads = 0; mirror_stores = 0 }

(** Re-wrap an existing log allocation (recovery): same layout, fresh
    counters. [mirror] is the shadow's base address, if consumer reads
    should be served from one — recovery passes [None] so replay reads
    the NVM media truth (except under the planted
    [Config.Mirror_read_on_recovery] fault). *)
let attach mem ~base ~size ~durable ~mirror =
  { mem; base; size; durable; mirror;
    primary_reads = 0; mirror_reads = 0; mirror_stores = 0 }

let mirror_base t = t.mirror

let entry_addr t idx = t.base + (idx mod t.size * entry_words)

(* Address of entry [idx] for *consumer reads*: the DRAM mirror when one
   is attached, the primary copy otherwise. *)
let read_addr t idx =
  match t.mirror with
  | None ->
      t.primary_reads <- t.primary_reads + 1;
      entry_addr t idx
  | Some mbase ->
      t.mirror_reads <- t.mirror_reads + 1;
      mbase + (idx mod t.size * entry_words)

(* Duplicate a just-written entry word into the mirror, if one is on. *)
let mirror_store t idx ~word v =
  match t.mirror with
  | None -> ()
  | Some mbase ->
      t.mirror_stores <- t.mirror_stores + 1;
      Memory.mirror_write t.mem (mbase + (idx mod t.size * entry_words) + word) v


(** emptyBit value that means "full" for index [idx]'s lap. *)
let full_parity t idx = if idx / t.size mod 2 = 0 then 1 else 0

let is_full t idx =
  Memory.read t.mem (read_addr t idx) = full_parity t idx

(** Write an entry's payload — arguments first, then the operation, exactly
    as §4.1 prescribes — without publishing it. *)
let write_payload t idx ~op ~args =
  if Array.length args > max_args then invalid_arg "Log: too many args";
  let a = entry_addr t idx in
  Memory.write t.mem (a + 2) (Array.length args);
  mirror_store t idx ~word:2 (Array.length args);
  Array.iteri
    (fun i v ->
      Memory.write t.mem (a + 3 + i) v;
      mirror_store t idx ~word:(3 + i) v)
    args;
  Memory.write t.mem (a + 1) op;
  mirror_store t idx ~word:1 op

(** Tag entry [idx] with the submitting thread and its client seqno
    (detectable execution only). Written between payload and publish, so
    the tag is covered by the same line persist as the rest of the entry. *)
let write_tag t idx ~tid ~seqno =
  let a = entry_addr t idx in
  Memory.write t.mem (a + 6) tid;
  mirror_store t idx ~word:6 tid;
  Memory.write t.mem (a + 7) seqno;
  mirror_store t idx ~word:7 seqno

(** Queue the entry's line for write-back (durable mode only). *)
let persist_entry t idx =
  if t.durable then
    Memory.clwb ~site:Persist.Log_persist_entry t.mem (entry_addr t idx)

(** Line-coalesced CLWB sweep over entries [first, first + n): one CLWB per
    distinct cache line covered by the range (durable mode only). The LSM
    seal persists its replay window with it; the combiner persists its
    batch entry by entry ([persist_entry]). A wrapping range is swept as
    its two contiguous halves. *)
let persist_range t ~first ~n =
  if t.durable && n > 0 then begin
    (* up to the line holding the last entry's first word *)
    let sweep first n =
      Memory.clwb_range ~site:Persist.Log_persist_range t.mem
        ~base:(entry_addr t first) ~words:(((n - 1) * entry_words) + 1)
    in
    let idx = first mod t.size in
    if idx + n <= t.size then sweep first n
    else begin
      let head = t.size - idx in
      sweep first head;
      sweep (first + head) (n - head)
    end
  end

(** Persistent fence (durable mode only). The combiner's two-phase persist
    passes its own [site] ([Log_fence_payload] / [Log_fence_publish]) so
    the two fences are separately addressable by the persistency policy:
    [optimize-persist] proves the payload fence deferrable, and
    [Config.flit] installs that deferral ([Prep_uc.build]). *)
let fence ?(site = Persist.Log_fence) t =
  if t.durable then Memory.sfence ~site t.mem

(** Flip the emptyBit, making the entry visible to consumers. The payload
    must reach the mirror before the emptyBit does — consumers poll the
    mirror's emptyBit — so the mirror store order repeats the primary's. *)
let publish t idx =
  Memory.write t.mem (entry_addr t idx) (full_parity t idx);
  mirror_store t idx ~word:0 (full_parity t idx)

(** Read a published entry's payload. Callers must have checked [is_full]
    (or otherwise know the entry is published). *)
let read_payload t idx =
  let a = read_addr t idx in
  let op = Memory.read t.mem (a + 1) in
  let argc = Memory.read t.mem (a + 2) in
  let args = Array.init argc (fun i -> Memory.read t.mem (a + 3 + i)) in
  (op, args)

(** Read entry [idx] with one line load: [Some (op, args, (tid, seqno))]
    when it is published on [idx]'s lap (the tag is (0, 0) when untagged),
    [None] otherwise. Recovery's suffix scan reads the log this way; the
    live consumers poll the emptyBit word by word ([wait_and_read]). *)
let read_entry t idx =
  let w = Memory.read_words t.mem (read_addr t idx) entry_words in
  if w.(0) <> full_parity t idx then None
  else Some (w.(1), Array.sub w 3 w.(2), (w.(6), w.(7)))

(** Spin until index [idx] is published, then read it. Entries below the
    completedTail are always published, so consumers cannot hang here. *)
let wait_and_read t idx =
  while not (is_full t idx) do
    Sim.spin ()
  done;
  read_payload t idx
