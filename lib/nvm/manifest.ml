(** The fenced manifest: the single NVM root of the incremental-checkpoint
    backend.

    One manifest record names the live segment set (newest first), the log
    index up to which those segments capture every effect ([sealed_lt]),
    and a monotone epoch. Publishing alternates between two checksummed
    slots: a writer never touches the slot holding the current maximum
    epoch, so a crash mid-publish can only tear the *new* record — the
    reader detects the torn checksum and falls back to the previous epoch,
    which is exactly the pre-publish state. Publish order is
    write → CLWB → SFENCE, so once [publish] returns the record is media
    truth (recovery roots are reachable the instant the fence drains).

    Capacity is fixed: [max_segments] addresses per record. The sealing
    path compacts or refuses before overflowing — a manifest that cannot
    name a segment must never silently drop it. *)

let max_segments = 256

(* slot layout: epoch, sealed_lt, nseg, addrs[max_segments], checksum *)
let slot_words = 3 + max_segments + 1
let ck_off = 3 + max_segments

let slot_stride =
  (slot_words + Memory.line_words - 1) / Memory.line_words * Memory.line_words

let region_lines = 2 * slot_stride / Memory.line_words

type t = { mem : Memory.t; base : int }

type record = {
  epoch : int;
  sealed_lt : int;  (** log entries [0, sealed_lt) are covered by [segs] *)
  segs : int list;  (** segment base addresses, newest first *)
}

let checksum ~epoch ~sealed_lt ~nseg addrs =
  let h = ref (Memory.mix epoch) in
  h := Memory.h2 !h sealed_lt;
  h := Memory.h2 !h nseg;
  List.iter (fun a -> h := Memory.h2 !h a) addrs;
  if !h = 0 then 1 else !h

(** Allocate the two-slot region (zeroed: both slots invalid, epoch 0). *)
let create alloc =
  let base = Alloc.alloc_lines alloc region_lines in
  { mem = Alloc.mem alloc; base }

let attach mem ~base = { mem; base }
let base t = t.base
let slot_addr t i = t.base + (i * slot_stride)

(** Publish a new record with [epoch] into the slot the current maximum
    epoch does *not* occupy. Epochs must be handed out monotonically by
    the single writer (the persistence thread). Fully fenced on return. *)
let publish t ~epoch ~sealed_lt ~segs =
  let nseg = List.length segs in
  if nseg > max_segments then invalid_arg "Manifest.publish: too many segments";
  if epoch <= 0 then invalid_arg "Manifest.publish: bad epoch";
  let s = slot_addr t (epoch land 1) in
  Memory.write t.mem s epoch;
  Memory.write t.mem (s + 1) sealed_lt;
  Memory.write t.mem (s + 2) nseg;
  List.iteri (fun i a -> Memory.write t.mem (s + 3 + i) a) segs;
  Memory.write t.mem (s + ck_off) (checksum ~epoch ~sealed_lt ~nseg segs);
  Memory.clwb_range ~site:Persist.Manifest_publish t.mem ~base:s
    ~words:(ck_off + 1);
  Memory.sfence ~site:Persist.Manifest_publish t.mem

let read_slot t i =
  let s = slot_addr t i in
  let epoch = Memory.read t.mem s in
  if epoch <= 0 then None
  else
    let sealed_lt = Memory.read t.mem (s + 1) in
    let nseg = Memory.read t.mem (s + 2) in
    if nseg < 0 || nseg > max_segments then None
    else
      let segs = List.init nseg (fun i -> Memory.read t.mem (s + 3 + i)) in
      if Memory.read t.mem (s + ck_off) <> checksum ~epoch ~sealed_lt ~nseg segs
      then None
      else Some { epoch; sealed_lt; segs }

let best a b =
  match (a, b) with
  | None, r | r, None -> r
  | Some ra, Some rb -> if ra.epoch >= rb.epoch then a else b

(** Read back the newest valid record (charged reads); [None] only if no
    publish ever completed. A record torn by a crash mid-publish fails its
    checksum and the previous epoch wins — the torn-manifest fallback. *)
let load t = best (read_slot t 0) (read_slot t 1)
