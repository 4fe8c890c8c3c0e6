(** Immutable sorted NVM segments — the sealed units of the incremental
    (LSM-flavoured) checkpoint backend.

    A segment is a line-aligned NVM block holding a Bloom filter and a
    sorted run of [(key, value)] records, sealed by a header written and
    fenced strictly *after* the body is durable. The seal discipline is the
    crash contract: a header whose magic is on media implies every body
    word below it is on media too, so recovery validates a segment with an
    O(1) header read instead of an O(records) scan. (The planted
    manifest-before-segment-seal fault breaks exactly this ordering.)

    Layout (word offsets from the line-aligned base):

      0  magic (sealed marker + format version)
      1  record count
      2  level (LSM tier; seals start at 0, compaction outputs level+1)
      3  min key   (occupancy filter: exact key range)
      4  max key
      5  Bloom filter word count
      6  reserved (0)
      7  checksum over header fields + body (for audits; not on hot paths)
      8 ..                 Bloom filter words
      8 + bloom_words ..   records, 2 words each, sorted ascending by key

    Keys and values are plain integers — the module is agnostic of the
    sequential structure above it. Deleted keys are recorded with the
    [tombstone] sentinel value, which clients must never store. *)

let header_words = 8

let magic = 0x5E6_C0DE (* "segment, sealed" *)

(** Sentinel value recording a deletion. Client values may be negative
    (sharded transfers drive balances below zero); the guard in
    [Memtable.put] keeps the sentinel from ever colliding with a real
    value. *)
let tombstone = min_int / 2

module Bloom = struct
  (** Per-segment Bloom filter over the record keys. Sized at
      [bits_per_key] bits per record with [probes] probe positions, giving
      an analytic false-positive rate of (1 - e^{-k/c})^k ≈ 1.2% for
      c = 10, k = 4. Probes short-circuit on the first clear bit, so a
      cold-segment miss usually costs one or two word reads. *)

  let bits_per_key = 10
  let probes = 4

  (* bits packed per word; < 62 so (1 lsl bit) stays positive *)
  let bits_per_word = 60

  let nbits ~count = max bits_per_word (count * bits_per_key)
  let words_for ~count = (nbits ~count + bits_per_word - 1) / bits_per_word

  (* double hashing: position i = h1 + i*h2 (mod nbits) *)
  let h1 key = Memory.mix (key + 0x1E3779B97F4A7C15)
  let h2_of key = Memory.mix (key lxor 0x2A09E667F3BCC908)

  let position key ~nbits i =
    let a = h1 key and b = h2_of key in
    let p = (a + (i * b)) mod nbits in
    if p < 0 then p + nbits else p

  (** Set [key]'s probe bits in the volatile build buffer [buf]. *)
  let add buf key ~nbits =
    for i = 0 to probes - 1 do
      let p = position key ~nbits i in
      let w = p / bits_per_word and b = p mod bits_per_word in
      buf.(w) <- buf.(w) lor (1 lsl b)
    done

  (** Probe the filter at NVM address [base] (charged reads). *)
  let mem_costed mem ~base ~nbits key =
    let rec probe i =
      if i >= probes then true
      else
        let p = position key ~nbits i in
        let w = p / bits_per_word and b = p mod bits_per_word in
        if Memory.read mem (base + w) land (1 lsl b) = 0 then false
        else probe (i + 1)
    in
    probe 0
end

(** Volatile mount record of one sealed segment. Rebuilt from the header
    on recovery; never trusted across a crash. *)
type meta = {
  addr : int;
  count : int;
  level : int;
  min_key : int;
  max_key : int;
  bloom_words : int;
}

let nbits m = Bloom.nbits ~count:m.count
let bloom_base m = m.addr + header_words
let rec_base m = m.addr + header_words + m.bloom_words

let words_needed ~count =
  header_words + Bloom.words_for ~count + (2 * count)

let lines_needed ~count =
  (words_needed ~count + Memory.line_words - 1) / Memory.line_words

(** Largest record count a single segment may hold: one allocator call
    caps at half an arena, and sealing splits bigger drains into several
    segments. *)
let max_records =
  (* solve words_needed(count) <= arena_words / 2 - slack conservatively *)
  let budget = (Memory.arena_words / 2) - (2 * Memory.line_words) in
  (budget - header_words) * Bloom.bits_per_word
  / ((2 * Bloom.bits_per_word) + Bloom.bits_per_key)

let checksum ~count ~level ~min_key ~max_key ~bloom_words body =
  let h = ref (Memory.mix count) in
  h := Memory.h2 !h level;
  h := Memory.h2 !h min_key;
  h := Memory.h2 !h max_key;
  h := Memory.h2 !h bloom_words;
  List.iter (fun w -> h := Memory.h2 !h w) body;
  if !h = 0 then 1 else !h

(** Write and seal a segment at [addr] (from [Alloc.alloc_lines
    (lines_needed ~count)]). [recs] is sorted ascending by key, values may
    be [tombstone]. Performs the full two-fence discipline: body words +
    write-backs, fence, then the sealing header, write-back, fence. On
    return the segment is durable and self-describing. *)
let build mem ~addr ~level recs =
  let count = Array.length recs in
  if count = 0 then invalid_arg "Segment.build: empty";
  if count > max_records then invalid_arg "Segment.build: too many records";
  let bloom_words = Bloom.words_for ~count in
  let nbits = Bloom.nbits ~count in
  let bloom = Array.make bloom_words 0 in
  Array.iter (fun (k, _) -> Bloom.add bloom k ~nbits) recs;
  let min_key = fst recs.(0) and max_key = fst recs.(count - 1) in
  (* body: bloom then records *)
  Array.iteri
    (fun i w -> Memory.write mem (addr + header_words + i) w)
    bloom;
  let rb = addr + header_words + bloom_words in
  Array.iteri
    (fun i (k, v) ->
      Memory.write mem (rb + (2 * i)) k;
      Memory.write mem (rb + (2 * i) + 1) v)
    recs;
  Memory.clwb_range ~site:Persist.Segment_body mem ~base:(addr + header_words)
    ~words:(bloom_words + (2 * count));
  Memory.sfence ~site:Persist.Segment_body mem;
  (* seal: the header goes durable only after the body fence above *)
  let body =
    Array.to_list bloom
    @ List.concat_map (fun (k, v) -> [ k; v ]) (Array.to_list recs)
  in
  let ck = checksum ~count ~level ~min_key ~max_key ~bloom_words body in
  Memory.write mem (addr + 1) count;
  Memory.write mem (addr + 2) level;
  Memory.write mem (addr + 3) min_key;
  Memory.write mem (addr + 4) max_key;
  Memory.write mem (addr + 5) bloom_words;
  Memory.write mem (addr + 6) 0;
  Memory.write mem (addr + 7) ck;
  Memory.write mem addr magic;
  Memory.clwb ~site:Persist.Segment_seal mem addr;
  Memory.sfence ~site:Persist.Segment_seal mem;
  { addr; count; level; min_key; max_key; bloom_words }

(** Mount a segment from its header (charged reads, O(1)). Returns [None]
    if the header is not a sane sealed segment — a torn build left by a
    crash (possible only under the planted fault, since the proper seal
    discipline fences the body first). *)
let mount mem addr =
  if Memory.read mem addr <> magic then None
  else
    let count = Memory.read mem (addr + 1) in
    let level = Memory.read mem (addr + 2) in
    let min_key = Memory.read mem (addr + 3) in
    let max_key = Memory.read mem (addr + 4) in
    let bloom_words = Memory.read mem (addr + 5) in
    if
      count <= 0 || count > max_records
      || bloom_words <> Bloom.words_for ~count
      || min_key > max_key || level < 0
    then None
    else Some { addr; count; level; min_key; max_key; bloom_words }

(** Full O(records) checksum audit (tests and recovery diagnostics; never
    on the mount or lookup hot paths). *)
let verify mem m =
  let body = ref [] in
  for i = rec_base m + (2 * m.count) - 1 downto bloom_base m do
    body := Memory.peek mem i :: !body
  done;
  Memory.peek mem (m.addr + 7)
  = checksum ~count:m.count ~level:m.level ~min_key:m.min_key
      ~max_key:m.max_key ~bloom_words:m.bloom_words !body

(* ---- reads ---- *)

(** Exact occupancy filter: pure range check against the mount record. *)
let range_hit m key = key >= m.min_key && key <= m.max_key

let bloom_hit mem m key =
  Bloom.mem_costed mem ~base:(bloom_base m) ~nbits:(nbits m) key

(** Binary search for [key] (charged reads, O(log count)). The returned
    value may be [tombstone]. Call behind [range_hit]/[bloom_hit]. *)
let find mem m key =
  let rb = rec_base m in
  let rec go lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let k = Memory.read mem (rb + (2 * mid)) in
      if k = key then Some (Memory.read mem (rb + (2 * mid) + 1))
      else if k < key then go (mid + 1) hi
      else go lo (mid - 1)
  in
  go 0 (m.count - 1)

(** Filtered lookup: range check, Bloom probe, then binary search. *)
let lookup mem m key =
  if not (range_hit m key) then None
  else if not (bloom_hit mem m key) then None
  else find mem m key

(** All records, oldest-format order (ascending keys), charged reads. *)
let to_array mem m =
  let rb = rec_base m in
  Array.init m.count (fun i ->
      (Memory.read mem (rb + (2 * i)), Memory.read mem (rb + (2 * i) + 1)))

(** Cost-free record dump (checkers and snapshots only). *)
let peek_array mem m =
  let rb = rec_base m in
  Array.init m.count (fun i ->
      (Memory.peek mem (rb + (2 * i)), Memory.peek mem (rb + (2 * i) + 1)))

module Memtable = struct
  (** The volatile accumulation buffer between seals: latest effect per
      key, deletions as [tombstone]. Strictly DRAM-side OCaml state — its
      contents are exactly reproducible from the log suffix past the last
      sealed index, which is why losing it in a crash is safe. *)

  type t = (int, int) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let size (t : t) = Hashtbl.length t

  let put (t : t) key value =
    if value = tombstone then invalid_arg "Memtable.put: tombstone value";
    Hashtbl.replace t key value

  let del (t : t) key = Hashtbl.replace t key tombstone

  (** Drain to a sorted record array and clear. *)
  let drain_sorted (t : t) =
    let n = Hashtbl.length t in
    let a = Array.make n (0, 0) in
    let i = ref 0 in
    Hashtbl.iter
      (fun k v ->
        a.(!i) <- (k, v);
        incr i)
      t;
    Hashtbl.reset t;
    Array.sort (fun (a, _) (b, _) -> compare a b) a;
    a

  (** Order-independent content hash (explorer ghost state). *)
  let hash (t : t) =
    Hashtbl.fold (fun k v acc -> acc lxor Memory.h2 k v) t 0
end
