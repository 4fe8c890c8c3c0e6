(** Simulated-time cost model, in nanoseconds.

    Values are loosely calibrated to published Optane DC / Cascade Lake
    measurements. Absolute numbers do not matter for the reproduction; the
    *asymmetries* do: NVM media writes are much slower than DRAM, remote
    socket accesses are slower than local ones, and WBINVD is vastly more
    expensive than flushing a single line.

    Who owns each flush discount: [clwb_merge] is the write-pending
    queue's, charged under both flush models whenever the line is
    already queued. [flush_tag_check] is FliT's: its per-line tag finds a
    CLWB or CLFLUSH redundant (no store pending since the line's last
    write-back). An SFENCE with an empty queue is free only under FliT,
    whose tracking knows nothing is pending and skips the fence; the
    baseline issues it and pays [sfence]. *)

type t = {
  cache_access : int;     (** load/store hitting the local cache *)
  dram_access : int;      (** load/store served by local DRAM *)
  nvm_read : int;         (** load served by NVM media *)
  remote_penalty : int;   (** extra cost when the line is homed on another socket *)
  cas : int;              (** atomic compare-and-swap (cache-hot) *)
  clwb_line : int;        (** asynchronous write-back of one line to NVM media *)
  clflush_line : int;     (** blocking flush of one line to NVM media *)
  sfence : int;           (** persistent fence draining pending write-backs *)
  wbinvd_base : int;      (** fixed stall of a whole-cache write-back-and-invalidate *)
  wbinvd_per_line : int;  (** additional WBINVD cost per dirty line written back *)
  spin : int;             (** one iteration of a spin-wait loop *)
  flush_tag_check : int;  (** consulting a per-line persistence tag (FliT) and
                              finding the flush redundant — an L1-resident
                              counter read, so priced like a cache hit *)
  clwb_merge : int;       (** a CLWB whose line already sits in the write-pending
                              queue: the WPQ entry is updated in place instead of
                              a new media write-back being queued (either flush
                              model) *)
  mirror_write : int;     (** duplicating a log-entry store into the DRAM log
                              mirror: a second store to a line the writer just
                              touched, so it is priced like a cache hit *)
}

let default = {
  cache_access = 15;
  dram_access = 70;
  nvm_read = 170;
  remote_penalty = 110;
  cas = 35;
  clwb_line = 220;
  clflush_line = 320;
  sfence = 120;
  wbinvd_base = 450_000;
  wbinvd_per_line = 90;
  spin = 40;
  flush_tag_check = 15;
  clwb_merge = 40;
  mirror_write = 15;
}
