(** Per-layer metrics of a traced run.

    Counts and simulated times come from the registry the traced run
    installed, as the difference between its snapshots at set-up end and
    once the workers drained (the read-back is excluded), divided by the
    operations executed in between. Every workload reports every name;
    one that a workload never exercises (the explorer outside [verify],
    the shard router outside [sharded-2pc]) reads 0, and none of those is
    a time. *)

open Telemetry

(* the (site, primitive) pairs PREP-Durable emits in steady state *)
let sites =
  [ ("log.persist_entry", "clwb"); ("log.fence_payload", "sfence");
    ("log.fence_publish", "sfence"); ("prep.completed_tail", "clflush");
    ("prep.checkpoint", "wbinvd"); ("prep.checkpoint", "sfence") ]

let site_name (site, prim) = Printf.sprintf "nvm.site.%s.%s_per_op" site prim

let phases = [ "combine"; "publish"; "persist"; "catch-up" ]

(** Every per-layer metric, in report order, with its unit. *)
let names =
  [ ("sim.switches_per_op", "count"); ("sim.spins_per_op", "count");
    ("sim.host_ns_per_switch", "ns");
    ("nvm.read_per_op", "count"); ("nvm.write_per_op", "count");
    ("nvm.cas_per_op", "count"); ("nvm.clwb_per_op", "count");
    ("nvm.clflush_per_op", "count"); ("nvm.sfence_per_op", "count");
    ("nvm.wbinvd_per_kop", "count"); ("nvm.persist_ns_per_op", "ns") ]
  @ List.map (fun s -> (site_name s, "count")) sites
  @ [ ("seqds.exec_ns_per_call", "ns"); ("seqds.calls_per_op", "count");
      ("seqds.copy_ns_per_copy", "ns") ]
  @ List.map (fun p -> (Printf.sprintf "prep.%s.self_ns_per_op" p, "ns")) phases
  @ [ ("prep.ops_per_combine", "count"); ("prep.ckpt_count", "count");
      ("prep.ckpt_stall_frac", "ratio");
      ("prep.log_primary_reads_per_op", "count"); ("prep.recover_ns", "ns");
      ("prep.replayed_entries", "count");
      ("prep.shard.cross_txns_per_kop", "count");
      ("prep.shard.gate_stalls_per_kop", "count");
      ("prep.shard.op_imbalance", "ratio");
      ("harness.op_self_ns_per_op", "ns"); ("harness.service_mean_ns", "ns");
      ("harness.service_p99_ns", "ns"); ("harness.backlog_peak", "count");
      ("harness.slo_rate_ops_per_s", "ops/s"); ("harness.next_host_ns", "ns");
      ("harness.job_host_s", "s");
      ("check.lin_ops_per_s", "ops/s"); ("check.explore.schedules", "count");
      ("check.explore.states", "count"); ("check.explore.steps_per_s", "1/s");
      ("check.explore.recoveries_per_s", "1/s");
      ("check.explore.dedup_hit_frac", "ratio");
      ("check.fuzz.episodes_per_s", "1/s"); ("check.fuzz.crash_frac", "ratio");
      ("telemetry.overhead_x", "ratio"); ("telemetry.dropped_events", "count") ]

(** What a traced run hands over besides its recorder. *)
type inputs = {
  counters : (string * int) list;  (** the instance's counters at the end *)
  logged : int array;  (** log entries per instance *)
  instances : int;
  untraced_s : float;  (** host seconds of the untraced run *)
  traced_s : float;
  recover_ns : int;
  replayed : int;
  copy_ns_per_copy : float;
  lin_ops_per_s : float;
  next_host_ns : float;
  dropped : int;
  extra : (string * float) list;  (** workload-specific values *)
}

let base_name n =
  match String.index_opt n '/' with Some i -> String.sub n 0 i | None -> n

(* summed over the per-shard copies of a span ("combine/shard2") *)
let span_sum (snap : Registry.snapshot) base f =
  List.fold_left
    (fun acc (name, ss) -> if base_name name = base then acc + f ss else acc)
    0 snap.Registry.sn_spans

(** The sum of every span's self time must equal the time the root spans
    cover, within 0.5%. Returns the relative gap. *)
let reconcile_gap (snap : Registry.snapshot) =
  let self =
    List.fold_left (fun acc (_, ss) -> acc + ss.Registry.ss_self) 0 snap.Registry.sn_spans
  in
  let covered = snap.Registry.sn_covered in
  if covered = 0 then 1.0
  else Float.abs (float_of_int (self - covered)) /. float_of_int covered

let compute (r : Record.t) (i : inputs) =
  let fi = float_of_int in
  let ops = fi (max 1 r.Record.end_ops) in
  let d name =
    fi
      (Registry.find_counter r.Record.end_snap name
      - Registry.find_counter r.Record.ready_snap name)
  in
  let per_op name = d name /. ops in
  let span_delta base f =
    fi (span_sum r.Record.end_snap base f - span_sum r.Record.ready_snap base f)
  in
  let self base = span_delta base (fun ss -> ss.Registry.ss_self) in
  let counter k = fi (Option.value ~default:0 (List.assoc_opt k i.counters)) in
  let calls = fi (fst r.Record.end_calls - fst r.Record.ready_calls) in
  let call_ns = fi (snd r.Record.end_calls - snd r.Record.ready_calls) in
  let switches = d "sim.switches" in
  let service = Stats.sorted r.Record.service in
  let pct q = if Array.length service = 0 then 0.0 else fi (fst (Stats.percentile service q)) in
  let mean = if Array.length service = 0 then 0.0 else Stats.mean service in
  let updates =
    fi
      (List.length
         (List.filteri
            (fun i (e : Check.History.event) ->
              i < r.Record.end_ops && r.Record.is_update e.Check.History.op)
            (Record.history r)))
  in
  let mean_logged =
    fi (Array.fold_left ( + ) 0 i.logged) /. fi (max 1 (Array.length i.logged))
  in
  let computed =
    [ ("sim.switches_per_op", switches /. ops);
      ("sim.spins_per_op", per_op "sim.spins");
      ("sim.host_ns_per_switch", i.untraced_s *. 1e9 /. Float.max 1.0 switches);
      ("nvm.read_per_op", per_op "nvm.read");
      ("nvm.write_per_op", per_op "nvm.write");
      ("nvm.cas_per_op", per_op "nvm.cas");
      ("nvm.clwb_per_op", per_op "nvm.clwb");
      ("nvm.clflush_per_op", per_op "nvm.clflush");
      ("nvm.sfence_per_op", per_op "nvm.sfence");
      ("nvm.wbinvd_per_kop", 1000.0 *. per_op "nvm.wbinvd");
      ( "nvm.persist_ns_per_op",
        (d "nvm.clwb_ns" +. d "nvm.clflush_ns" +. d "nvm.sfence_ns" +. d "nvm.wbinvd_ns")
        /. ops ) ]
    @ List.map
        (fun ((site, prim) as s) ->
          (site_name s, per_op (Printf.sprintf "nvm.%s@%s" prim site)))
        sites
    @ [ ("seqds.exec_ns_per_call", call_ns /. Float.max 1.0 calls);
        ("seqds.calls_per_op", calls /. ops);
        ("seqds.copy_ns_per_copy", i.copy_ns_per_copy) ]
    @ List.map (fun p -> (Printf.sprintf "prep.%s.self_ns_per_op" p, self p /. ops)) phases
    @ [ ("prep.ops_per_combine", updates
        /. Float.max 1.0 (span_delta "combine" (fun ss -> ss.Registry.ss_stats.Registry.hs_n)));
        ("prep.ckpt_count", fi (r.Record.ckpt1 - r.Record.ckpt0));
        ( "prep.ckpt_stall_frac",
          counter "ckpt_cost_total"
          /. (fi i.instances *. fi (max 1 (r.Record.deadline - r.Record.ready))) );
        ("prep.log_primary_reads_per_op", counter "log_primary_reads" /. ops);
        ("prep.recover_ns", fi i.recover_ns);
        ("prep.replayed_entries", fi i.replayed);
        ("prep.shard.cross_txns_per_kop", 1000.0 *. counter "shard.cross_txns" /. ops);
        ("prep.shard.gate_stalls_per_kop", 1000.0 *. counter "shard.gate_stalls" /. ops);
        ( "prep.shard.op_imbalance",
          fi (Array.fold_left max 0 i.logged) /. Float.max 1.0 mean_logged );
        ("harness.op_self_ns_per_op", self "op" /. ops);
        ("harness.service_mean_ns", mean);
        ("harness.service_p99_ns", pct 0.99);
        ("harness.next_host_ns", i.next_host_ns);
        ("harness.job_host_s", i.untraced_s);
        ("check.lin_ops_per_s", i.lin_ops_per_s);
        ("telemetry.overhead_x", i.traced_s /. i.untraced_s);
        ("telemetry.dropped_events", fi i.dropped) ]
    @ i.extra
  in
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value ~default:0.0 (List.assoc_opt name computed)))
    names
