(** Throughput experiment runner.

    Reproduces the paper's measurement methodology (§6): prefill the
    structure, spawn worker fibers pinned to cores (socket 0 first), run
    the workload for a fixed *simulated* duration after a warmup, and
    report throughput in simulated operations per second. The persistence
    thread (when the system has one) runs on the last core, which is never
    given to a worker. *)

open Nvm

(** A live universal-construction instance, as seen by workers. *)
type instance = {
  register : unit -> unit; (* bind the calling worker fiber *)
  exec : op:int -> args:int array -> int;
  exec_batch : ((int * int array) array -> int array) option;
      (* pipelined batch execution, for systems that can overlap several
         of one worker's ops (the sharded router keeps one update in
         flight per shard); [None] means ops only run one at a time *)
  teardown : unit -> unit; (* stop helper threads so the run can drain *)
  sample : Telemetry.Registry.t -> unit;
      (* port the instance's counters onto a registry, *adding* to values
         already there *)
}

(** A system under test: builds an instance inside the setup fiber.
    [duration_factor] stretches the measurement window for systems whose
    steady state takes longer to reach (CX-PUC's per-update whole-replica
    flushes would otherwise complete no operation in a short window). *)
type system = {
  sys_name : string;
  duration_factor : int;
  make :
    Memory.t -> Roots.t -> workers:int -> prefill:Workload.op list -> instance;
}

type result = {
  system : string;
  workload : string;
  workers : int;
  ops : int;
  duration_ns : int;
  throughput : float; (* simulated ops/sec *)
  wbinvd : int;
  clwb : int;
  clflush : int;
  sfence : int;
  bg_flushes : int;
  (* flush-elimination accounting (nonzero only for FliT-enabled systems) *)
  clwb_elided : int;
  clwb_coalesced : int;
  clflush_elided : int;
  sfence_elided : int;
  telemetry : Telemetry.Registry.snapshot;
      (** typed snapshot of the run's registry: system-specific counters
          (distributed-lock acquisitions, log mirror reads/stores,
          checkpoint counts, ...), plus — when the run was given a live
          registry — phase spans, histograms and per-primitive NVM
          accounting *)
}

(* The system-specific counter keys that predate the telemetry layer, in
   their original bench-JSON order. [counters] keeps the old
   [result.extra] contract: exactly these keys, with identical values for
   a fixed seed — consumers (CLI, bench JSON) must not notice the
   refactor. *)
let legacy_counter_keys =
  [ "rw_read_acquires"; "rw_writer_sweeps"; "log_primary_reads";
    "log_mirror_reads"; "log_mirror_stores"; "detect_announces";
    "detect_responses"; "detect_reconciled"; "ckpt_count"; "ckpt_cost_total"; "ckpt_cost_last" ]
  @ Prep.Lsm_ckpt.counter_names

(** The system-specific counters of [r], in the pre-telemetry key order.
    Keys a system never sampled (GL, CX, SOFT) are absent, exactly as
    they were absent from the old stringly [extra] list. *)
let counters r =
  List.filter_map
    (fun k ->
      match List.assoc_opt k r.telemetry.Telemetry.Registry.sn_counters with
      | Some v -> Some (k, v)
      | None -> None)
    legacy_counter_keys

(** One bench-schema result object: a run of [ops] operations in
    [duration_ns] simulated ns, its memory traffic [st] and its
    [counters]. *)
let json_of_run ~system ~workload ~workers ~ops ~duration_ns
    (st : Memory.stats) counters =
  Printf.sprintf
    {|{"system": %S, "workload": %S, "workers": %d, "ops": %d, "duration_ns": %d, "throughput": %.1f, "wbinvd": %d, "clwb": %d, "clwb_elided": %d, "clwb_coalesced": %d, "clflush": %d, "clflush_elided": %d, "sfence": %d, "sfence_elided": %d, "bg_flushes": %d, "counters": {%s}}|}
    system workload workers ops duration_ns
    (float_of_int ops *. 1e9 /. float_of_int (max 1 duration_ns))
    st.Memory.wbinvd st.clwb st.clwb_elided st.clwb_coalesced st.clflush
    st.clflush_elided st.sfence st.sfence_elided st.bg_flushes
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) counters))

let json_of_result r =
  json_of_run ~system:r.system ~workload:r.workload ~workers:r.workers
    ~ops:r.ops ~duration_ns:r.duration_ns
    { (Memory.new_stats ()) with
      wbinvd = r.wbinvd; clwb = r.clwb; clwb_elided = r.clwb_elided;
      clwb_coalesced = r.clwb_coalesced; clflush = r.clflush;
      clflush_elided = r.clflush_elided; sfence = r.sfence;
      sfence_elided = r.sfence_elided; bg_flushes = r.bg_flushes }
    (counters r)

(** Write a bench artifact, then check the exact bytes written against the
    bench schema, so a malformed artifact fails the command producing it
    rather than some downstream consumer. Schema errors go to stderr. *)
let write_bench_json path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  match Telemetry.Json.(validate_string validate_bench contents) with
  | Ok () -> Ok ()
  | Error errs ->
    List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errs;
    Error (Printf.sprintf "%s does not validate against the bench schema" path)

(** Run one measured window through the checkers' epoch driver
    ([Check.Epoch.run]) and return the memory it ran on: set-up builds
    [system]'s instance on a fresh memory and simulation, [body] runs the
    window on it. The wedge horizon is 1,000 times [window_ns] (warm-up
    plus measurement), counted from time 0 until set-up returns and from
    set-up's end after that; a correct run finishes long before it, and
    one still going there fails as wedged. *)
let run_epoch ~name ~seed ~topology ~system ~workers ~prefill ~window_ns body =
  let mem = Memory.make ~sockets:topology.Sim.Topology.sockets () in
  let e =
    Check.Epoch.run ~topology ~seed ~preempt_prob:0.0 ~mem
      ~horizon:(1_000 * window_ns) ~crash:No_crash
      ~set_up:(fun () ->
        let roots = Roots.make mem in
        system.make mem roots ~workers ~prefill)
      ~body
  in
  if e.Check.Epoch.ended <> Quiescent then
    failwith (Printf.sprintf "%s: system wedged: %s" name system.sys_name);
  mem

(** Run one throughput experiment.

    [op_batch] (default 1) makes each worker draw that many operations
    from the workload at once and submit them through the instance's
    [exec_batch] (when it has one — systems without it run the batch
    sequentially, so the workload stream and count accounting stay
    comparable). Closed-loop runs of the sharded construction need this
    to express any parallelism beyond the per-shard combiner batch.

    [telemetry] installs a live registry as the run's ambient registry:
    the memory model, simulator and constructions record per-primitive
    costs, scheduler events and phase spans into it, each worker's
    operations are wrapped in an ["op"] root span, and worker tracks get
    stable names for the trace export. Without it only the instance's
    counters are sampled (into a private registry), so the default path
    stays as cheap and exactly as deterministic as before. *)
let run ?(seed = 7L) ?(topology = Sim.Topology.default)
    ?(duration_ns = 4_000_000) ?(warmup_ns = 800_000) ?(op_batch = 1)
    ?telemetry ~system ~(workload : Workload.t) ~workers () =
  if workers >= Sim.Topology.total_cores topology then
    invalid_arg "Experiment.run: last core is reserved";
  if op_batch < 1 then invalid_arg "Experiment.run: op_batch < 1";
  let duration_ns = duration_ns * system.duration_factor in
  let warmup_ns = warmup_ns * system.duration_factor in
  (* the accumulator registry: the caller's live one, or a private
     harness-side one that only ever receives the counter samples *)
  let acc =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let saved_reg = Telemetry.Registry.current () in
  (match telemetry with
   | Some r -> Telemetry.Registry.set_current (Some r)
   | None -> ());
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_current saved_reg)
  @@ fun () ->
  let op_span =
    match telemetry with
    | Some reg -> Some (reg, Telemetry.Registry.span reg "op")
    | None -> None
  in
  let exec_in_op_span inst ~op ~args =
    match op_span with
    | Some (reg, sp) ->
      Telemetry.Registry.with_span reg sp (fun () -> inst.exec ~op ~args)
    | None -> inst.exec ~op ~args
  in
  (* a pipelined batch is one "op" span: its wall time covers op_batch
     operations, which the trace reader must divide out *)
  let batch_in_op_span f ops =
    match op_span with
    | Some (reg, sp) -> Telemetry.Registry.with_span reg sp (fun () -> f ops)
    | None -> f ops
  in
  let counts = Array.make workers 0 in
  let done_count = ref 0 in
  let run_workers inst =
    let measure_start = Sim.now () + warmup_ns in
    let deadline = measure_start + duration_ns in
    for w = 0 to workers - 1 do
      let socket, core = Sim.Topology.place topology w in
      Sim.spawn_here ~socket ~core (fun () ->
          (match telemetry with
           | Some reg ->
             Telemetry.Registry.name_track reg (Sim.self ()).Sim.fid
               (Printf.sprintf "worker-%d" w)
           | None -> ());
          inst.register ();
          let rng = Sim.fiber_rng () in
          let phase = ref 0 in
          (if op_batch = 1 then
             while Sim.now () < deadline do
               let op, args = workload.Workload.next rng ~phase:!phase in
               incr phase;
               ignore (exec_in_op_span inst ~op ~args);
               if Sim.now () > measure_start && Sim.now () <= deadline then
                 counts.(w) <- counts.(w) + 1
             done
           else
             while Sim.now () < deadline do
               let ops =
                 Array.init op_batch (fun _ ->
                     let o = workload.Workload.next rng ~phase:!phase in
                     incr phase;
                     o)
               in
               let started = Sim.now () in
               (match inst.exec_batch with
                | Some f -> ignore (batch_in_op_span f ops)
                | None ->
                  Array.iter
                    (fun (op, args) -> ignore (exec_in_op_span inst ~op ~args))
                    ops);
               (* a batch only counts when it ran entirely inside the
                  window — undercounting the two edge batches beats
                  crediting up to op_batch warmup ops *)
               if started > measure_start && Sim.now () <= deadline then
                 counts.(w) <- counts.(w) + op_batch
             done);
          incr done_count)
    done;
    (* supervisor: tear down once every worker has drained *)
    while !done_count < workers do
      Sim.tick 50_000
    done;
    inst.teardown ();
    inst.sample acc
  in
  let mem =
    run_epoch ~name:"Experiment.run" ~seed ~topology ~system ~workers
      ~prefill:workload.Workload.prefill
      ~window_ns:(duration_ns + warmup_ns) run_workers
  in
  let ops = Array.fold_left ( + ) 0 counts in
  let stats = Memory.stats mem in
  {
    system = system.sys_name;
    workload = workload.Workload.name;
    workers;
    ops;
    duration_ns;
    throughput = float_of_int ops *. 1e9 /. float_of_int duration_ns;
    wbinvd = stats.Memory.wbinvd;
    clwb = stats.Memory.clwb;
    clflush = stats.Memory.clflush;
    sfence = stats.Memory.sfence;
    bg_flushes = stats.Memory.bg_flushes;
    clwb_elided = stats.Memory.clwb_elided;
    clwb_coalesced = stats.Memory.clwb_coalesced;
    clflush_elided = stats.Memory.clflush_elided;
    sfence_elided = stats.Memory.sfence_elided;
    telemetry = Telemetry.Registry.snapshot acc;
  }

(* ---- system constructors ---- *)

module Systems (Ds : Seqds.Ds_intf.S) = struct
  module P = Prep.Prep_uc.Make (Ds)
  module G = Prep.Gl_uc.Make (Ds)
  module C = Prep.Cx_puc.Make (Ds)
  module Sh = Prep.Sharded_uc.Make (Ds)

  (* The name a configuration runs under: the mode, then the tag of every
     feature that is on for a single instance, or the shard count and the
     lsm tag for the hash router. *)
  let system_name ~router (cfg : Prep.Config.t) =
    let tag (f : Prep.Config.Feature.t) = if f.on cfg then f.name_tag else None in
    let parts =
      if router then
        Printf.sprintf "x%d" cfg.Prep.Config.shards
        :: Option.to_list (tag Prep.Config.Feature.lsm_ckpt)
      else List.filter_map tag Prep.Config.Feature.all
    in
    let mode = Prep.Config.mode_name cfg.Prep.Config.mode in
    if parts = [] then mode else mode ^ "/" ^ String.concat "+" parts

  (* [router] puts the hash router ([Sharded_uc]) in front even of one
     shard. Its [sample] adds per-shard [shard<i>/...] keys alongside the
     summed classic counters, so a telemetry registry shows both the total
     and the balance. *)
  let build ?name ~router cfg =
    {
      sys_name =
        (match name with Some n -> n | None -> system_name ~router cfg);
      duration_factor = 1;
      make =
        (fun mem roots ~workers ~prefill ->
          let cfg = { cfg with Prep.Config.workers } in
          if router then begin
            let uc = Sh.create ~prefill mem roots cfg in
            Sh.start_persistence uc;
            {
              register = (fun () -> Sh.register_worker uc);
              exec = (fun ~op ~args -> Sh.execute uc ~op ~args);
              exec_batch = Some (fun ops -> Sh.execute_batch uc ops);
              teardown = (fun () -> Sh.stop uc);
              sample = (fun reg -> Sh.sample uc reg);
            }
          end
          else begin
            let uc = P.create ~prefill mem roots cfg in
            P.start_persistence uc;
            {
              register = (fun () -> P.register_worker uc);
              exec = (fun ~op ~args -> P.execute uc ~op ~args);
              exec_batch = None;
              teardown = (fun () -> P.stop uc);
              sample = (fun reg -> P.sample uc reg);
            }
          end);
    }

  (** The PREP system [cfg] describes: the hash-routed [Sharded_uc] when
      [cfg.shards > 1], one [Prep_uc] instance otherwise. [workers] is
      filled in when the instance is made. *)
  let of_config ?name (cfg : Prep.Config.t) =
    build ?name ~router:(cfg.Prep.Config.shards > 1) cfg

  let prep ?log_size ?flush ?flit ?name ~mode ~epsilon () =
    of_config ?name
      (Prep.Config.make ?log_size ?flush ?flit ~mode ~epsilon ~workers:1 ())

  (** Hash-routed durable shards, the router kept even for [shards = 1]. *)
  let prep_sharded ?log_size ?flit ~shards ~epsilon () =
    build ~router:true
      (Prep.Config.make ?log_size ?flit ~mode:Prep.Config.Durable ~shards
         ~epsilon ~workers:1 ())

  let global_lock =
    {
      sys_name = "GL";
      duration_factor = 1;
      make =
        (fun mem _roots ~workers ~prefill ->
          ignore workers;
          let gl = G.create ~prefill mem in
          {
            register = (fun () -> G.register_worker gl);
            exec = (fun ~op ~args -> G.execute gl ~op ~args);
            exec_batch = None;
            teardown = ignore;
            sample = (fun _ -> ());
          });
    }

  let cx =
    {
      sys_name = "CX-PUC";
      duration_factor = 10;
      make =
        (fun mem roots ~workers ~prefill ->
          let cx = C.create ~prefill mem roots ~workers in
          {
            register = (fun () -> C.register_worker cx);
            exec = (fun ~op ~args -> C.execute cx ~op ~args);
            exec_batch = None;
            teardown = ignore;
            sample = (fun _ -> ());
          });
    }
end

(** SOFT hashtable as a system (hashmap op codes). *)
let soft ~nbuckets =
  {
    sys_name = Printf.sprintf "SOFT-%dB" nbuckets;
    duration_factor = 1;
    make =
      (fun mem _roots ~workers ~prefill ->
        ignore workers;
        let s = Prep.Soft_hash.create ~nbuckets mem in
        List.iter
          (fun (op, args) -> ignore (Prep.Soft_hash.execute s ~op ~args))
          prefill;
        {
          register = (fun () -> Prep.Soft_hash.register_worker s);
          exec = (fun ~op ~args -> Prep.Soft_hash.execute s ~op ~args);
            exec_batch = None;
          teardown = ignore;
          sample = (fun _ -> ());
        });
  }
