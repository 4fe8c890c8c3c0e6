(** One runner per table/figure of the paper's evaluation (§6).

    Each figure function sweeps the same parameter grid as the paper
    (thread counts, read/update mixes, ε values, structure sizes) at a
    container-friendly scale and prints throughput rows. Setting FULL=1 in
    the environment switches to paper-scale parameters (2×48 hardware
    threads, 1M-key structures, 1M-entry log) — the shapes are the same,
    the runs just take much longer.

    Throughput is *simulated* ops/sec: absolute values are products of the
    cost model (lib/sim/costs.ml), only relative comparisons are
    meaningful. *)

type scale = {
  label : string;
  topology : Sim.Topology.t;
  threads : int list;
  key_range : int;
  log_size : int;
  eps_small : int;
  eps_large : int;
  eps_sweep : int list;
  pq_small : int;
  pq_large : int;
  stack_small : int;
  stack_large : int;
  duration_ns : int;
  warmup_ns : int;
}

let quick =
  {
    label = "quick (set FULL=1 for paper scale)";
    topology = { Sim.Topology.sockets = 2; cores_per_socket = 12 };
    threads = [ 1; 2; 4; 8; 12; 16; 20; 23 ];
    key_range = 4096;
    log_size = 16384;
    eps_small = 100;
    eps_large = 4096;
    eps_sweep = [ 50; 100; 400; 1600; 6400; 12000 ];
    pq_small = 2500;
    pq_large = 25000;
    stack_small = 500;
    stack_large = 5000;
    duration_ns = 2_000_000;
    warmup_ns = 400_000;
  }

let full =
  {
    label = "full (paper scale)";
    topology = { Sim.Topology.sockets = 2; cores_per_socket = 48 };
    threads = [ 1; 2; 4; 8; 16; 24; 32; 48; 64; 80; 95 ];
    key_range = 1_000_000;
    log_size = 1_000_000;
    eps_small = 100;
    eps_large = 10_000;
    eps_sweep = [ 100; 1000; 10_000; 100_000 ];
    pq_small = 50_000;
    pq_large = 500_000;
    stack_small = 500;
    stack_large = 50_000;
    duration_ns = 10_000_000;
    warmup_ns = 2_000_000;
  }

let scale_of_env () =
  if Sys.getenv_opt "FULL" = Some "1" then full else quick

(* ---- output ---- *)

let heading title =
  Printf.printf "\n===== %s =====\n%!" title

let subheading s = Printf.printf "\n--- %s ---\n%!" s

(* Pure renderers, separated from the experiment loops so the table shapes
   can be golden-tested from canned results (test/test_figures.ml) without
   running a single experiment. The sweep functions still print row by row
   (a figure takes minutes at full scale; partial output matters). *)

let render_header systems =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "%8s" "threads");
  List.iter (fun s -> Buffer.add_string b (Printf.sprintf "  %16s" s)) systems;
  Buffer.add_char b '\n';
  Buffer.contents b

let render_row threads cells =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "%8d" threads);
  List.iter
    (function
      | Some tput -> Buffer.add_string b (Printf.sprintf "  %16.0f" tput)
      | None -> Buffer.add_string b (Printf.sprintf "  %16s" "-"))
    cells;
  Buffer.add_char b '\n';
  Buffer.contents b

(** A whole sweep table from canned [rows : (threads * cells) list]. *)
let render_sweep ~systems rows =
  String.concat ""
    (render_header systems
     :: List.map (fun (threads, cells) -> render_row threads cells) rows)

let render_table1 () =
  String.concat ""
    (List.map
       (fun (i, s, m) -> Printf.sprintf "%-15s %-12s %s\n" i s m)
       [
         ("Index", "Scope", "Meaning");
         ("localTail", "Per Replica", "Last update applied to the local replica");
         ("completedTail", "Global", "Last update applied to any replica");
         ("logTail", "Global", "Last log entry");
       ])

let render_eps_header () =
  Printf.sprintf "%8s  %16s  %16s\n" "epsilon" "PREP-Buffered" "PREP-Durable"

let render_eps_row eps b d =
  let cell = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
  Printf.sprintf "%8d  %16s  %16s\n" eps (cell b) (cell d)

(** The Figure-3 table from canned [rows : (eps * buffered * durable) list]. *)
let render_eps_table rows =
  String.concat ""
    (render_eps_header ()
     :: List.map (fun (eps, b, d) -> render_eps_row eps b d) rows)

let print_header systems = print_string (render_header systems)

let print_row threads cells =
  print_string (render_row threads cells);
  flush stdout

(* Run one (system, workload, threads) point, tolerating failures. *)
let point scale ~system ~workload ~threads =
  try
    let r =
      Experiment.run ~topology:scale.topology
        ~duration_ns:scale.duration_ns ~warmup_ns:scale.warmup_ns ~system
        ~workload ~workers:threads ()
    in
    Some r.Experiment.throughput
  with Failure msg ->
    Printf.eprintf "[point failed: %s]\n%!" msg;
    None

let sweep_threads scale ~systems ~workload =
  print_header (List.map (fun (s : Experiment.system) -> s.Experiment.sys_name) systems);
  List.iter
    (fun threads ->
      let cells =
        List.map (fun system -> point scale ~system ~workload ~threads) systems
      in
      print_row threads cells)
    scale.threads

(* ---- system sets ---- *)

module Hm = Experiment.Systems (Seqds.Hashmap)
module Rb = Experiment.Systems (Seqds.Rbtree)
module Qu = Experiment.Systems (Seqds.Queue_ds)
module Pq = Experiment.Systems (Seqds.Pqueue)
module St = Experiment.Systems (Seqds.Stack_ds)

let prep_v of_config ~log_size =
  of_config
    (Prep.Config.make ~mode:Prep.Config.Volatile ~log_size ~epsilon:1
       ~workers:1 ())

(* ---- Table 1 ---- *)

let table1 () =
  heading "Table 1: indexes used in NR-UC / PREP-UC";
  print_string (render_table1 ());
  flush stdout

(* ---- Figure 1: volatile UCs (PREP-V vs GL) ---- *)

let fig1 scale =
  heading "Figure 1: volatile UCs (ops/sec vs threads)";
  let ls = scale.log_size in
  let prefill_n = scale.key_range / 2 in
  subheading "(a) hashmap, 90% read-only, uniform keys";
  sweep_threads scale
    ~systems:[ prep_v Hm.of_config ~log_size:ls; Hm.global_lock ]
    ~workload:(Workload.map_workload ~read_pct:90 ~key_range:scale.key_range ~prefill_n);
  subheading "(b) red-black tree, 90% read-only, uniform keys";
  sweep_threads scale
    ~systems:[ prep_v Rb.of_config ~log_size:ls; Rb.global_lock ]
    ~workload:(Workload.map_workload ~read_pct:90 ~key_range:scale.key_range ~prefill_n);
  subheading "(c) queue, 100% update, enqueue/dequeue pairs";
  sweep_threads scale
    ~systems:[ prep_v Qu.of_config ~log_size:ls; Qu.global_lock ]
    ~workload:(Workload.queue_pairs ~prefill_n:(scale.key_range / 8))

(* ---- Figure 2: PUCs on hashmap and red-black tree ---- *)

let fig2_panel scale ~title ~systems ~read_pct =
  subheading title;
  sweep_threads scale ~systems
    ~workload:
      (Workload.map_workload ~read_pct ~key_range:scale.key_range
         ~prefill_n:(scale.key_range / 2))

let fig2 scale =
  heading "Figure 2: PUC throughput, hashmap and red-black tree";
  let ls = scale.log_size in
  let panels sys_of =
    List.iter
      (fun (read_pct, eps) ->
        fig2_panel scale
          ~title:(Printf.sprintf "%d%% read-only, epsilon = %d" read_pct eps)
          ~systems:(sys_of eps) ~read_pct)
      [
        (90, scale.eps_small);
        (90, scale.eps_large);
        (50, scale.eps_small);
        (50, scale.eps_large);
      ]
  in
  subheading "(a) resizable hashmap";
  panels (fun eps ->
      [
        Hm.prep ~log_size:ls ~mode:Prep.Config.Buffered ~epsilon:eps ();
        Hm.prep ~log_size:ls ~mode:Prep.Config.Durable ~epsilon:eps ();
        Hm.cx ();
      ]);
  subheading "(b) red-black tree";
  panels (fun eps ->
      [
        Rb.prep ~log_size:ls ~mode:Prep.Config.Buffered ~epsilon:eps ();
        Rb.prep ~log_size:ls ~mode:Prep.Config.Durable ~epsilon:eps ();
        Rb.cx ();
      ])

(* ---- Figure 3: effect of epsilon ---- *)

let fig3 scale =
  heading "Figure 3: PREP-UC hashmap throughput vs epsilon (90% read)";
  let threads = List.fold_left max 1 scale.threads in
  let workload =
    Workload.map_workload ~read_pct:90 ~key_range:scale.key_range
      ~prefill_n:(scale.key_range / 2)
  in
  print_string (render_eps_header ());
  List.iter
    (fun eps ->
      let b =
        point scale
          ~system:(Hm.prep ~log_size:scale.log_size ~mode:Prep.Config.Buffered ~epsilon:eps ())
          ~workload ~threads
      in
      let d =
        point scale
          ~system:(Hm.prep ~log_size:scale.log_size ~mode:Prep.Config.Durable ~epsilon:eps ())
          ~workload ~threads
      in
      print_string (render_eps_row eps b d);
      flush stdout)
    scale.eps_sweep

(* ---- Figure 4: priority queue ---- *)

let fig4 scale =
  heading "Figure 4: priority queue, 100% update (enqueue/dequeue pairs)";
  let run ~title ~prefill_n ~eps =
    subheading title;
    sweep_threads scale
      ~systems:
        [
          Pq.prep ~log_size:scale.log_size ~mode:Prep.Config.Buffered ~epsilon:eps ();
          Pq.prep ~log_size:scale.log_size ~mode:Prep.Config.Durable ~epsilon:eps ();
          Pq.cx ();
        ]
      ~workload:(Workload.pqueue_pairs ~prefill_n)
  in
  run
    ~title:(Printf.sprintf "(a) ~%d items, epsilon = %d" scale.pq_small (scale.eps_large / 10))
    ~prefill_n:scale.pq_small ~eps:(max 1 (scale.eps_large / 10));
  run
    ~title:(Printf.sprintf "(b) ~%d items, epsilon = %d" scale.pq_large scale.eps_large)
    ~prefill_n:scale.pq_large ~eps:scale.eps_large

(* ---- Figure 5: stack ---- *)

let fig5 scale =
  heading "Figure 5: stack, 100% update (push/pop pairs)";
  let run ~title ~prefill_n ~eps =
    subheading title;
    sweep_threads scale
      ~systems:
        [
          St.prep ~log_size:scale.log_size ~mode:Prep.Config.Buffered ~epsilon:eps ();
          St.prep ~log_size:scale.log_size ~mode:Prep.Config.Durable ~epsilon:eps ();
          St.cx ();
        ]
      ~workload:(Workload.stack_pairs ~prefill_n)
  in
  run
    ~title:(Printf.sprintf "(a) ~%d items, epsilon = %d" scale.stack_small scale.eps_large)
    ~prefill_n:scale.stack_small ~eps:scale.eps_large;
  run
    ~title:(Printf.sprintf "(b) ~%d items, epsilon = %d" scale.stack_large scale.eps_large)
    ~prefill_n:scale.stack_large ~eps:scale.eps_large

(* ---- Figure 6: PREP-UC vs the hand-crafted SOFT hashtable ---- *)

let fig6 scale =
  heading "Figure 6: PREP-UC hashmap vs SOFT hashtable";
  let run ~read_pct =
    subheading (Printf.sprintf "%d%% read-only" read_pct);
    sweep_threads scale
      ~systems:
        [
          Hm.prep ~log_size:scale.log_size ~mode:Prep.Config.Buffered
            ~epsilon:scale.eps_large ();
          Hm.prep ~log_size:scale.log_size ~mode:Prep.Config.Durable
            ~epsilon:scale.eps_large ();
          Experiment.soft ~nbuckets:1000;
          Experiment.soft ~nbuckets:10_000;
        ]
      ~workload:
        (Workload.map_workload ~read_pct ~key_range:scale.key_range
           ~prefill_n:(scale.key_range / 2))
  in
  run ~read_pct:90;
  run ~read_pct:50

(* ---- Ablation: WBINVD vs heap-walk flush of the persistent replica ---- *)

let ablation scale =
  heading
    "Ablation: checkpoint strategy (WBINVD vs per-line heap flush), \
     PREP-Buffered";
  let run ~title ~systems ~workload =
    subheading title;
    sweep_threads scale ~systems ~workload
  in
  (* a small epsilon so checkpoints fire many times inside the window and
     the flush strategy dominates *)
  let eps = 256 in
  let stack_sys flush name =
    St.prep ~log_size:scale.log_size ~flush ~name ~mode:Prep.Config.Buffered
      ~epsilon:eps ()
  in
  let hm_sys flush name =
    Hm.prep ~log_size:scale.log_size ~flush ~name ~mode:Prep.Config.Buffered
      ~epsilon:eps ()
  in
  run
    ~title:
      (Printf.sprintf "tiny stack (~%d items): heap flush should win"
         scale.stack_small)
    ~systems:
      [
        stack_sys Prep.Config.Wbinvd "PREP-B/wbinvd";
        stack_sys Prep.Config.Flush_heap "PREP-B/heapflush";
      ]
    ~workload:(Workload.stack_pairs ~prefill_n:scale.stack_small);
  run
    ~title:
      (Printf.sprintf "large hashmap (%d keys): WBINVD should win"
         scale.key_range)
    ~systems:
      [
        hm_sys Prep.Config.Wbinvd "PREP-B/wbinvd";
        hm_sys Prep.Config.Flush_heap "PREP-B/heapflush";
      ]
    ~workload:
      (Workload.map_workload ~read_pct:50 ~key_range:scale.key_range
         ~prefill_n:(scale.key_range / 2))

let all scale =
  Printf.printf "PREP-UC reproduction benchmarks — scale: %s\n" scale.label;
  Printf.printf "topology: %s; key range %d; log %d entries\n%!"
    (Format.asprintf "%a" Sim.Topology.pp scale.topology)
    scale.key_range scale.log_size;
  table1 ();
  fig1 scale;
  fig2 scale;
  fig3 scale;
  fig4 scale;
  fig5 scale;
  fig6 scale;
  ablation scale
