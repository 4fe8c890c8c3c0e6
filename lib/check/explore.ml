(** Bounded exhaustive schedule-and-crash exploration.

    The fuzzer (lib/check/fuzz.ml) samples random schedules and random
    crash points; this module *enumerates* them for a small-scope workload
    (2–3 threads, a handful of ops, tiny ε), the way model-checking-based
    persistency tools do:

    - [Sim] runs in controlled-scheduler mode: every fiber-facing memory
      operation is a scheduling choice point, and the explorer drives a
      depth-first search over the choice tree, re-executing the workload
      from scratch along each schedule (stateless search). A schedule is
      identified by its decision trace — the fid chosen at every branching
      point — which makes any run replayable bit-for-bit.
    - At every explored step it enumerates *every reachable crash
      frontier*: the current media image plus each subset of the dirty NVM
      lines the cache could have written back first (the write-pending
      queue is volatile, exactly as in [Memory.crash]). Each new frontier
      is realised against a memory snapshot, recovered, and judged with
      [Durable_lin]; the snapshot is then restored and the run continues.
    - Pruning makes this tractable: (a) an await transformation — a fiber
      entering a [Sim.spin] wait iteration is parked out of the branching
      set until some write or ghost-state change could alter what its
      re-check observes, so busy-wait loops contribute no interleavings of
      their own; (b) sleep-set/DPOR-style reduction keyed on the
      cache-line footprint of each step — after a branch is fully
      explored, its first step sleeps in sibling branches until a
      conflicting access wakes it; (c) state-hash deduplication over the
      incremental fingerprints [Memory] maintains (values, media, dirty
      map, WPQ) plus the ghost state and per-fiber control state.

    The system under test is a [Sut.S] selected by [config.shards]: the
    single-instance construction or the sharded one, whose ghost state
    spans every shard plus the router's transaction ghost and whose crash
    verdict covers cross-shard atomicity. [replay] shares the build, spawn
    and parking code with [explore], so a decision trace is consumed at
    exactly the steps that recorded it.

    Soundness notes. Controlled mode explores *all* sequentially
    consistent interleavings — a superset of what timed dispatch can emit
    — so every violation found corresponds to a real protocol bug, and
    every decision trace replays deterministically. Per-fiber control
    state is tracked exactly: a hash chain over the fiber's entire
    observation history (address, kind and value of every access), which
    determines its continuation because fiber code is deterministic over
    its observations. Parking is versioned from the *start* of a wait
    iteration, so a write landing between a wait round's condition reads
    and its spin still wakes the fiber (no lost wakeups), and wakes are
    otherwise conservative. State caching honours sleep sets the
    Godefroid way: a revisit is pruned only when the state was previously
    explored under a subset of the current sleep set. Crash-state dedup
    is exact for the oracle's verdict, which is a function of
    (media, ghost trace, config) only. Exhaustion is reported only when
    no budget, depth or frontier cap was hit. *)

type budget = {
  max_schedules : int;  (** schedules (complete or pruned) to execute *)
  max_states : int;  (** distinct deduplicated states to visit *)
  max_steps : int;  (** runtime scheduler steps per schedule (depth) *)
  max_frontier_lines : int;
      (** dirty-line cap per crash point: k lines -> 2^k subsets *)
}

let default_budget =
  {
    max_schedules = 50_000;
    max_states = 200_000;
    max_steps = 50_000;
    max_frontier_lines = 8;
  }

(** Small-scope workload under exploration. [prune] disables the sleep-set
    and state-dedup reductions (naive enumeration, for the reduction-factor
    comparison); crash-state dedup stays on either way — it is exact. *)
type scope = {
  seed : int;  (** seeds the per-worker operation lists *)
  threads : int;
  ops_per_worker : int;
  epsilon : int;
  log_size : int;
  sockets : int;
  cores_per_socket : int;
  prune : bool;
  persistence : bool;
      (** spawn the background persistence (checkpoint) fibers. [false]
          keeps the checkpoint loop out of the interleaving space — sound
          whenever the scope's total op count stays below [epsilon] and
          the log cannot wrap, because the flush boundary starts a full
          [epsilon] ahead (no combiner ever blocks on it) and recovery
          replays the whole log over the empty initial checkpoint. *)
}

let default_scope =
  {
    seed = 1;
    threads = 2;
    ops_per_worker = 3;
    epsilon = 2;
    log_size = 16;
    sockets = 2;
    cores_per_socket = 2;
    prune = true;
    persistence = true;
  }

type stats = {
  mutable schedules : int;  (** executions started (complete or pruned) *)
  mutable steps : int;  (** runtime scheduler steps, summed over runs *)
  mutable states : int;  (** distinct states (pruned) / visited (naive) *)
  mutable dedup_hits : int;  (** schedules cut by state-hash dedup *)
  mutable sleep_skips : int;  (** branch alternatives skipped by sleep sets *)
  mutable terminals : int;  (** schedules that ran to quiescence *)
  mutable crash_points : int;  (** steps at which frontiers were enumerated *)
  mutable frontiers : int;  (** crash frontiers (subsets) fingerprinted *)
  mutable recoveries : int;  (** distinct crash states recovered+checked *)
  mutable frontier_truncations : int;  (** points where the line cap bit *)
  mutable depth_cutoffs : int;  (** schedules cut by [max_steps] *)
  mutable stutter_cuts : int;
      (** schedules cut at quiescent points where no runnable fiber could
          observe anything new (unfair infinite-stutter suffixes) *)
  mutable max_completed_loss : int;
      (** worst completed-op loss over every checked crash state *)
}

let new_stats () =
  {
    schedules = 0;
    steps = 0;
    states = 0;
    dedup_hits = 0;
    sleep_skips = 0;
    terminals = 0;
    crash_points = 0;
    frontiers = 0;
    recoveries = 0;
    frontier_truncations = 0;
    depth_cutoffs = 0;
    stutter_cuts = 0;
    max_completed_loss = 0;
  }

(** A durable-linearizability violation plus everything needed to replay
    it: the decision trace and, for crash violations, the runtime step at
    which to crash and the frontier mask over the sorted dirty-line list
    at that step. *)
type violation = {
  v_decisions : int list;  (** fid chosen at each branching point *)
  v_crash : (int * int) option;  (** (runtime step, frontier mask) *)
  v_violations : Durable_lin.violation list;
  v_logged : int;
  v_completed : int;
  v_applied : int;
}

type result = {
  stats : stats;
  violation : violation option;
  terminal_states : int list list;
      (** distinct terminal snapshots, sorted — the flag-equivalence tests
          compare these across gated-optimisation configurations *)
  exhausted : bool;
      (** the bounded space was fully explored: no budget, depth or
          frontier cap was hit and no violation cut the search short *)
}

(* inverse gray code: the enumeration index whose gray code is [g] *)
let ungray g =
  let i = ref g and s = ref (g lsr 1) in
  while !s <> 0 do
    i := !i lxor !s;
    s := !s lsr 1
  done;
  !i

(* Position of a shard's violation in the serial check order: checks run in
   increasing (schedule, step, frontier-enumeration index); the terminal
   model-replay of a schedule runs after all of its crash checks. A shard
   stops at its first violation, so its [stats.schedules] at that moment is
   the schedule ordinal. *)
let violation_ordinal (r : result) =
  match r.violation with
  | None -> None
  | Some v ->
    (match v.v_crash with
     | Some (step, mask) -> Some (r.stats.schedules, step, ungray mask)
     | None -> Some (r.stats.schedules, max_int, max_int))

(** Merge the results of running [explore ~shard:(i, n)] for every
    [i < n] (any order — shards are independent). Every shard replays the
    identical DFS and differs only in which oracle checks it performs, so
    when no shard found a violation all scheduling statistics must be
    bit-identical — verified here as a determinism audit; [recoveries]
    (the sharded work) sums and [max_completed_loss] maxes. The merged
    violation, if any, is the one the unsharded serial search would have
    hit first: minimal [violation_ordinal] across shards. *)
let merge_shards (shards : result array) : result =
  if Array.length shards = 0 then invalid_arg "Explore.merge_shards: empty";
  if Array.length shards = 1 then shards.(0)
  else begin
    let winner =
      Array.to_list shards
      |> List.filter_map (fun r ->
             Option.map (fun o -> (o, r)) (violation_ordinal r))
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> function
      | [] -> None
      | (_, r) :: _ -> Some r
    in
    let base = match winner with Some r -> r | None -> shards.(0) in
    if winner = None then
      (* no shard stopped early: the replicated DFS bookkeeping must agree *)
      Array.iteri
        (fun i r ->
          let s = r.stats and s0 = base.stats in
          let same =
            s.schedules = s0.schedules
            && s.steps = s0.steps && s.states = s0.states
            && s.dedup_hits = s0.dedup_hits
            && s.sleep_skips = s0.sleep_skips
            && s.terminals = s0.terminals
            && s.crash_points = s0.crash_points
            && s.frontiers = s0.frontiers
            && s.frontier_truncations = s0.frontier_truncations
            && s.depth_cutoffs = s0.depth_cutoffs
            && s.stutter_cuts = s0.stutter_cuts
            && r.terminal_states = base.terminal_states
            && r.exhausted = base.exhausted
          in
          if not same then
            failwith
              (Printf.sprintf
                 "Explore.merge_shards: shard %d diverged from shard 0 \
                  (exploration is not deterministic)"
                 i))
        shards;
    let recoveries =
      Array.fold_left (fun a r -> a + r.stats.recoveries) 0 shards
    in
    let max_completed_loss =
      Array.fold_left (fun a r -> max a r.stats.max_completed_loss) 0 shards
    in
    {
      stats = { base.stats with recoveries; max_completed_loss };
      violation = base.violation;
      terminal_states = base.terminal_states;
      exhausted =
        base.violation = None
        && Array.for_all (fun r -> r.exhausted) shards;
    }
  end

(* run-length encoding of decision traces: "0*12,2,1*3" *)
let decisions_to_string ds =
  let buf = Buffer.create 64 in
  let flush fid n =
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    if n = 1 then Buffer.add_string buf (string_of_int fid)
    else Buffer.add_string buf (Printf.sprintf "%d*%d" fid n)
  in
  let rec go = function
    | [] -> ()
    | fid :: rest ->
      let rec count n = function
        | f :: r when f = fid -> count (n + 1) r
        | r -> (n, r)
      in
      let n, rest = count 1 rest in
      flush fid n;
      go rest
  in
  go ds;
  Buffer.contents buf

let decisions_of_string s =
  if String.trim s = "" then []
  else
    String.split_on_char ',' s
    |> List.concat_map (fun tok ->
           match String.index_opt tok '*' with
           | None -> [ int_of_string (String.trim tok) ]
           | Some i ->
             let fid = int_of_string (String.trim (String.sub tok 0 i)) in
             let n =
               int_of_string
                 (String.trim (String.sub tok (i + 1) (String.length tok - i - 1)))
             in
             List.init n (fun _ -> fid))

(* step footprints: (dirty_key | -1 global, is_write) *)
type fp = (int * bool) list

let fp_conflict (f1 : fp) (f2 : fp) =
  List.exists
    (fun (k1, w1) ->
      List.exists
        (fun (k2, w2) -> (w1 || w2) && (k1 = -1 || k2 = -1 || k1 = k2))
        f2)
    f1

(* One branching point of the DFS. [nd_sleep] holds fids whose subtree is
   covered elsewhere, with the footprint their next step had when it was
   explored; a conflicting access on the way down wakes (drops) them. *)
type node = {
  nd_enabled : int array;
  mutable nd_sleep : (int * fp) list;
  mutable nd_tried : int list;
  mutable nd_choice : int;
  mutable nd_fp : fp;  (** footprint of [nd_choice]'s step, once executed *)
}


exception Pruned
exception Budget_exhausted
exception Violation_found of violation
exception Crash_now


open Nvm

let h2 = Memory.h2
let mix = Memory.mix

let topology (s : scope) =
  { Sim.Topology.sockets = s.sockets; cores_per_socket = s.cores_per_socket }

let max_threads scope = (scope.sockets * scope.cores_per_socket) - 1

(** A copy-pasteable [explore --replay] command for one schedule of
    [scope] under [config], optionally crashing at [crash]. *)
let repro_command ?(config = Sut.default_config) ~mode ~fault ~ds ~scope
    decisions crash =
  Printf.sprintf
    "dune exec bin/prep_cli.exe -- explore --variant %s --ds %s --threads %d \
     --ops %d --epsilon %d --log-size %d --seed %d --sockets %d --cores \
     %d%s%s --replay '%s'%s"
    (Prep.Config.variant_name mode)
    ds scope.threads scope.ops_per_worker scope.epsilon scope.log_size
    scope.seed scope.sockets scope.cores_per_socket
    (if scope.persistence then "" else " --no-persistence")
    (Prep.Config.to_flags
       { config with Prep.Config.mode; fault })
    (decisions_to_string decisions)
    (match crash with
     | None -> ""
     | Some (step, mask) ->
       Printf.sprintf " --crash-step %d --frontier %d" step mask)

(* The per-worker op lists are drawn once, outside the simulation, so
   workers perform no rng draws at runtime: a fiber's behaviour is then a
   pure function of the values it reads, which is what the control-state
   fingerprint assumes. *)
let gen_workload ~gen_op ~scope =
  let rng = Sim.Rng.create (Int64.of_int ((scope.seed * 1_000_003) + 11)) in
  Array.init scope.threads (fun _ ->
      List.init scope.ops_per_worker (fun _ -> gen_op rng))

(* crash the memory into the frontier that writes back [lines.(b)] for
   every set bit [b] of [mask] *)
let commit_frontier mem lines mask =
  Array.iteri
    (fun b key -> if mask land (1 lsl b) <> 0 then Memory.commit_line mem key)
    lines

(* Exploration and replay of one system under test. *)
module Run (U : Sut.S) = struct
  (* One controlled execution of the scope's workload: stateless
     re-execution from scratch, shared by [explore]'s schedules and
     [replay]. *)
  type exec = {
    sim : Sim.t;
    mem : Memory.t;
    mutable uc : U.t option;
    mutable runtime : bool;  (** construction done, workers spawned *)
    mutable done_count : int;
    chains : (int, int) Hashtbl.t;
        (** Per-fiber control state, tracked *exactly*: a hash chain over
            the fiber's entire observation history — every access it
            performed, with address, kind and the value read or written.
            The fibers run deterministic code whose only inputs are these
            observations (plus the ghost state hashed separately), so equal
            chains imply equal continuations, which is what makes
            state-hash dedup sound. *)
    started : (int, unit) Hashtbl.t;
        (** a freshly spawned fiber parks at its first op_point having
            touched nothing: without this bit its start-step would hash
            like a no-op and be dedup-pruned, losing every schedule where
            its first access happens early *)
    parked : (int, int) Hashtbl.t;
        (** The await transformation (the spin-loop treatment of stateless
            model checkers): a fiber entering a [Sim.spin] wait iteration
            is *parked* — removed from the branching set — until some write
            (or ghost-state change) occurs, recorded as a version counter.
            Every wait loop in the codebase re-checks its condition from
            scratch after each spin and its body has no effect when nothing
            changed, so re-running a parked fiber before any write is a
            global no-op; skipping those no-op steps loses no reachable
            state and removes spin-loop unrolling from the search space
            entirely. Wakes are conservative (any write wakes every parked
            fiber). Decision traces record choices only at branching
            points, so [replay] must park identically to consume them at
            the same steps. *)
    iter_start : (int, int) Hashtbl.t;
        (** Version current when the fiber last *resumed* from a spin —
            the start of its current wait-loop iteration. Parking must use
            this, not the version at spin time: every memory access is its
            own scheduling step, so a wait round's condition reads span
            several steps, and a write interleaved between those reads and
            the spin would otherwise be counted as already-seen — a lost
            wakeup that leaves the fiber parked forever in a livelocked
            branch. Fibers with no recorded iteration start (first spin
            ever) park stale and re-poll once, which is the conservative
            direction. *)
    mutable write_version : int;
    mutable last_ghost : int;
    mutable cur_fp : fp;  (** footprint of the step in progress *)
  }

  let hook x key addr write value =
    let fid = (Sim.self ()).Sim.fid in
    x.cur_fp <- (key, write) :: x.cur_fp;
    if write then x.write_version <- x.write_version + 1;
    let av = h2 addr (h2 key (h2 (if write then 1 else 0) value)) in
    Hashtbl.replace x.chains fid
      (h2 (Option.value ~default:0 (Hashtbl.find_opt x.chains fid)) av)

  let ghost_hash x =
    h2 x.done_count (match x.uc with Some uc -> U.ghost_hash uc | None -> 0)

  (* The runnable fibers not parked at the current version. Ghost progress
     (done/stop flags, trace growth) also wakes parked fibers: those waits
     read no memory. *)
  let eligible x enabled =
    let gh = ghost_hash x in
    if gh <> x.last_ghost then begin
      x.last_ghost <- gh;
      x.write_version <- x.write_version + 1
    end;
    Array.to_list enabled
    |> List.filter (fun fid ->
           match Hashtbl.find_opt x.parked fid with
           | Some v when v = x.write_version -> false
           | _ -> true)

  let pick x fid =
    if Hashtbl.mem x.parked fid then begin
      Hashtbl.replace x.iter_start fid x.write_version;
      Hashtbl.remove x.parked fid
    end;
    Hashtbl.replace x.started fid ();
    fid

  (* Build the system in a fresh controlled simulation and spawn the
     workload; [choose] makes every runtime scheduling decision. The caller
     runs [x.sim]. *)
  let start ~cfg ~scope ~workload ~choose =
    let topo = topology scope in
    let x =
      {
        sim = Sim.create topo;
        mem =
          Memory.make
            ~seed:(Int64.of_int (scope.seed + 7919))
            ~sockets:scope.sockets ~bg_period:0 ();
        uc = None;
        runtime = false;
        done_count = 0;
        chains = Hashtbl.create 16;
        started = Hashtbl.create 16;
        parked = Hashtbl.create 16;
        iter_start = Hashtbl.create 16;
        write_version = 0;
        last_ghost = 0;
        cur_fp = [];
      }
    in
    Memory.set_access_hook x.mem (hook x);
    Sim.set_spin_hook x.sim (fun fid ->
        Hashtbl.replace x.parked fid
          (Option.value ~default:(-1) (Hashtbl.find_opt x.iter_start fid)));
    Sim.set_chooser x.sim (fun enabled ->
        if not x.runtime then pick x enabled.(0) else choose x enabled);
    ignore
      (Sim.spawn x.sim ~socket:0 (fun () ->
           let uc = U.create x.mem (Roots.make x.mem) cfg in
           x.uc <- Some uc;
           if scope.persistence then U.start_persistence uc;
           for w = 0 to scope.threads - 1 do
             let socket, core = Sim.Topology.place topo w in
             let ops = workload.(w) in
             Sim.spawn_here ~socket ~core (fun () ->
                 U.register_worker uc;
                 List.iter (fun (op, args) -> U.execute uc ~op ~args) ops;
                 x.done_count <- x.done_count + 1)
           done;
           x.runtime <- true;
           while x.done_count < scope.threads do
             Sim.spin ()
           done;
           U.stop uc;
           U.sync uc));
    x

  (* Recover and judge [uc] on the memory's *current* (post-crash) state in
     a fresh nested timed simulation, preserving and restoring the global
     allocator-context table around it. *)
  let recover ~scope uc =
    let saved_ctx = Context.save () in
    Context.reset ();
    let v =
      Sut.in_fresh_sim ~seed:97L (topology scope)
        ~horizon_ns:
          (Fuzz.wedge_horizon_ns ~ops:(scope.threads * scope.ops_per_worker))
        (fun () -> U.recover uc)
    in
    Context.restore saved_ctx;
    v

  let explore ~cfg ~budget ~shard ~gen_op ~scope =
    let shard_ix, shard_n = shard in
    let mine h = shard_n = 1 || (h land max_int) mod shard_n = shard_ix in
    let workload = gen_workload ~gen_op ~scope in
    let stats = new_stats () in
    (* state key -> sleep-set signatures it was explored under. Plain
       state caching is unsound combined with sleep sets (Godefroid): a
       state first visited under sleep set C only explores transitions
       outside C, so a revisit under sleep set S may be pruned only when
       some cached C ⊆ S — otherwise transitions in C \ S were never
       covered and the revisit must re-explore. *)
    let seen_states : (int, (int * int) list list) Hashtbl.t =
      Hashtbl.create 4096
    in
    let seen_crash : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
    let seen_frontier_base : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
    let terminal_states : (int list, unit) Hashtbl.t = Hashtbl.create 64 in
    let path : node list ref = ref [] in
    let budget_hit = ref false in
    let depth_cut = ref false in
    let truncated = ref false in

    (* ---- one schedule execution (stateless re-execution) ---- *)
    let run_once () =
      let prefix_nodes = Array.of_list (List.rev !path) in
      let process_from = Array.length prefix_nodes - 1 in
      let decision_idx = ref 0 in
      let step_idx = ref 0 in
      let decisions_rev = ref [] in
      let pending_sleep : (int * fp) list ref = ref [] in
      let attr_node : node option ref = ref None in

      let state_key x enabled =
        let mem = x.mem in
        let h =
          ref
            (h2 (Memory.value_hash mem)
               (h2 (Memory.media_hash mem)
                  (h2 (Memory.dirty_hash mem) (Memory.wpq_hash mem))))
        in
        h := h2 !h (ghost_hash x);
        Array.iter
          (fun fid ->
            let chain =
              Option.value ~default:0 (Hashtbl.find_opt x.chains fid)
            in
            let fextra =
              match Sim.find_fiber x.sim fid with
              | Some f ->
                h2
                  ((if f.Sim.palloc then 2 else 0)
                  + if Hashtbl.mem x.started fid then 1 else 0)
                  (Int64.to_int f.Sim.frng.Sim.Rng.state)
              | None -> 0
            in
            h := h2 !h (h2 fid (h2 chain fextra)))
          enabled;
        !h
      in

      (* crash a memory snapshot into one frontier image, recover, judge *)
      let check_crash x uc ~snap ~lines ~mask ~this_step =
        stats.recoveries <- stats.recoveries + 1;
        Memory.clear_access_hook x.mem;
        commit_frontier x.mem lines mask;
        Memory.crash x.mem;
        let v = recover ~scope uc in
        if v.Sut.lost > stats.max_completed_loss then
          stats.max_completed_loss <- v.Sut.lost;
        Memory.restore x.mem snap;
        Memory.set_access_hook x.mem (hook x);
        if v.Sut.violations <> [] then
          raise
            (Violation_found
               {
                 v_decisions = List.rev !decisions_rev;
                 v_crash = Some (this_step, mask);
                 v_violations = v.Sut.violations;
                 v_logged = U.logged uc;
                 v_completed = U.completed uc;
                 v_applied = v.Sut.applied;
               })
      in

      (* the only crash-frontier enumeration: every subset of the dirty
         NVM lines, in Gray-code order so consecutive images differ by one
         line, each judged once per distinct (image, ghost) pair *)
      let enumerate_crash_frontiers x uc this_step =
        let mem = x.mem in
        let dirty = Memory.dirty_nvm_line_keys mem in
        let k_all = List.length dirty in
        let k = min k_all budget.max_frontier_lines in
        if k_all > k then begin
          truncated := true;
          stats.frontier_truncations <- stats.frontier_truncations + 1
        end;
        let lines = Array.of_list dirty in
        let lines = Array.sub lines 0 k in
        let deltas = Array.map (Memory.line_commit_delta mem) lines in
        let base_media = Memory.media_hash mem in
        let th = U.crash_key uc in
        (* the reachable frontier images are fully determined by
           (media, per-line deltas, ghost state): skip the whole point if
           that combination was already enumerated *)
        let base_key =
          h2 base_media (h2 th (Array.fold_left h2 (mix k) deltas))
        in
        if not (Hashtbl.mem seen_frontier_base base_key) then begin
          Hashtbl.add seen_frontier_base base_key ();
          stats.crash_points <- stats.crash_points + 1;
          let snap = ref None in
          let cur = ref 0 in
          let prev_gray = ref 0 in
          for i = 0 to (1 lsl k) - 1 do
            let gray = i lxor (i lsr 1) in
            let changed = gray lxor !prev_gray in
            if changed <> 0 then begin
              let b = ref 0 in
              while changed land (1 lsl !b) = 0 do incr b done;
              cur := !cur lxor deltas.(!b)
            end;
            prev_gray := gray;
            stats.frontiers <- stats.frontiers + 1;
            let sg = h2 (base_media lxor !cur) th in
            if not (Hashtbl.mem seen_crash sg) then begin
              Hashtbl.add seen_crash sg ();
              if mine sg then begin
                let snap =
                  match !snap with
                  | Some s -> s
                  | None ->
                    let s = Memory.snapshot mem in
                    snap := Some s;
                    s
                in
                check_crash x uc ~snap ~lines ~mask:gray ~this_step
              end
            end
          done
        end
      in

      let choose x (enabled : int array) : int =
        (* a step just finished: attribute and consume its footprint *)
        let fp = x.cur_fp in
        x.cur_fp <- [];
        (match !attr_node with
         | Some n ->
           n.nd_fp <- fp;
           attr_node := None
         | None -> ());
        if fp <> [] && !pending_sleep <> [] then
          pending_sleep :=
            List.filter (fun (_, f) -> not (fp_conflict f fp)) !pending_sleep;
        let this_step = !step_idx in
        incr step_idx;
        stats.steps <- stats.steps + 1;
        if !step_idx > budget.max_steps then begin
          depth_cut := true;
          stats.depth_cutoffs <- stats.depth_cutoffs + 1;
          raise Pruned
        end;
        let processing = !decision_idx > process_from in
        let eligible = eligible x enabled in
        (* Every runnable fiber is parked at the current version: no
           fiber's wait condition can ever change again along this
           schedule (the re-checks are memoryless), so its only
           continuations are unfair infinite stutters. Cut it. *)
        if eligible = [] then begin
          stats.stutter_cuts <- stats.stutter_cuts + 1;
          raise Pruned
        end;
        let eligible = Array.of_list eligible in
        if processing then begin
          (match x.uc with
           | Some uc when cfg.Prep.Config.mode <> Prep.Config.Volatile ->
             enumerate_crash_frontiers x uc this_step
           | _ -> ());
          if Array.length eligible > 1 then begin
            let fresh_state = ref true in
            if scope.prune then begin
              let key = state_key x enabled in
              let sig_of_sleep sl =
                List.map
                  (fun (fid, f) ->
                    ( fid,
                      List.fold_left
                        (fun acc (k, w) -> acc lxor h2 k (if w then 1 else 0))
                        0 f ))
                  sl
                |> List.sort_uniq compare
              in
              let s = sig_of_sleep !pending_sleep in
              let subset c = List.for_all (fun x -> List.mem x s) c in
              (match Hashtbl.find_opt seen_states key with
               | Some cached when List.exists subset cached ->
                 stats.dedup_hits <- stats.dedup_hits + 1;
                 raise Pruned
               | Some cached ->
                 fresh_state := false;
                 (* drop cached supersets of [s]: [s] subsumes them *)
                 let cached =
                   List.filter
                     (fun c -> not (List.for_all (fun x -> List.mem x c) s))
                     cached
                 in
                 Hashtbl.replace seen_states key (s :: cached)
               | None -> Hashtbl.add seen_states key [ s ])
            end;
            if !fresh_state then stats.states <- stats.states + 1;
            if stats.states >= budget.max_states then begin
              budget_hit := true;
              raise Budget_exhausted
            end
          end
        end;
        if Array.length eligible = 1 then pick x eligible.(0)
        else if not processing then begin
          (* replay the DFS prefix *)
          let n = prefix_nodes.(!decision_idx) in
          if n.nd_enabled <> eligible then
            failwith "Explore: replay divergence (internal invariant)";
          incr decision_idx;
          decisions_rev := n.nd_choice :: !decisions_rev;
          pending_sleep := n.nd_sleep;
          attr_node := Some n;
          pick x n.nd_choice
        end
        else begin
          (* extend: open a new branching point *)
          let sleep = !pending_sleep in
          let asleep fid = List.exists (fun (q, _) -> q = fid) sleep in
          match
            Array.to_list eligible |> List.filter (fun f -> not (asleep f))
          with
          | [] ->
            (* every eligible move sleeps: all successors covered elsewhere *)
            stats.sleep_skips <- stats.sleep_skips + Array.length eligible;
            raise Pruned
          | c :: _ ->
            let n =
              {
                nd_enabled = eligible;
                nd_sleep = sleep;
                nd_tried = [];
                nd_choice = c;
                nd_fp = [];
              }
            in
            path := n :: !path;
            incr decision_idx;
            decisions_rev := c :: !decisions_rev;
            attr_node := Some n;
            pick x c
        end
      in
      let x = start ~cfg ~scope ~workload ~choose in
      (match Sim.run x.sim () with
       | `Done -> ()
       | `Cut _ -> assert false);
      (* terminal: quiescent state must equal the full-trace model replay *)
      let uc = Option.get x.uc in
      stats.terminals <- stats.terminals + 1;
      Hashtbl.replace terminal_states (U.snapshot uc) ();
      (* terminal model-replay is sharded by decision-trace hash; snapshot
         collection above is not (every shard sees every terminal) *)
      let dh =
        List.fold_left h2 (mix (List.length !decisions_rev)) !decisions_rev
      in
      if mine dh then begin
        let violations = U.quiescent uc in
        if violations <> [] then
          raise
            (Violation_found
               {
                 v_decisions = List.rev !decisions_rev;
                 v_crash = None;
                 v_violations = violations;
                 v_logged = U.logged uc;
                 v_completed = U.completed uc;
                 v_applied = U.logged uc;
               })
      end
    in

    (* ---- DFS driver ---- *)
    let rec backtrack () =
      match !path with
      | [] -> false
      | n :: rest ->
        (* a step with no memory footprint (spin-wait, ghost-only progress)
           must not sleep forever — it may behave differently once ghost
           state moves on; give it a wildcard footprint so any subsequent
           access wakes it, leaving only pure stutters pruned *)
        if scope.prune then begin
          let fp = if n.nd_fp = [] then [ (-1, true) ] else n.nd_fp in
          n.nd_sleep <- (n.nd_choice, fp) :: n.nd_sleep
        end;
        n.nd_tried <- n.nd_choice :: n.nd_tried;
        let asleep fid = List.exists (fun (q, _) -> q = fid) n.nd_sleep in
        let tried fid = List.mem fid n.nd_tried in
        (match
           Array.to_list n.nd_enabled
           |> List.filter (fun f -> not (tried f) && not (asleep f))
         with
         | c :: _ ->
           n.nd_choice <- c;
           n.nd_fp <- [];
           true
         | [] ->
           stats.sleep_skips <-
             stats.sleep_skips
             + (Array.length n.nd_enabled - List.length n.nd_tried);
           path := rest;
           backtrack ())
    in
    let violation = ref None in
    (try
       let continue = ref true in
       while !continue do
         if stats.schedules >= budget.max_schedules then begin
           budget_hit := true;
           continue := false
         end
         else begin
           stats.schedules <- stats.schedules + 1;
           (try run_once () with Pruned -> ());
           continue := backtrack ()
         end
       done
     with
    | Violation_found v -> violation := Some v
    | Budget_exhausted -> budget_hit := true);
    {
      stats;
      violation = !violation;
      terminal_states =
        List.sort compare
          (Hashtbl.fold (fun s () acc -> s :: acc) terminal_states []);
      exhausted =
        !violation = None && (not !budget_hit) && (not !depth_cut)
        && not !truncated;
    }

  let replay ~cfg ~gen_op ~scope ~decisions ?crash () =
    let workload = gen_workload ~gen_op ~scope in
    let decisions = Array.of_list decisions in
    let decision_idx = ref 0 in
    let step_idx = ref 0 in
    let choose x (enabled : int array) : int =
      let this_step = !step_idx in
      incr step_idx;
      (match crash with
       | Some (s, mask) when this_step = s ->
         commit_frontier x.mem
           (Array.of_list (Memory.dirty_nvm_line_keys x.mem))
           mask;
         raise Crash_now
       | _ -> ());
      let eligible =
        match eligible x enabled with [] -> enabled | l -> Array.of_list l
      in
      if Array.length eligible = 1 then pick x eligible.(0)
      else if !decision_idx < Array.length decisions then begin
        let c = decisions.(!decision_idx) in
        incr decision_idx;
        if not (Array.exists (fun f -> f = c) eligible) then
          failwith "Explore.replay: decision trace does not match execution";
        pick x c
      end
      else pick x eligible.(0)
    in
    let x = start ~cfg ~scope ~workload ~choose in
    let crashed =
      try
        (match Sim.run x.sim () with `Done -> () | `Cut _ -> assert false);
        false
      with Crash_now -> true
    in
    let uc = Option.get x.uc in
    let logged = U.logged uc and completed = U.completed uc in
    if crashed then begin
      Memory.clear_access_hook x.mem;
      Memory.crash x.mem;
      let v = recover ~scope uc in
      (v.Sut.violations, true, logged, completed, v.Sut.applied)
    end
    else (U.quiescent uc, false, logged, completed, logged)
end

module Make (Ds : Seqds.Ds_intf.S) = struct
  module Systems = Sut.Make (Ds)

  (** Explore every interleaving and every reachable crash frontier of the
      small-scope workload. Stops at the first violation (it carries a
      replayable decision trace) or when the space/budget is exhausted.

      [config] supplies the feature set; mode, fault, ε, log size and
      workers come from the arguments and [scope]. [config.shards > 1]
      explores the sharded construction.

      [shard = (i, n)] splits the oracle work for a parallel campaign:
      every shard replays the *identical* schedule DFS (all sleep-set and
      state-dedup bookkeeping included — scheduling cost is replicated,
      not divided), but performs only the crash recoveries and terminal
      model-replays whose dedup hash falls in its residue class. A skipped
      check is state-neutral (the memory snapshot would have been restored
      anyway), so shards stay in lockstep; [merge_shards] reassembles the
      full result and audits that lockstep. The default [(0, 1)] is the
      exact unsharded search. *)
  let explore ?config ?(budget = default_budget)
      ?(shard = (0, 1)) ~mode ~fault ~gen_op ~scope () =
    if scope.threads < 1 || scope.threads > max_threads scope then
      invalid_arg "Explore: thread count out of range";
    let shard_ix, shard_n = shard in
    if shard_n < 1 || shard_ix < 0 || shard_ix >= shard_n then
      invalid_arg "Explore: shard index out of range";
    let cfg =
      Sut.checker_config ?config ~mode ~fault ~epsilon:scope.epsilon
        ~log_size:scope.log_size ~workers:scope.threads ()
    in
    let module U = (val Systems.select cfg : Sut.S) in
    let module R = Run (U) in
    R.explore ~cfg ~budget ~shard ~gen_op ~scope

  (** Re-execute exactly one schedule from its decision trace; optionally
      crash at [crash = (step, frontier_mask)] — the mask selects, bit [b],
      the [b]-th dirty NVM line (sorted) at that step — then recover and
      check. Everything is deterministic: replaying a violation's trace
      under the same [config] reproduces its violation. Returns
      [(violations, crashed, logged, completed, applied)]. *)
  let replay ?config ~mode ~fault ~gen_op ~scope ~decisions
      ?crash () =
    let cfg =
      Sut.checker_config ?config ~mode ~fault ~epsilon:scope.epsilon
        ~log_size:scope.log_size ~workers:scope.threads ()
    in
    let module U = (val Systems.select cfg : Sut.S) in
    let module R = Run (U) in
    R.replay ~cfg ~gen_op ~scope ~decisions ?crash ()
end
