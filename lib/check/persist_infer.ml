(** Explorer-checked minimal-flush inference — the engine behind the CLI's
    [optimize-persist] subcommand.

    The persistency-policy layer ([Nvm.Persist]) can weaken any flush or
    fence site: elide it, downgrade a CLFLUSH to a CLWB, or defer a fence.
    Most weakenings are unsound — the whole point of the seed's protocol is
    that every one of those instructions is load-bearing. But a few are
    provably not: the combiner's phase-1 payload fence is subsumed by the
    phase-2 fence (a log entry is one cache line, so its payload and
    emptyBit reach media together; [Config.flit] installs the same deferral),
    and the build-time zero-initialisation flushes write values the media
    already holds. This module *derives* that set instead of trusting a
    human: it measures which sites are hot, proposes one-site weakenings
    hottest-first, and admits a weakening only when two independent oracles
    agree it is invisible:

    - the bounded-exhaustive explorer ([Explore]) must finish its scope
      {e exhausted} — every interleaving, every crash frontier — with zero
      durable-linearizability violations under the candidate policy; and
    - a differential fuzz soak must (a) reproduce the baseline's crash-free
      run exactly (same logged/completed/applied counts — the policy may
      remove persistence work, never change execution semantics) and
      (b) survive a plan of randomized crash points violation-free.

    Rejected candidates are kept in the report with a replayable repro
    command: each one is a machine-found planted fault, and CI replays the
    canonical rejection (the completedTail elision, the policy spec
    ["prep.completed_tail=elide"], also the planted fault
    the explorer and fuzzer suites run) to prove the oracles keep their
    teeth.

    The search is greedy and monotone: admitted weakenings stay in the
    policy while later candidates are tried on top, so the final policy as
    a whole — not just each step in isolation — is exactly what the last
    admitted trial verified. *)

open Nvm

(* ---- verdicts ---- *)

type verdict =
  | Admitted
  | Rejected_explorer of string
      (** the explorer found a durable-linearizability violation; payload
          is its description *)
  | Rejected_fuzz of string
      (** the fuzz soak found a violating episode; payload describes it *)
  | Rejected_differential
      (** the crash-free run diverged from the baseline — the weakening
          perturbed execution itself, not just persistence *)
  | Unproven
      (** the explorer hit a budget/depth/frontier cap before exhausting
          the scope: no violation seen, but nothing proven either *)

let verdict_name = function
  | Admitted -> "admitted"
  | Rejected_explorer _ -> "rejected-explorer"
  | Rejected_fuzz _ -> "rejected-fuzz"
  | Rejected_differential -> "rejected-differential"
  | Unproven -> "unproven"

let verdict_detail = function
  | Admitted | Rejected_differential | Unproven -> None
  | Rejected_explorer s | Rejected_fuzz s -> Some s

(** One candidate weakening and what the oracles said about it. *)
type decision = {
  d_site : Persist.site;
  d_action : Persist.action;
  d_weight : int;  (** measured emitted instructions at the site *)
  d_verdict : verdict;
  d_repro : string option;
      (** for rejections: a copy-pasteable command that replays the
          violation under the offending one-site policy *)
}

type report = {
  r_policy : Persist.policy;  (** the proven minimal policy *)
  r_decisions : decision list;  (** trial order: hottest site first *)
  r_measured : (Persist.site * string * int) list;
      (** per-(site, primitive) emitted counts from the baseline
          measurement run, descending *)
  r_baseline_flushes : int;  (** emitted CLWB+CLFLUSH, baseline measure run *)
  r_policy_flushes : int;  (** same workload under the proven policy *)
  r_baseline_fences : int;
  r_policy_fences : int;
  r_exhausted : bool;
      (** the final admitted policy's explorer run was exhausted (always
          true when any site was admitted; true for the trivial empty
          policy only if the baseline scope itself exhausts) *)
}

let flush_metrics = [ "clwb"; "clflush" ]
let fence_metrics = [ "sfence" ]
let measured_metrics = flush_metrics @ fence_metrics @ [ "wbinvd"; "flush_arena" ]

(* ---- report JSON (emitted next to the policy JSON artifact) ---- *)

let report_to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"prep.persist-report/1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"baseline\": { \"flushes\": %d, \"fences\": %d },\n"
       r.r_baseline_flushes r.r_baseline_fences);
  Buffer.add_string b
    (Printf.sprintf "  \"policy\": { \"flushes\": %d, \"fences\": %d },\n"
       r.r_policy_flushes r.r_policy_fences);
  Buffer.add_string b
    (Printf.sprintf "  \"exhausted\": %b,\n" r.r_exhausted);
  Buffer.add_string b "  \"admitted\": {";
  let ws = Persist.weakenings r.r_policy in
  List.iteri
    (fun i (s, a) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    %S: %S" (Persist.to_string s)
           (Persist.action_to_string a)))
    ws;
  if ws <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "},\n";
  Buffer.add_string b "  \"decisions\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"site\": %S, \"action\": %S, \"weight\": %d, \
            \"verdict\": %S%s%s }"
           (Persist.to_string d.d_site)
           (Persist.action_to_string d.d_action)
           d.d_weight (verdict_name d.d_verdict)
           (match verdict_detail d.d_verdict with
            | None -> ""
            | Some det -> Printf.sprintf ", \"detail\": %S" det)
           (match d.d_repro with
            | None -> ""
            | Some rc -> Printf.sprintf ", \"repro\": %S" rc)))
    r.r_decisions;
  if r.r_decisions <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "],\n";
  Buffer.add_string b "  \"measured\": [";
  List.iteri
    (fun i (s, prim, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    { \"site\": %S, \"prim\": %S, \"count\": %d }"
           (Persist.to_string s) prim n))
    r.r_measured;
  if r.r_measured <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

module Make (Ds : Seqds.Ds_intf.S) = struct
  module F = Fuzz.Make (Ds)
  module E = Explore.Make (Ds)

  (* Per-(site, primitive) emitted counts from one instrumented run.
     Telemetry recording is cost- and schedule-neutral, so the measured run
     is the same run the fuzz soak replays. *)
  let measure ~config ~mode ~gen_op template =
    let reg = Telemetry.Registry.create () in
    let out =
      Telemetry.Registry.with_current reg (fun () ->
          F.run_episode ~config ~mode ~fault:Prep.Config.No_fault ~gen_op
            { template with Fuzz.crash = Fuzz.No_crash })
    in
    let snap = Telemetry.Registry.snapshot reg in
    let table =
      List.filter_map
        (fun (name, v) ->
          match Persist.split_counter name with
          | Some (metric, site) when List.mem metric measured_metrics ->
            Some (site, metric, v)
          | Some _ | None -> None)
        snap.Telemetry.Registry.sn_counters
    in
    (out, List.sort (fun (_, _, a) (_, _, b) -> compare b a) table)

  let total metrics table =
    List.fold_left
      (fun acc (_, m, v) -> if List.mem m metrics then acc + v else acc)
      0 table

  (* Weakening ladder for one site, strongest first, from the primitives it
     actually emitted. WBINVD / arena walks are the checkpoint write-back
     mechanism itself — nothing to weaken below a whole-replica flush — so
     they generate no candidates. *)
  let ladder prims =
    let has p = List.mem p prims in
    if has "clflush" then [ Persist.Elide; Persist.Downgrade_to_clwb ]
    else if has "clwb" && has "sfence" then
      [ Persist.Elide; Persist.Defer_to_next_fence ]
    else if has "clwb" then [ Persist.Elide ]
    else if has "sfence" then [ Persist.Defer_to_next_fence ]
    else []

  (* Candidate sites, hottest first (site index breaks ties, for
     determinism), each with its action ladder and total weight. *)
  let candidates table =
    let by_site = Hashtbl.create 16 in
    List.iter
      (fun (site, prim, v) ->
        let prims, w =
          match Hashtbl.find_opt by_site site with
          | Some (ps, w) -> (ps, w)
          | None -> ([], 0)
        in
        Hashtbl.replace by_site site (prim :: prims, w + v))
      table;
    Hashtbl.fold
      (fun site (prims, w) acc ->
        match ladder prims with [] -> acc | l -> (site, w, l) :: acc)
      by_site []
    |> List.sort (fun (s1, w1, _) (s2, w2, _) ->
           if w1 <> w2 then compare w2 w1
           else compare (Persist.index s1) (Persist.index s2))

  (* Both oracles on one candidate policy (installed in [config]). The
     explorer must exhaust its scope clean; the fuzz soak must match the
     baseline crash-free run and survive its crash plan. Rejections carry
     a repro command for the configuration that failed. *)
  let check ~config ~mode ~gen_op ~scope ~max_schedules ~template ~fuzz_iters
      ~ds ~baseline =
    let fault = Prep.Config.No_fault in
    let eres =
      E.explore ~config ~max_schedules ~mode ~fault ~gen_op ~scope ()
    in
    match eres.Explore.violation with
    | Some v ->
      let desc =
        String.concat "; "
          (List.map Durable_lin.violation_to_string v.Explore.v_violations)
      in
      ( Rejected_explorer desc,
        Some
          (Explore.repro_command ~config ~mode ~fault ~ds ~scope
             v.Explore.v_decisions v.Explore.v_crash) )
    | None when not eres.Explore.exhausted -> (Unproven, None)
    | None ->
      (* differential: crash-free semantics must be byte-identical *)
      let out =
        F.run_episode ~config ~mode ~fault ~gen_op
          { template with Fuzz.crash = Fuzz.No_crash }
      in
      let same (a : Fuzz.outcome) (b : Fuzz.outcome) =
        a.Fuzz.logged = b.Fuzz.logged
        && a.Fuzz.completed = b.Fuzz.completed
        && a.Fuzz.applied = b.Fuzz.applied
        && a.Fuzz.violations = [] && b.Fuzz.violations = []
      in
      if not (same out baseline) then (Rejected_differential, None)
      else begin
        let fres =
          F.fuzz ~config ~mode ~fault ~gen_op ~template ~iters:fuzz_iters ()
        in
        match fres.Fuzz.failures with
        | [] -> (Admitted, None)
        | f :: _ ->
          ( Rejected_fuzz (Format.asprintf "%a" Fuzz.pp_episode f.Fuzz.episode),
            Some (Fuzz.repro_command ~config ~mode ~fault ~ds f.Fuzz.episode)
          )
      end

  (** Run the full inference: measure, rank, greedily weaken, prove.
      [scope]/[max_schedules] bound the explorer oracle;
      [template]/[fuzz_iters] drive the measurement run and the fuzz soak;
      [ds] names the data structure in emitted repro commands. Returns the
      proven policy and the full decision log. *)
  let infer ?(config = Prep.Config.default) ?(log = fun (_ : string) -> ())
      ~mode ~gen_op ~scope ~max_schedules ~template ~fuzz_iters ~ds () =
    let with_policy p = { config with Prep.Config.persist_policy = Some p } in
    let baseline, table = measure ~config ~mode ~gen_op template in
    if baseline.Fuzz.violations <> [] then
      invalid_arg
        "Persist_infer: baseline run violates durable linearizability — \
         nothing to optimize";
    let base_flush = total flush_metrics table in
    let base_fence = total fence_metrics table in
    log
      (Printf.sprintf
         "measured baseline: %d flushes, %d fences across %d (site, prim) \
          pairs"
         base_flush base_fence (List.length table));
    let cands = candidates table in
    log
      (Printf.sprintf "candidate sites (hottest first): %s"
         (String.concat ", "
            (List.map
               (fun (s, w, _) ->
                 Printf.sprintf "%s(%d)" (Persist.to_string s) w)
               cands)));
    let policy = Persist.default () in
    let decisions = ref [] in
    let exhausted_final = ref false in
    let record d = decisions := d :: !decisions in
    List.iter
      (fun (site, weight, actions) ->
        let rec attempt = function
          | [] -> ()
          | action :: rest ->
            let trial = Persist.copy policy in
            Persist.set trial site action;
            log
              (Printf.sprintf "trying %s=%s (weight %d)..."
                 (Persist.to_string site)
                 (Persist.action_to_string action)
                 weight);
            let verdict, repro =
              check ~config:(with_policy trial) ~mode ~gen_op ~scope
                ~max_schedules ~template ~fuzz_iters ~ds ~baseline
            in
            record
              { d_site = site; d_action = action; d_weight = weight;
                d_verdict = verdict; d_repro = repro };
            (match verdict with
             | Admitted ->
               Persist.set policy site action;
               exhausted_final := true;
               log
                 (Printf.sprintf "  ADMITTED %s=%s (explorer exhausted, \
                                  fuzz clean)"
                    (Persist.to_string site)
                    (Persist.action_to_string action))
             | v ->
               log
                 (Printf.sprintf "  rejected %s=%s: %s"
                    (Persist.to_string site)
                    (Persist.action_to_string action)
                    (verdict_name v));
               attempt rest)
        in
        attempt actions)
      cands;
    (* re-measure the same workload under the proven policy *)
    let _, ptable =
      measure ~config:(with_policy policy) ~mode ~gen_op template
    in
    let pol_flush = total flush_metrics ptable in
    let pol_fence = total fence_metrics ptable in
    log
      (Printf.sprintf
         "proven policy: %d weakenings; flushes %d -> %d, fences %d -> %d"
         (List.length (Persist.weakenings policy))
         base_flush pol_flush base_fence pol_fence);
    {
      r_policy = policy;
      r_decisions = List.rev !decisions;
      r_measured = table;
      r_baseline_flushes = base_flush;
      r_policy_flushes = pol_flush;
      r_baseline_fences = base_fence;
      r_policy_fences = pol_fence;
      r_exhausted = !exhausted_final;
    }
end
