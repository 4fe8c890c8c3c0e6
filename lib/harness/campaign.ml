(** Domain-parallel campaign runner.

    Every campaign in this repo — fuzz episodes, explorer shards, sweep
    points, session scripts — is an array of *independent, deterministic*
    sim instances: each task derives everything from its own seed and
    touches only domain-local ambient state (Sim, Telemetry.Registry and
    Nvm.Context are all [Domain.DLS]-backed). That makes the parallelism
    trivial and, more importantly, *auditable*: a task computes the same
    value whichever domain runs it, results land in the task's own slot,
    and merging happens afterwards in task order — so the merged output of
    a campaign is byte-identical at any [-j]. A run that is *not*
    identical at [-j 1] and [-j 4] has leaked shared state somewhere, and
    CI treats that as a bug.

    The scheduler is a plain work queue: one atomic counter hands out task
    indices; [min j n] domains (counting the calling one) loop on it until
    the queue drains. Tasks must not print — collect output in the result
    value and render it after [run] returns, otherwise interleaved writes
    break the byte-identity contract. *)

type 'r outcome = Pending | Done of 'r | Failed of exn

(** [run ~j tasks] evaluates every task and returns their results in task
    order. [j <= 1] (or a single task) runs inline with zero overhead —
    the serial path is the parallel path with the work queue degenerated,
    not a separate code path that could drift. If any task raised, the
    exception of the lowest-indexed failed task is re-raised after the
    whole queue has drained (every other task still runs: a campaign's
    remaining results must not depend on where an unrelated task failed).
*)
let run ?(j = 1) (tasks : (unit -> 'r) array) : 'r array =
  let n = Array.length tasks in
  if j <= 1 || n <= 1 then Array.map (fun task -> task ()) tasks
  else begin
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             (match tasks.(i) () with
              | v -> Done v
              | exception e -> Failed e));
          loop ()
        end
      in
      loop ()
    in
    let helpers =
      Array.init (min j n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join helpers;
    Array.map
      (function
        | Done v -> v
        | Failed e -> raise e
        | Pending -> assert false)
      results
  end

(** [map ~j f items]: [run] over [f item] tasks, in item order. *)
let map ?j f items = run ?j (Array.map (fun x () -> f x) items)
