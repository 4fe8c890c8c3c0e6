(** The paper's allocator-swap mechanism (§5.1).

    A persistent universal construction cannot hand the sequential data
    structure a persistent allocator (that would mean modifying the
    sequential code), and it cannot override the system allocator globally.
    The paper's solution: wrap malloc/free so that a *thread-local flag*
    redirects allocations to the persistent allocator; the persistence
    thread sets the flag around its calls into the sequential object and
    clears it afterwards.

    Here the thread-local flag is the fiber's [palloc] field, and
    [alloc]/[free] below are the wrapped entry points the sequential data
    structures call. *)

type binding = {
  mutable default : Alloc.t; (* the "system allocator" for this fiber *)
  mutable persistent : Alloc.t option;
  mutable helpers : (int * int) list;
      (* idle (socket, core)s this fiber may [fork] onto; see [fanout] *)
}

(* Domain-local: the fid -> binding table belongs to the simulation running
   on this domain; independent sims on other domains (Harness.Campaign)
   keep their own tables. *)
let table_key : (int, binding) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let table () = Domain.DLS.get table_key

(** Bind the current fiber's allocators. Every fiber that executes
    sequential-object code must be bound first. *)
let bind ~default ?persistent () =
  let fid = (Sim.self ()).Sim.fid in
  Hashtbl.replace (table ()) fid { default; persistent; helpers = [] }

(** Rebind only the default (volatile) allocator of the current fiber;
    combiners do this when applying a batch to their local replica. *)
let set_default alloc =
  let fid = (Sim.self ()).Sim.fid in
  match Hashtbl.find_opt (table ()) fid with
  | Some b -> b.default <- alloc
  | None ->
    Hashtbl.replace (table ()) fid
      { default = alloc; persistent = None; helpers = [] }

let set_persistent alloc =
  let fid = (Sim.self ()).Sim.fid in
  match Hashtbl.find_opt (table ()) fid with
  | Some b -> b.persistent <- Some alloc
  | None ->
    Hashtbl.replace (table ()) fid
      { default = alloc; persistent = Some alloc; helpers = [] }

let binding () =
  let fid = (Sim.self ()).Sim.fid in
  match Hashtbl.find_opt (table ()) fid with
  | Some b -> b
  | None -> failwith "Context: fiber has no allocator binding"

(** The allocator the wrapped malloc would use right now. *)
let current () =
  let b = binding () in
  if (Sim.self ()).Sim.palloc then
    match b.persistent with
    | Some p -> p
    | None -> failwith "Context: persistent allocator enabled but not bound"
  else b.default

(** Run [f] with the persistent allocator enabled, restoring the flag
    afterwards. This is exactly the persistence thread's wrapper. *)
let with_persistent f =
  let fiber = Sim.self () in
  let saved = fiber.Sim.palloc in
  fiber.Sim.palloc <- true;
  Fun.protect ~finally:(fun () -> fiber.Sim.palloc <- saved) f

(** Run [f] with [alloc] as the fiber's default allocator, restoring the
    previous binding afterwards. Used by systems (e.g. CX-PUC) that route a
    sequential-object call to a specific per-replica heap. *)
let with_allocator alloc f =
  let b = binding () in
  let saved = b.default in
  b.default <- alloc;
  Fun.protect ~finally:(fun () -> b.default <- saved) f

(* Wrapped allocation entry points used by the black-box sequential code. *)

let alloc size = Alloc.alloc (current ()) size
let free addr size = Alloc.free (current ()) addr size

(* ---- fan-out: idle cores lent to one fiber ----

   Like the allocator swap, a per-fiber binding the sequential code reads
   without knowing who set it: a recovery lends each copying fiber the
   idle cores of its socket, and a structure whose copy is large splits
   the copy across them through [fork]. *)

(** How many fibers [fork] may run at once: the calling fiber plus its
    helper cores; 1 when the fiber has no binding. *)
let fanout () =
  match Hashtbl.find_opt (table ()) (Sim.self ()).Sim.fid with
  | Some b -> 1 + List.length b.helpers
  | None -> 1

(** How many parts a copy of [n] units splits into: one per [min_part]
    units, at most [fanout ()], at least 1. Each structure states [n] and
    [min_part] in its own unit (tree nodes, table buckets) and reads [n]
    from a word its one-fiber copy loads first anyway, so a copy that
    does not split issues exactly the one-fiber copy's memory operations,
    and [min_part] keeps the checkers' small scopes on one fiber. *)
let parts ~min_part n = max 1 (min (fanout ()) (n / min_part))

(** Run [f] with [cores] as the fiber's helper cores, restoring the
    previous set afterwards. No other fiber may run on them meanwhile. *)
let with_helpers cores f =
  let b = binding () in
  let saved = b.helpers in
  b.helpers <- cores;
  Fun.protect ~finally:(fun () -> b.helpers <- saved) f

(* The first job on the caller, job [i] on helper core [i - 1], joined
   through [Sim.fork_join]. With [heaps], each helper allocates from a
   child heap of the caller's current allocator ([Alloc.child]: chunks of
   the caller's own arenas), which adopts its live words after the join;
   without, a helper has no allocator at all. A helper's
   [Invalid_argument] or [Failure] (torn media) is re-raised after the
   join, the lowest job's first. *)
let fork_on ~heaps jobs =
  match jobs with
  | [] -> ()
  | [ f ] -> f ()
  | first :: rest ->
    let b = binding () in
    if List.length rest > List.length b.helpers then
      invalid_arg "Context.fork: more jobs than fan-out";
    let mine = current () in
    let subs =
      List.map (fun _ -> if heaps then Some (Alloc.child mine) else None) rest
    in
    let raised = Array.make (List.length rest) None in
    let helper i sub f () =
      let fid = (Sim.self ()).Sim.fid in
      Option.iter
        (fun a ->
          Hashtbl.replace (table ()) fid
            { default = a; persistent = None; helpers = [] })
        sub;
      (try f ()
       with (Invalid_argument _ | Failure _) as e -> raised.(i) <- Some e);
      Hashtbl.remove (table ()) fid
    in
    Sim.fork_join
      (List.mapi
         (fun i (sub, f) ->
           let socket, core = List.nth b.helpers i in
           (socket, core, helper i sub f))
         (List.combine subs rest))
      first;
    List.iter (Option.iter (Alloc.adopt mine)) subs;
    Array.iter (Option.iter raise) raised

(** Run [jobs] at once, at most [fanout ()] of them, each helper in a
    child heap of the caller's current allocator (see [fork_on]): that
    allocator owns every arena any job allocated in, and every word any
    job allocated once [fork] returns. *)
let fork jobs = fork_on ~heaps:true jobs

(** Run [jobs], none of which allocates, dealt round-robin over
    [min (fanout ()) (List.length jobs)] fibers. *)
let spread jobs =
  let parts = min (fanout ()) (List.length jobs) in
  fork_on ~heaps:false
    (List.init parts (fun p () ->
         List.iteri (fun i f -> if i mod parts = p then f ()) jobs))

(** Drop all bindings (between experiment runs / after a crash). *)
let reset () = Hashtbl.reset (table ())

(** Snapshot of this domain's bindings; the explorer saves them around a
    nested recovery simulation and puts them back afterwards. *)
type saved = (int, binding) Hashtbl.t

let save () : saved = Hashtbl.copy (table ())

let restore (s : saved) =
  let t = table () in
  Hashtbl.reset t;
  Hashtbl.iter (fun k v -> Hashtbl.replace t k v) s
