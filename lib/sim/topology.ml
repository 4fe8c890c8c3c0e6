(** Simulated NUMA machine description.

    The paper's testbed is a 2-socket Intel Xeon Gold 5220R (24 cores / 48
    hardware threads per socket) with Optane DCPMMs. The default topology
    keeps the 2-socket shape at reduced width so that container-scale runs
    finish quickly; [paper_scale] widens it to the paper's thread counts. *)

type t = {
  sockets : int;          (** number of NUMA nodes, [N] in the paper *)
  cores_per_socket : int; (** hardware threads per node, bounds batch size [beta] *)
}

let default = { sockets = 2; cores_per_socket = 12 }

let paper_scale = { sockets = 2; cores_per_socket = 48 }

let total_cores t = t.sockets * t.cores_per_socket

(** Map a worker index to its (socket, core), filling socket 0 completely
    before socket 1, matching the paper's pinning policy (§6). *)
let place t worker =
  if worker < 0 || worker >= total_cores t then
    invalid_arg "Topology.place: worker index out of range";
  (worker / t.cores_per_socket, worker mod t.cores_per_socket)

(** The thread id PREP tags worker [worker]'s announcements and log
    entries with: [socket * cores_per_socket + core] of [place]. *)
let tid t worker =
  let socket, core = place t worker in
  (socket * t.cores_per_socket) + core

(** How many of workers [0 .. workers-1] [place] puts on each socket;
    workers past the last core are not counted. *)
let workers_per_socket t workers =
  let n = Array.make t.sockets 0 in
  for w = 0 to min workers (total_cores t) - 1 do
    let socket, _ = place t w in
    n.(socket) <- n.(socket) + 1
  done;
  n

let pp ppf t =
  Fmt.pf ppf "%d socket(s) x %d core(s)" t.sockets t.cores_per_socket
