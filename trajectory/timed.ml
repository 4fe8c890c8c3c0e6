(** Sequential-object timing from outside the construction.

    [Make (Ds)] is [Ds] with [execute] and [copy] bracketed by two reads of
    the running fiber's simulated clock. Reading [Sim.now] neither ticks
    the clock nor draws from any random stream, so a construction lifted
    over [Make (Ds)] runs exactly the schedule it runs over [Ds]; the
    self-test checks that. The totals are process-global and are reset by
    the caller around each measured run. *)

type totals = {
  mutable calls : int;
  mutable call_ns : int;
  mutable copies : int;
  mutable copy_ns : int;
}

let totals = { calls = 0; call_ns = 0; copies = 0; copy_ns = 0 }

let reset () =
  totals.calls <- 0;
  totals.call_ns <- 0;
  totals.copies <- 0;
  totals.copy_ns <- 0

module Make (Ds : Seqds.Ds_intf.S) : Seqds.Ds_intf.S = struct
  include Ds

  let execute h ~op ~args =
    let t0 = Sim.now () in
    let r = Ds.execute h ~op ~args in
    totals.calls <- totals.calls + 1;
    totals.call_ns <- totals.call_ns + (Sim.now () - t0);
    r

  let copy h =
    let t0 = Sim.now () in
    let c = Ds.copy h in
    totals.copies <- totals.copies + 1;
    totals.copy_ns <- totals.copy_ns + (Sim.now () - t0);
    c
end
