(** Global-lock universal construction (paper Fig. 1's "GL" baseline):
    a single copy of the sequential object protected by one spinlock. *)

open Nvm

module Make (Ds : Seqds.Ds_intf.S) = struct
  type t = {
    mem : Memory.t;
    lock : Locks.Trylock.t;
    ds : Ds.handle;
    alloc : Alloc.t;
    tel : Phases.t option;
  }

  let create ?(prefill = []) mem =
    let alloc = Alloc.create_volatile mem ~home:0 in
    Context.bind ~default:alloc ();
    let ds = Ds.create mem in
    List.iter (fun (op, args) -> ignore (Ds.execute ds ~op ~args)) prefill;
    let lock = Locks.Trylock.make mem (Alloc.alloc alloc 8) in
    { mem; lock; ds; alloc; tel = Phases.make () }

  let register_worker t = Context.bind ~default:t.alloc ()

  let execute t ~op ~args =
    while not (Locks.Trylock.try_acquire t.lock) do
      Sim.spin ()
    done;
    (* the locked section is this construction's (degenerate) combine *)
    let resp =
      Phases.in_span t.tel (fun pt -> pt.Phases.combine) (fun () ->
          Ds.execute t.ds ~op ~args)
    in
    Locks.Trylock.release t.lock;
    resp

  let snapshot t = Ds.snapshot t.ds
end
