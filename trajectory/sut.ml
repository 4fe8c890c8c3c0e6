(** The systems under test, built from the public construction functors.

    These are [Experiment.Systems]' [prep] and [prep_sharded] at the
    [Config.make] defaults (FliT aside), lifted over [Timed.Make (Ds)], that also hand
    the bench a [handle] on the instance they build: the memory, the
    counters and a recovery entry point, so a run can end in a power
    failure. The self-test checks that they run the exact schedule of
    the harness's own constructors. *)

open Harness

type recovered = {
  exec : op:int -> args:int array -> int;
  reports : Prep.Prep_uc.recovery_report list;
}

type handle = {
  mem : Nvm.Memory.t;
  counters : unit -> (string * int) list;
  logged : unit -> int array;  (** log entries written, per instance *)
  recover : unit -> recovered;
      (** after [Nvm.Memory.crash], inside a fiber of a fresh simulation:
          rebuild the construction from media and bind the calling fiber
          to it *)
}

let checkpoints slot () =
  match !slot with
  | Some h -> Option.value ~default:0 (List.assoc_opt "ckpt_count" (h.counters ()))
  | None -> 0

module Make (Ds : Seqds.Ds_intf.S) = struct
  module P = Prep.Prep_uc.Make (Timed.Make (Ds))
  module Sh = Prep.Sharded_uc.Make (Timed.Make (Ds))

  let prep_handle mem uc =
    {
      mem;
      counters = (fun () -> P.counters uc);
      logged = (fun () -> [| Prep.Trace.length (P.trace uc) |]);
      recover =
        (fun () ->
          let uc', report = P.recover uc in
          P.register_worker uc';
          { exec = (fun ~op ~args -> P.execute uc' ~op ~args); reports = [ report ] });
    }

  let prep ~log_size ~epsilon (slot : handle option ref) =
    {
      Experiment.sys_name = "PREP-Durable";
      duration_factor = 1;
      make =
        (fun mem roots ~workers ~prefill ->
          let cfg =
            Prep.Config.make ~mode:Prep.Config.Durable ~log_size ~epsilon ~workers ()
          in
          let uc = P.create ~prefill mem roots cfg in
          P.start_persistence uc;
          slot := Some (prep_handle mem uc);
          {
            Experiment.register = (fun () -> P.register_worker uc);
            exec = (fun ~op ~args -> P.execute uc ~op ~args);
            exec_batch = None;
            teardown = (fun () -> P.stop uc);
            sample = (fun reg -> P.sample uc reg);
          });
    }

  let sharded ~log_size ~epsilon ~flit ~shards (slot : handle option ref) =
    {
      Experiment.sys_name = Printf.sprintf "PREP-Durable/x%d" shards;
      duration_factor = 1;
      make =
        (fun mem roots ~workers ~prefill ->
          let cfg =
            Prep.Config.make ~mode:Prep.Config.Durable ~log_size ~epsilon ~flit ~shards
              ~workers ()
          in
          let t = Sh.create ~prefill mem roots cfg in
          Sh.start_persistence t;
          slot :=
            Some
              {
                mem;
                counters =
                  (fun () ->
                    let reg = Telemetry.Registry.create () in
                    Sh.sample t reg;
                    (Telemetry.Registry.snapshot reg).Telemetry.Registry.sn_counters);
                logged =
                  (fun () ->
                    Array.init shards (fun i -> Prep.Trace.length (Sh.trace t i)));
                recover =
                  (fun () ->
                    let t', reports = Sh.recover t in
                    Sh.register_worker t';
                    {
                      exec = (fun ~op ~args -> Sh.execute t' ~op ~args);
                      reports = Array.to_list reports;
                    });
              };
          {
            Experiment.register = (fun () -> Sh.register_worker t);
            exec = (fun ~op ~args -> Sh.execute t ~op ~args);
            exec_batch = Some (fun ops -> Sh.execute_batch t ops);
            teardown = (fun () -> Sh.stop t);
            sample = (fun reg -> Sh.sample t reg);
          });
    }
end
