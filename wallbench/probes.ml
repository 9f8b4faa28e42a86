(* Isolated layer probes.  Each replays one layer's public functions on
   the workload's own instances, as many times as the traced run says the
   layer was used, capped by a wall-clock budget so a probe never
   dominates a run.  A layer the workload never touched replays nothing
   and reports 0. *)

module C = Gridsat_core
module Svc = Gridsat_service.Service
module M = Measure

let budget_s = 1.0

(* [replay ~count f] calls [f 0 .. f (count-1)], stopping early once the
   budget is spent; returns the calls made and their wall time. *)
let replay ~count f =
  let t0 = M.wall () in
  let rec go i = if i < count && M.wall () -. t0 < budget_s then (f i; go (i + 1)) else i in
  let n = go 0 in
  (n, M.wall () -. t0)

let per_call ~scale (n, dt) = if n = 0 then 0. else dt *. scale /. float_of_int n

type t = {
  frame_mb_per_s : float;
  capture_ms : float;
  to_solver_ms : float;
  dispatch_ns : float;
  journal_append_us : float;
  journal_replay_ms : float;
  checkpoint_save_ms : float;
  submit_us : float;
  digest_us : float;
  joblog_append_us : float;
  words_per_prop : float;
}

type counts = {
  problems : int;  (** Problem transfers the run made *)
  sim_events : int;
  journal_appends : int;
  checkpoint_saves : int;
  jobs : int;
  joblog : Gridsat_service.Joblog.entry list;
  propagations : int;
}

(* Problem messages as a client would ship them: each instance loaded
   into a solver, searched briefly, then captured. *)
let solvers formulas =
  Array.of_list
    (List.map
       (fun cnf ->
         let s =
           C.Subproblem.to_solver ~config:Sat.Solver.default_config (C.Subproblem.initial cnf)
         in
         ignore (Sat.Solver.run s ~budget:200);
         (cnf, s))
       formulas)

(* The journal exposes no way to read a run's records back, so the append
   probe cycles through one record of each kind a run writes. *)
let journal_entry i : C.Journal.entry =
  let pid = (i mod 7, i) in
  match i mod 8 with
  | 0 -> C.Journal.Registered { client = i mod 16 }
  | 1 -> C.Journal.Assigned { pid; dst = 1; path = [] }
  | 2 -> C.Journal.Started { pid; client = 1 }
  | 3 -> C.Journal.Shared { clauses = 3 }
  | 4 -> C.Journal.Granted { requester = 1; partner = 2 }
  | 5 ->
      C.Journal.Split
        { donor = 1; donor_pid = pid; donor_path = [ 2; 5 ]; pid = (1, i); dst = 2; path = [ 3; 5 ] }
  | 6 -> C.Journal.Refuted { pid = (1, i) }
  | _ -> C.Journal.Refuted { pid }

let run sp parent ~(counts : counts) ~formulas =
  let probe name f = M.span sp ~parent ~cause:"probe" name (fun _ -> f ()) in
  let solvers = probe "probe.setup" (fun () -> solvers formulas) in
  let n = Array.length solvers in
  let at i = solvers.(i mod n) in
  let transfers = if n = 0 then 0 else max counts.problems n in
  let subs = probe "probe.setup" (fun () -> Array.map (fun (_, s) -> C.Subproblem.capture s) solvers) in
  let capture_ms =
    probe "Subproblem.capture" (fun () ->
        per_call ~scale:1e3
          (replay ~count:transfers (fun i -> ignore (C.Subproblem.capture (snd (at i))))))
  in
  let to_solver_ms =
    probe "Subproblem.to_solver" (fun () ->
        per_call ~scale:1e3
          (replay ~count:transfers (fun i ->
               ignore (C.Subproblem.to_solver ~config:Sat.Solver.default_config subs.(i mod n)))))
  in
  let frame_mb_per_s =
    probe "Protocol.frame+verify" (fun () ->
        let bytes = ref 0 in
        let n_done, dt =
          replay ~count:transfers (fun i ->
              let msg = C.Protocol.Problem { pid = (0, i); sp = subs.(i mod n); sent_at = 0. } in
              match C.Protocol.verify (C.Protocol.frame msg) with
              | `Ok _ -> bytes := !bytes + C.Protocol.size msg
              | `Corrupt _ -> failwith "probe: a freshly framed message failed verification")
        in
        if n_done = 0 then 0. else float_of_int !bytes /. 1e6 /. dt)
  in
  let dispatch_ns =
    probe "Sim.run" (fun () ->
        let count = min counts.sim_events 2_000_000 in
        if count = 0 then 0.
        else begin
          let sim = Grid.Sim.create () in
          for i = 0 to count - 1 do
            ignore (Grid.Sim.schedule sim ~delay:(float_of_int (i mod 97) *. 0.01) ignore)
          done;
          let (), c = M.timed (fun () -> Grid.Sim.run sim ~until:infinity) in
          c.M.wall_s *. 1e9 /. float_of_int count
        end)
  in
  let journal = C.Journal.create ~compact_every:C.Config.default.C.Config.journal_compact_every () in
  let journal_append_us =
    probe "Journal.append" (fun () ->
        per_call ~scale:1e6
          (replay ~count:counts.journal_appends (fun i -> C.Journal.append journal (journal_entry i))))
  in
  let journal_replay_ms =
    probe "Journal.replay" (fun () ->
        if counts.journal_appends = 0 then 0.
        else
          M.median
            (List.init 5 (fun _ ->
                 (snd (M.timed (fun () -> ignore (C.Journal.replay journal)))).M.wall_s *. 1e3)))
  in
  let checkpoint_save_ms =
    probe "Checkpoint.save" (fun () ->
        let stores = Array.map (fun (cnf, _) -> C.Checkpoint.create cnf) solvers in
        per_call ~scale:1e3
          (replay ~count:(if n = 0 then 0 else counts.checkpoint_saves) (fun i ->
               ignore
                 (C.Checkpoint.save stores.(i mod n) ~client:(i mod 16) ~mode:C.Config.Heavy
                    subs.(i mod n)))))
  in
  let digest_us =
    probe "Cache.digest" (fun () ->
        per_call ~scale:1e6
          (replay ~count:(if n = 0 then 0 else counts.jobs) (fun i ->
               ignore (Gridsat_service.Cache.digest (fst (at i))))))
  in
  let submit_us =
    probe "Service.submit" (fun () ->
        if counts.jobs = 0 || n = 0 then 0.
        else begin
          let cfg = { Runs.serve_config with Svc.queue_capacity = counts.jobs } in
          let svc = Svc.create ~cfg ~testbed:(Runs.serve_testbed ()) () in
          per_call ~scale:1e6
            (replay ~count:counts.jobs (fun i ->
                 ignore
                   (Svc.submit svc ~tenant:Inputs.tenants.(i mod 4)
                      ~priority:Gridsat_service.Job.Normal (fst (at i)))))
        end)
  in
  let joblog_append_us =
    probe "Joblog.append" (fun () ->
        let log = Gridsat_service.Joblog.create () in
        let entries = Array.of_list counts.joblog in
        per_call ~scale:1e6
          (replay ~count:(Array.length entries) (fun i ->
               Gridsat_service.Joblog.append log entries.(i))))
  in
  let words_per_prop =
    probe "Solver.solve" (fun () ->
        if n = 0 || counts.propagations = 0 then 0.
        else begin
          let props = ref 0 and words = ref 0. and i = ref 0 in
          let t0 = M.wall () in
          while !props < counts.propagations && M.wall () -. t0 < budget_s do
            let cnf = fst (at !i) in
            let w0 = Gc.minor_words () in
            let s = Sat.Solver.create cnf in
            ignore (Sat.Solver.solve s);
            words := !words +. (Gc.minor_words () -. w0);
            props := !props + (Sat.Solver.stats s).Sat.Stats.propagations;
            incr i
          done;
          if !props = 0 then 0. else !words /. float_of_int !props
        end)
  in
  {
    frame_mb_per_s;
    capture_ms;
    to_solver_ms;
    dispatch_ns;
    journal_append_us;
    journal_replay_ms;
    checkpoint_save_ms;
    submit_us;
    digest_us;
    joblog_append_us;
    words_per_prop;
  }
