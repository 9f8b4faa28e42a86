(* The three workloads.  A pass sets the workload up from the seed, then
   drives the program through it once; every pass of a run sees the same
   inputs and must produce the same virtual results. *)

module C = Gridsat_core
module R = Workloads.Registry
module Svc = Gridsat_service.Service
module Job = Gridsat_service.Job
module M = Measure

(* One row (Table 1) or job (serve-mix) and what the program made of it. *)
type item = {
  id : string;
  cnf : Sat.Cnf.t;
  status : [ `Sat | `Unsat | `Open ];
  answer : C.Master.answer option;  (** [None]: shed, cancelled or expired *)
  fate : string;  (** terminal rendering, for reports and fingerprints *)
  vtime : float;  (** virtual seconds from submission to terminal *)
  stats : Sat.Stats.t;  (** solver work spent on it (zero for cache hits) *)
  master : C.Master.result option;
  cost : M.cost;  (** wall/CPU of its solve (Table 1 rows only) *)
}

type service_view = { svc : Svc.t; queue_waits : float list }

type pass = {
  items : item list;
  cost : M.cost;
  unit_costs : M.cost list;
      (** the pass split into the units a run takes medians over: one
          per Table 1 row; the whole pass for serve-mix *)
  virtual_s : float;
  minor_words : float;
  major_collections : int;
  service : service_view option;
}

type setup = {
  run : M.spans -> Obs.Span.id -> pass;  (** drives the prepared inputs once *)
  formulas : Sat.Cnf.t list;  (** distinct instances, for probes *)
}

type workload = {
  name : string;
  setup : seed:int -> obs:Obs.t -> M.spans -> Obs.Span.id -> setup;
  zchaff_column : (Sat.Cnf.t -> C.Master.answer) option;
      (** the sequential verdict an UNSAT answer must agree with, for a
          workload whose own answers do not already form that column *)
}

let zero_cost = { M.wall_s = 0.; cpu_s = 0. }

let gc_around f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

let status_of (e : R.entry) =
  match e.R.status with R.Sat -> `Sat | R.Unsat -> `Unsat | R.Open -> `Open

(* ---- Table 1: a closed loop, one row at a time ---- *)

type solver_column = Zchaff | Grid

let table1_row column (inputs : Inputs.table1) ~obs (e : R.entry) cnf =
  match column with
  | Zchaff ->
      let b =
        C.Baseline.run ~timeout:Bench_lib.Scale.zchaff_timeout
          ~host:(C.Testbed.fastest inputs.Inputs.testbed) cnf
      in
      (Verify.baseline_answer b, b.C.Baseline.time, b.C.Baseline.stats, None)
  | Grid ->
      let config = Bench_lib.Scale.t1_config ~timeout:(Bench_lib.Scale.row_timeout e) in
      let g = C.Gridsat.solve ~obs ~config ~testbed:inputs.Inputs.testbed cnf in
      (g.C.Master.answer, g.C.Master.time, g.C.Master.solver_stats, Some g)

let table1 ?rows column ~seed ~obs sp parent =
  let inputs =
    M.span sp ~parent ~cause:"setup" "generate" (fun _ -> Inputs.table1 ?rows ~seed ())
  in
  let layer = match column with Zchaff -> "Baseline.run" | Grid -> "Gridsat.solve" in
  let run sp parent =
    let rows, minor_words, major_collections =
      gc_around (fun () ->
          List.map
            (fun ((e : R.entry), cnf) ->
              let (answer, vtime, stats, master), cost =
                M.span sp ~parent ~cause:"measure" ~id:e.R.name layer (fun _ ->
                    M.timed (fun () -> table1_row column inputs ~obs e cnf))
              in
              {
                id = e.R.name;
                cnf;
                status = status_of e;
                answer = Some answer;
                fate = C.Gridsat.answer_string answer;
                vtime;
                stats;
                master;
                cost;
              })
            inputs.Inputs.rows)
    in
    {
      items = rows;
      cost =
        {
          M.wall_s = M.sum (List.map (fun (i : item) -> i.cost.M.wall_s) rows);
          cpu_s = M.sum (List.map (fun (i : item) -> i.cost.M.cpu_s) rows);
        };
      unit_costs = List.map (fun (i : item) -> i.cost) rows;
      virtual_s = M.sum (List.map (fun i -> i.vtime) rows);
      minor_words;
      major_collections;
      service = None;
    }
  in
  { run; formulas = List.map snd inputs.Inputs.rows }

(* ---- serve-mix: an open loop in virtual time ---- *)

(* 16 uniform hosts, 2 per job, 8 runs at once.  Every run is
   standby-backed with synchronous journal shipping and heavy
   checkpoints, so the service, simulator, journal, replica and
   checkpoint write paths all carry load. *)
let serve_testbed () = C.Testbed.uniform ~n:16 ~speed:200. ()

let serve_config =
  {
    Svc.default_config with
    Svc.hosts_per_job = 2;
    max_concurrent = 8;
    queue_capacity = 256;
    run =
      {
        C.Config.default with
        C.Config.standby = true;
        ship_sync = true;
        checkpoint = C.Config.Heavy;
        checkpoint_period = 1.;
        split_timeout = 2.;
        slice = 0.5;
      };
  }

let serve ?shape ~seed ~obs sp parent =
  let inputs = M.span sp ~parent ~cause:"setup" "generate" (fun _ -> Inputs.serve ?shape ~seed ()) in
  let svc =
    M.span sp ~parent ~cause:"setup" "Service.create" (fun _ ->
        Svc.create ~obs ~cfg:serve_config ~testbed:(serve_testbed ()) ())
  in
  M.span sp ~parent ~cause:"setup" "Service.submit_at" (fun _ ->
      Array.iteri
        (fun i (j : Inputs.job) ->
          Svc.submit_at svc ~at:j.Inputs.at ~tenant:j.Inputs.tenant ~priority:j.Inputs.priority
            ~label:(string_of_int i) inputs.Inputs.instances.(j.Inputs.inst).Inputs.cnf)
        inputs.Inputs.script);
  let run sp parent =
    let ((), minor_words, major_collections), cost =
      M.span sp ~parent ~cause:"measure" "Service.run" (fun _ ->
          M.timed (fun () -> gc_around (fun () -> Svc.run svc)))
    in
    let items =
      List.map
        (fun (job : Job.t) ->
          let inst =
            inputs.Inputs.instances.(inputs.Inputs.script.(int_of_string job.Job.label).Inputs.inst)
          in
          let answer, fate =
            match job.Job.state with
            | Job.Done (Job.Verdict a | Job.Cached a) -> (Some a, Job.state_string job.Job.state)
            | s -> (None, Job.state_string s)
          in
          {
            id = job.Job.label;
            cnf = inst.Inputs.cnf;
            status = inst.Inputs.status;
            answer;
            fate;
            vtime =
              (match job.Job.finished_at with
              | Some f -> f -. job.Job.submitted_at
              | None -> infinity);
            stats =
              (match job.Job.result with
              | Some r -> r.C.Master.solver_stats
              | None -> Sat.Stats.create ());
            master = job.Job.result;
            cost = zero_cost;
          })
        (Svc.jobs svc)
    in
    let queue_waits =
      List.filter_map
        (fun (j : Job.t) -> Option.map (fun s -> s -. j.Job.submitted_at) j.Job.started_at)
        (Svc.jobs svc)
    in
    {
      items;
      cost;
      unit_costs = [ cost ];
      virtual_s = Grid.Sim.now (Svc.sim svc);
      minor_words;
      major_collections;
      service = Some { svc; queue_waits };
    }
  in
  {
    run;
    formulas = Array.to_list (Array.map (fun (i : Inputs.instance) -> i.Inputs.cnf) inputs.Inputs.instances);
  }

(* The baseline runs dedicated, so any GrADS load traces give the same
   column. *)
let zchaff_column cnf =
  let host = C.Testbed.fastest (Bench_lib.Scale.grads ()) in
  Verify.baseline_answer (C.Baseline.run ~timeout:Bench_lib.Scale.zchaff_timeout ~host cnf)

let all =
  [
    {
      name = "table1-zchaff";
      setup = (fun ~seed ~obs sp id -> table1 Zchaff ~seed ~obs sp id);
      zchaff_column = None;
    };
    {
      name = "table1-grid";
      setup = (fun ~seed ~obs sp id -> table1 Grid ~seed ~obs sp id);
      zchaff_column = Some zchaff_column;
    };
    {
      name = "serve-mix";
      setup = (fun ~seed ~obs sp id -> serve ~seed ~obs sp id);
      zchaff_column = None;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ---- what a pass produced, reduced to what must repeat exactly ---- *)

let summed_stats items =
  let acc = Sat.Stats.create () in
  List.iter (fun i -> Sat.Stats.add acc i.stats) items;
  acc

let sum_master f items =
  List.fold_left (fun n i -> match i.master with Some r -> n + f r | None -> n) 0 items

(* Drops the run results and the service, keeping what checks and
   end-to-end metrics read. *)
let strip p =
  { p with items = List.map (fun i -> { i with master = None }) p.items; service = None }

let fingerprint p =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%h|" p.virtual_s;
  List.iter
    (fun i ->
      Printf.bprintf b "%s:%s:%h:%d:%d:%d:%d:%d;" i.id i.fate i.vtime i.stats.Sat.Stats.propagations
        i.stats.Sat.Stats.decisions i.stats.Sat.Stats.conflicts
        i.stats.Sat.Stats.learned i.stats.Sat.Stats.deleted)
    p.items;
  Digest.to_hex (Digest.string (Buffer.contents b))
