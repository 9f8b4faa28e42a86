(* Workload inputs, generated from the benchmark seed.  The program under
   test only ever sees what these functions return: formulas, a testbed
   and (for serve-mix) a submission script. *)

module R = Workloads.Registry
module C = Gridsat_core
module Job = Gridsat_service.Job

(* ---- Table 1 ---- *)

(* The `bench quick` filter: rows whose paper zChaff time is under
   3000 s (15 rows). *)
let table1_rows =
  List.filter
    (fun (e : R.entry) ->
      match e.R.paper_zchaff with
      | R.Seconds s -> s < 3_000.
      | R.Timeout | R.Memout | R.Hours_bh -> false)
    R.table1

type table1 = {
  rows : (R.entry * Sat.Cnf.t) list;
  testbed : C.Testbed.t;  (** scaled 34-host GrADS; the seed picks its load traces *)
}

let table1 ?(rows = table1_rows) ~seed () =
  {
    rows = List.map (fun (e : R.entry) -> (e, e.R.gen ())) rows;
    testbed = Bench_lib.Scale.scale_memory (C.Testbed.grads ~seed ());
  }

(* ---- serve-mix ---- *)

type instance = {
  cnf : Sat.Cnf.t;
  status : [ `Sat | `Unsat | `Open ];  (** what the generator guarantees *)
}

type job = {
  at : float;  (** virtual submission time *)
  tenant : string;
  priority : Job.priority;
  inst : int;  (** index into [instances]; repeats share an index *)
}

type serve = { instances : instance array; script : job array }

type serve_shape = {
  jobs : int;
  gap : float;  (** mean virtual inter-arrival gap; each gap is drawn within ±50% of it *)
  repeat_p : float;  (** share of jobs that resubmit an earlier instance *)
  repeat_min_back : int;
      (** a repeat reuses an instance submitted at least this many jobs
          earlier, so its first run has finished and the cache can serve it *)
}

(* With this instance mix a run holds its 2 hosts for 2.75 virtual
   seconds on average, so the 8 run slots complete about 2.9 runs per
   virtual second.  A quarter of the jobs are cache hits, and a 0.33 s
   mean gap loads the slots to about 80%: a short queue forms (p99 wait
   about 2 virtual seconds) and the 256-slot admission queue never sheds.
   Closer to capacity the queueing tail, and with it job_p99_vs, swings
   with the seed. *)
let serve_full = { jobs = 3000; gap = 0.33; repeat_p = 0.25; repeat_min_back = 64 }

let tenants = [| "t0"; "t1"; "t2"; "t3" |]

let draw_instance st =
  let seed = Random.State.bits st in
  match Random.State.int st 3 with
  | 0 ->
      {
        cnf = Workloads.Random_sat.planted ~nvars:(40 + Random.State.int st 21) ~ratio:4.26 ~seed ();
        status = `Sat;
      }
  | 1 ->
      {
        cnf =
          Workloads.Coloring.random_graph ~n:(30 + Random.State.int st 10) ~avg_degree:4.2
            ~colors:3 ~seed;
        status = `Open;
      }
  | _ ->
      {
        cnf = Workloads.Random_sat.instance ~nvars:(30 + Random.State.int st 11) ~ratio:5.0 ~seed ();
        status = `Open;
      }

let serve ?(shape = serve_full) ~seed () =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let instances = ref [] and n_inst = ref 0 in
  let script = Array.make shape.jobs { at = 0.; tenant = ""; priority = Job.Normal; inst = 0 } in
  let clock = ref 0. in
  for i = 0 to shape.jobs - 1 do
    clock := !clock +. (shape.gap *. (0.5 +. Random.State.float st 1.0));
    let tenant = tenants.(Random.State.int st (Array.length tenants)) in
    let priority = if Random.State.int st 7 = 0 then Job.High else Job.Normal in
    let inst =
      if i >= shape.repeat_min_back && Random.State.float st 1.0 < shape.repeat_p then
        script.(Random.State.int st (i - shape.repeat_min_back + 1)).inst
      else begin
        instances := draw_instance st :: !instances;
        incr n_inst;
        !n_inst - 1
      end
    in
    script.(i) <- { at = !clock; tenant; priority; inst }
  done;
  { instances = Array.of_list (List.rev !instances); script }
