(* Determinism self-test of the benchmark, on cut-down versions of its
   workloads: the same seed must reproduce every count and virtual time
   exactly, and a different seed must change the inputs the seed is meant
   to vary. *)

open Wallbench
module C = Gridsat_core
module R = Workloads.Registry

let fast_rows =
  List.filter_map R.find [ "glassy-sat-sel_N210_n.cnf"; "lisa20_1_a.cnf"; "ezfact48_5.cnf" ]

let small_serve = { Inputs.serve_full with Inputs.jobs = 120; repeat_min_back = 16 }

let workloads =
  [
    ("table1-zchaff", fun ~seed ~obs -> Runs.table1 ~rows:fast_rows Runs.Zchaff ~seed ~obs);
    ("table1-grid", fun ~seed ~obs -> Runs.table1 ~rows:fast_rows Runs.Grid ~seed ~obs);
    ("serve-mix", fun ~seed ~obs -> Runs.serve ~shape:small_serve ~seed ~obs);
  ]

(* Everything a traced pass reports that must repeat: per-item verdicts,
   virtual times and solver counts, the program's Obs counters, and the
   run results' traffic and durability totals. *)
let observe setup ~seed =
  let obs = Obs.create () in
  let s = setup ~seed ~obs Measure.no_spans Obs.Span.none in
  let p = s.Runs.run Measure.no_spans Obs.Span.none in
  let counters =
    List.filter_map
      (fun (k, e) -> match e with Obs.Metrics.Counter n -> Some (k, n) | _ -> None)
      (Obs.Metrics.export_merged (Obs.metrics obs))
  in
  let totals =
    List.map
      (fun f -> Runs.sum_master f p.Runs.items)
      [
        (fun r -> r.C.Master.bytes);
        (fun r -> r.C.Master.messages);
        (fun r -> r.C.Master.splits);
        (fun r -> r.C.Master.ships);
        (fun r -> r.C.Master.checkpoint_bytes);
        (fun r -> r.C.Master.retries);
      ]
  in
  (Runs.fingerprint p, p.Runs.virtual_s, counters, totals)

let same_seed_repeats (name, setup) =
  Alcotest.test_case name `Quick (fun () ->
      let fp1, v1, c1, t1 = observe setup ~seed:7 in
      let fp2, v2, c2, t2 = observe setup ~seed:7 in
      Alcotest.(check string) "items" fp1 fp2;
      Alcotest.(check (float 0.)) "virtual seconds" v1 v2;
      Alcotest.(check (list (pair string int))) "obs counters" c1 c2;
      Alcotest.(check (list int)) "run totals" t1 t2)

let script (s : Inputs.serve) =
  Array.to_list
    (Array.map
       (fun (j : Inputs.job) ->
         ( j.Inputs.at,
           j.Inputs.tenant,
           Gridsat_service.Job.priority_string j.Inputs.priority,
           Gridsat_service.Cache.digest s.Inputs.instances.(j.Inputs.inst).Inputs.cnf ))
       s.Inputs.script)

let serve_inputs () =
  let a = Inputs.serve ~shape:small_serve ~seed:1 () in
  let a' = Inputs.serve ~shape:small_serve ~seed:1 () in
  let b = Inputs.serve ~shape:small_serve ~seed:2 () in
  Alcotest.(check bool) "same seed, same script" true (script a = script a');
  let times s = List.map (fun (t, _, _, _) -> t) (script s) in
  let digests s = List.map (fun (_, _, _, d) -> d) (script s) in
  Alcotest.(check bool) "arrival times change" false (times a = times b);
  Alcotest.(check bool) "instance draws change" false (digests a = digests b);
  let repeats = List.length (digests a) - List.length (List.sort_uniq compare (digests a)) in
  Alcotest.(check bool) "some instances repeat" true (repeats > 0)

let grads_traces () =
  let availability seed =
    let tb = (Inputs.table1 ~rows:[] ~seed ()).Inputs.testbed in
    List.concat_map
      (fun (h : C.Testbed.host) ->
        List.map (fun t -> Grid.Trace.availability h.C.Testbed.trace t) [ 0.; 300.; 1200. ])
      tb.C.Testbed.hosts
  in
  Alcotest.(check bool) "same seed, same traces" true (availability 1 = availability 1);
  Alcotest.(check bool) "load traces change" false (availability 1 = availability 2)

let () =
  Alcotest.run "wallbench"
    [
      ("same seed repeats", List.map same_seed_repeats workloads);
      ( "seed varies inputs",
        [
          Alcotest.test_case "serve-mix script and draws" `Quick serve_inputs;
          Alcotest.test_case "GrADS load traces" `Quick grads_traces;
        ] );
    ]
