(* One benchmark run: untraced passes for the end-to-end metrics, or an
   untraced plus a traced pass and the layer probes for the per-layer
   metrics.  Outputs are checked after the timed regions. *)

module C = Gridsat_core
module Svc = Gridsat_service.Service
module M = Measure

type metric = { name : string; value : float; unit_ : string }

type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

let m name unit_ value = { name; value; unit_ }

let count name n = m name "count" (float_of_int n)

let bytes name n = m name "bytes" (float_of_int n)

(* ---- checks ---- *)

type verdicts = { attempted : int; failed : int; wrong : int }

let check (w : Runs.workload) sp parent (p : Runs.pass) =
  let v = Verify.create () in
  let tally acc (i : Runs.item) =
    let outcome =
      M.span sp ~parent ~cause:"check" ~id:i.Runs.id "check" (fun _ ->
          match i.Runs.answer with
          | None -> Verify.Missing i.Runs.fate
          | Some a ->
              Verify.check v ~cnf:i.Runs.cnf ~status:i.Runs.status
                ?zchaff:(Option.map (fun column -> column i.Runs.cnf) w.Runs.zchaff_column)
                a)
    in
    match outcome with
    | Verify.Verified -> { acc with attempted = acc.attempted + 1 }
    | Verify.Missing why ->
        Printf.eprintf "failed: %s %s\n%!" i.Runs.id why;
        { acc with attempted = acc.attempted + 1; failed = acc.failed + 1 }
    | Verify.Wrong why ->
        Printf.eprintf "WRONG: %s %s\n%!" i.Runs.id why;
        { attempted = acc.attempted + 1; failed = acc.failed + 1; wrong = acc.wrong + 1 }
  in
  let r = List.fold_left tally { attempted = 0; failed = 0; wrong = 0 } p.Runs.items in
  if v.Verify.uncertified > 0 then
    Printf.eprintf "%d UNSAT verdicts passed every check but have proofs too long to DRUP-check\n%!"
      v.Verify.uncertified;
  r

(* ---- end-to-end ---- *)

let setup_samples = 9

(* What a pass leaves behind once the next one starts. *)
type measured = { fingerprint : string; cost : M.cost; unit_costs : M.cost list }

let end_to_end (w : Runs.workload) ~seed ~seconds =
  let setup () =
    Gc.compact ();
    M.timed (fun () -> w.Runs.setup ~seed ~obs:Obs.disabled M.no_spans Obs.Span.none)
  in
  (* a few set-ups before measuring: their times count as set-up samples
     and the heap reaches its working size before the first pass *)
  let setups = ref (List.init (setup_samples - 1) (fun _ -> (snd (setup ())).M.wall_s)) in
  (* The first pass is kept (without its run results) for the checks, and
     the heap peak is read after it: later passes would only add the
     garbage-collector pacing of however many passes fit the time. *)
  let first = ref None and heap_peak_mb = ref 0. in
  let rec loop ~measured acc =
    let s, c = setup () in
    setups := c.M.wall_s :: !setups;
    let p = s.Runs.run M.no_spans Obs.Span.none in
    if !first = None then begin
      heap_peak_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.;
      first := Some (Runs.strip p)
    end;
    Printf.eprintf "pass %d: %.3f s wall\n%!" (List.length acc + 1) p.Runs.cost.M.wall_s;
    let r =
      { fingerprint = Runs.fingerprint p; cost = p.Runs.cost; unit_costs = p.Runs.unit_costs }
    in
    let measured = measured +. c.M.wall_s +. p.Runs.cost.M.wall_s in
    if measured < seconds then loop ~measured (r :: acc) else List.rev (r :: acc)
  in
  let passes = loop ~measured:0. [] in
  let first = Option.get !first in
  let v = check w M.no_spans Obs.Span.none first in
  (* every pass sees the same inputs, so every count and virtual time
     must repeat exactly *)
  let det = List.for_all (fun r -> r.fingerprint = Runs.fingerprint first) passes in
  if not det then prerr_endline "WRONG: passes over the same inputs disagree";
  let per_unit f =
    M.sum
      (List.mapi
         (fun k _ -> M.median (List.map (fun r -> f (List.nth r.unit_costs k)) passes))
         first.Runs.unit_costs)
  in
  let wall = per_unit (fun c -> c.M.wall_s) and cpu = per_unit (fun c -> c.M.cpu_s) in
  let vtimes = List.map (fun i -> i.Runs.vtime) first.Runs.items in
  {
    correct = v.wrong = 0 && det;
    attempted = v.attempted;
    failed = v.failed;
    metrics =
      [
        m "wall_s" "s" wall;
        m "cpu_s" "s" cpu;
        m "setup_s" "s" (M.median !setups);
        m "heap_peak_mb" "MB" !heap_peak_mb;
        m "verified_frac" "ratio"
          (float_of_int (v.attempted - v.failed) /. float_of_int (max 1 v.attempted));
        m "virtual_s" "vs" first.Runs.virtual_s;
        m "job_p50_vs" "vs" (M.quantile vtimes 0.5);
        m "job_p99_vs" "vs" (M.quantile vtimes 0.99);
      ];
  }

(* ---- per-layer ---- *)

let counter exported name =
  List.fold_left
    (fun n (k, e) -> match e with Obs.Metrics.Counter c when k = name -> n + c | _ -> n)
    0 exported

let per_layer (w : Runs.workload) ~seed =
  let sp = M.live_spans () in
  let result =
    M.span sp ~cause:"measure" ~id:w.Runs.name "run" (fun root ->
      Gc.compact ();
      let plain =
        M.span sp ~parent:root ~cause:"measure" "untraced pass" (fun _ ->
            let s = w.Runs.setup ~seed ~obs:Obs.disabled M.no_spans Obs.Span.none in
            s.Runs.run M.no_spans Obs.Span.none)
      in
      (* traced pass: program counters through Obs, benchmark spans around
         every layer call *)
      Gc.compact ();
      let obs = Obs.create () in
      let s_traced = w.Runs.setup ~seed ~obs sp root in
      let p = s_traced.Runs.run sp root in
      let items = p.Runs.items in
      let stats = Runs.summed_stats plain.Runs.items in
      let joblog, svc_stats, waits =
        match p.Runs.service with
        | Some { Runs.svc; queue_waits } ->
            (Gridsat_service.Joblog.entries (Svc.joblog svc), Some (Svc.stats svc), queue_waits)
        | None -> ([], None, [])
      in
      let obs_counter = counter (Obs.Metrics.export_merged (Obs.metrics obs)) in
      let sim_events = obs_counter "sim.events" in
      let counts =
        {
          Probes.problems = obs_counter "client.problems.received";
          sim_events;
          journal_appends = obs_counter "journal.appends";
          checkpoint_saves = obs_counter "checkpoint.saves";
          jobs = (match svc_stats with Some st -> st.Svc.submitted | None -> 0);
          joblog;
          propagations = stats.Sat.Stats.propagations;
        }
      in
      let probes = Probes.run sp root ~counts ~formulas:s_traced.Runs.formulas in
      let v = check w sp root p in
      let det = Runs.fingerprint plain = Runs.fingerprint p in
      if not det then prerr_endline "WRONG: traced and untraced passes disagree";
      let sum_master f = Runs.sum_master f items in
      let self_s = stats.Sat.Stats.total_seconds in
      let ratio a b = if b = 0. then 0. else a /. b in
      {
        correct = v.wrong = 0 && det;
        attempted = v.attempted;
        failed = v.failed;
        metrics =
          [
            m "solver.props_per_s" "1/s" (ratio (float_of_int stats.Sat.Stats.propagations) self_s);
            m "solver.words_per_prop" "words" probes.Probes.words_per_prop;
            m "solver.bcp_share" "ratio" (ratio stats.Sat.Stats.bcp_seconds self_s);
            m "solver.self_s" "s" self_s;
            count "solver.propagations" stats.Sat.Stats.propagations;
            count "solver.decisions" stats.Sat.Stats.decisions;
            count "solver.conflicts" stats.Sat.Stats.conflicts;
            count "solver.learned" stats.Sat.Stats.learned;
            count "solver.deleted" stats.Sat.Stats.deleted;
            m "protocol.frame_mb_per_s" "MB/s" probes.Probes.frame_mb_per_s;
            m "subproblem.capture_ms" "ms" probes.Probes.capture_ms;
            m "subproblem.to_solver_ms" "ms" probes.Probes.to_solver_ms;
            bytes "net.bytes" (sum_master (fun r -> r.C.Master.bytes));
            count "net.messages" (sum_master (fun r -> r.C.Master.messages));
            m "run.nonsolver_s" "s" (plain.Runs.cost.M.wall_s -. self_s);
            count "sim.events" sim_events;
            m "sim.dispatch_ns" "ns" probes.Probes.dispatch_ns;
            m "gc.words_per_event" "words" (ratio plain.Runs.minor_words (float_of_int sim_events));
            count "master.splits" (sum_master (fun r -> r.C.Master.splits));
            count "master.splits_denied" (obs_counter "master.splits.denied");
            count "master.shares_relayed" (obs_counter "master.shares.relayed");
            count "client.problems_received" counts.Probes.problems;
            count "reliable.retries" (sum_master (fun r -> r.C.Master.retries));
            count "journal.appends" counts.Probes.journal_appends;
            m "journal.append_us" "us" probes.Probes.journal_append_us;
            m "journal.replay_ms" "ms" probes.Probes.journal_replay_ms;
            count "replica.ships" (sum_master (fun r -> r.C.Master.ships));
            bytes "checkpoint.bytes" (sum_master (fun r -> r.C.Master.checkpoint_bytes));
            m "checkpoint.save_ms" "ms" probes.Probes.checkpoint_save_ms;
            m "service.submit_us" "us" probes.Probes.submit_us;
            m "cache.digest_us" "us" probes.Probes.digest_us;
            m "cache.hit_ratio" "ratio"
              (match svc_stats with
              | Some st -> ratio (float_of_int st.Svc.cache_hits) (float_of_int st.Svc.submitted)
              | None -> 0.);
            count "joblog.appends" (List.length joblog);
            m "joblog.append_us" "us" probes.Probes.joblog_append_us;
            m "service.queue_wait_p99_vs" "vs" (M.quantile waits 0.99);
            count "service.shed" (match svc_stats with Some st -> st.Svc.shed | None -> 0);
            m "obs.overhead_frac" "ratio"
              (ratio p.Runs.cost.M.wall_s plain.Runs.cost.M.wall_s -. 1.);
            m "gc.minor_words" "words" plain.Runs.minor_words;
            count "gc.major_collections" plain.Runs.major_collections;
          ];
      })
  in
  let path = Printf.sprintf "_wallbench/%s-seed%d.json" w.Runs.name seed in
  let self = M.write_spans sp ~path in
  Printf.eprintf "spans: %s; self seconds per layer:\n" path;
  List.iter (fun (k, x) -> Printf.eprintf "  %-24s %.4f\n" k x) self;
  result

(* ---- output ---- *)

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let to_json t =
  let metric x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" t.correct
    t.attempted t.failed
    (String.concat ", " (List.map metric t.metrics))
