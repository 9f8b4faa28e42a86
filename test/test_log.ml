(* One property suite over the sealed append-log, run for both of its
   users: the master's run journal and the service's job log.  Random
   appends are mixed with rot injection, quota changes and replays, and
   every step is checked against a model that knows which records were
   folded into the snapshot, which are still pending, and which rotted. *)

module C = Gridsat_core
module S = Gridsat_service
module G = QCheck.Gen

module type LOG = sig
  type entry

  type state

  type t

  val name : string

  val gen_entry : entry G.t

  val make : compact_every:int -> t

  val compacts : bool

  val empty_state : unit -> state

  val apply : state -> entry -> unit

  val digest : state -> string

  val compactions : t -> int

  include C.Sealed_log.S with type entry := entry and type state := state and type t := t
end

module Make (L : LOG) : sig
  val suite : string * unit Alcotest.test_case list
end = struct
  type op = Append of L.entry | Corrupt of int | Set_quota of int | Replay

  let gen_op =
    G.frequency
      [
        (8, G.map (fun e -> Append e) L.gen_entry);
        (1, G.map (fun n -> Corrupt n) (G.int_range 1 4));
        (1, G.map (fun q -> Set_quota q) (G.oneof [ G.return 0; G.int_range 1 600 ]));
        (1, G.return Replay);
      ]

  let show = function
    | Append _ -> "append"
    | Corrupt n -> Printf.sprintf "corrupt %d" n
    | Set_quota q -> Printf.sprintf "quota %d" q
    | Replay -> "replay"

  let arb_ops =
    QCheck.make
      ~print:(fun (ce, ops) ->
        Printf.sprintf "compact_every=%d [%s]" ce (String.concat "; " (List.map show ops)))
      ~shrink:QCheck.Shrink.(pair nil list)
      G.(pair (oneofl [ 1; 2; 3; 7; 1000 ]) (list_size (int_bound 120) gen_op))

  (* The model: records folded into the snapshot (newest first) and the
     pending records (newest first), each with a rotted flag. *)
  type model = {
    mutable folded : L.entry list;
    mutable pending : (L.entry * bool) list;
    mutable appended : int;
    mutable dropped : int;
    mutable degraded_entries : int;
    mutable compactions : int;
  }

  let scrub m =
    let ok, bad = List.partition (fun (_, rotted) -> not rotted) m.pending in
    m.dropped <- m.dropped + List.length bad;
    m.pending <- ok

  let expected m =
    let st = L.empty_state () in
    List.iter (L.apply st) (List.rev m.folded);
    List.iter (fun (e, _) -> L.apply st e) (List.rev m.pending);
    st

  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt

  let over_quota log = L.quota log > 0 && L.occupancy log > L.quota log

  let prop_model (compact_every, ops) =
    let log = L.make ~compact_every in
    let m =
      { folded = []; pending = []; appended = 0; dropped = 0; degraded_entries = 0; compactions = 0 }
    in
    (* a compaction scrubs, then folds every surviving pending record; a
       second compaction in the same call finds nothing left to fold *)
    let sync_compactions () =
      if L.compactions log > m.compactions then begin
        m.compactions <- L.compactions log;
        scrub m;
        m.folded <- List.map fst m.pending @ m.folded;
        m.pending <- []
      end
    in
    List.iteri
      (fun step op ->
        let degraded_before = L.degraded log in
        (match op with
        | Append e ->
            L.append log e;
            m.pending <- (e, false) :: m.pending;
            m.appended <- m.appended + 1;
            sync_compactions ();
            if L.degraded log then m.degraded_entries <- m.degraded_entries + 1
        | Set_quota quota ->
            L.set_quota log ~quota;
            sync_compactions ()
        | Corrupt n ->
            L.corrupt_tail log ~n;
            m.pending <- List.mapi (fun i (e, rotted) -> (e, rotted || i < n)) m.pending
        | Replay ->
            let got = L.digest (L.replay log) in
            scrub m;
            if got <> L.digest (expected m) then
              fail "step %d: replay digest differs from the model" step);
        (match op with
        | Append _ | Set_quota _ ->
            if L.degraded log <> over_quota log then
              fail "step %d: degraded=%b but occupancy %d against quota %d" step (L.degraded log)
                (L.occupancy log) (L.quota log);
            (* a compacting log compacts before it degrades *)
            if L.compacts && L.degraded log && (not degraded_before) && L.entries log <> [] then
              fail "step %d: degraded with records left to compact" step
        | Corrupt _ | Replay ->
            if L.degraded log <> degraded_before then
              fail "step %d: degraded changed outside append/set_quota" step);
        if L.appended log <> m.appended then
          fail "step %d: appended %d, model %d" step (L.appended log) m.appended;
        if L.records_dropped log <> m.dropped then
          fail "step %d: records_dropped %d, model %d" step (L.records_dropped log) m.dropped;
        if L.degraded_entries log <> m.degraded_entries then
          fail "step %d: degraded_entries %d, model %d" step (L.degraded_entries log)
            m.degraded_entries;
        if L.bytes_peak log < L.occupancy log then
          fail "step %d: peak %d below occupancy %d" step (L.bytes_peak log) (L.occupancy log);
        if L.entries log <> List.rev_map fst m.pending then
          fail "step %d: entries differ from the model" step)
      ops;
    let got = L.digest (L.replay log) in
    scrub m;
    got = L.digest (expected m)

  (* Compaction timing is invisible to replay: without rot (which only
     reaches records not yet compacted), the same appends and quota
     changes replay to the same state however often the log compacts. *)
  let prop_compaction_invisible (_, ops) =
    let run compact_every =
      let log = L.make ~compact_every in
      List.iter
        (function
          | Append e -> L.append log e
          | Set_quota quota -> L.set_quota log ~quota
          | Corrupt _ | Replay -> ())
        ops;
      L.digest (L.replay log)
    in
    run 1 = run 1000

  let suite =
    ( L.name,
      List.map QCheck_alcotest.to_alcotest
        [
          QCheck.Test.make ~count:300 ~name:"log agrees with its model" arb_ops prop_model;
          QCheck.Test.make ~count:200 ~name:"replay digest independent of compact_every" arb_ops
            prop_compaction_invisible;
        ] )
end

let lits =
  let lit v = Sat.Types.lit_of_int (if v mod 2 = 0 then v + 1 else -v) in
  G.(list_size (int_bound 4) (map lit (int_bound 20)))

let pid = G.(pair (int_bound 3) (int_bound 20))

let small = G.int_bound 7

module Journal_log = struct
  include C.Journal

  let name = "journal"

  let make ~compact_every = create ~compact_every ()

  let compacts = true

  let gen_entry =
    G.(
      oneof
        [
          map (fun client -> Registered { client }) small;
          map3 (fun pid dst path -> Assigned { pid; dst; path }) pid small lits;
          map2 (fun pid client -> Started { pid; client }) pid small;
          map2 (fun requester partner -> Granted { requester; partner }) small small;
          map3
            (fun (donor, donor_pid) donor_path (pid, dst, path) ->
              Split { donor; donor_pid; donor_path; pid; dst; path })
            (pair small pid) lits (triple pid small lits);
          map (fun pid -> Refuted { pid }) pid;
          map (fun clauses -> Shared { clauses }) (int_bound 50);
          map (fun client -> Suspected { client }) small;
          map (fun client -> Died { client }) small;
          map3 (fun pid client path -> Adopted { pid; client; path }) pid small lits;
          map (fun answer -> Verdict { answer }) (oneofl [ "SAT"; "UNSAT" ]);
        ])
end

module Joblog_log = struct
  include S.Joblog

  let name = "joblog"

  let make ~compact_every:_ = create ()

  let compacts = false

  let compactions _ = 0

  let gen_entry =
    let id = G.int_bound 15 and word = G.oneofl [ "a"; "bb"; "ccc" ] in
    G.(
      oneof
        [
          map3
            (fun id tenant (priority, digest, deadline) ->
              Submitted { id; tenant; priority; digest; deadline })
            id word
            (triple word word (opt (float_bound_inclusive 100.)));
          map (fun id -> Admitted { id }) id;
          map2 (fun id retry_after -> Shed { id; retry_after }) id (float_bound_inclusive 60.);
          map2 (fun id answer -> Cache_hit { id; answer }) id word;
          map2 (fun id hosts -> Started { id; hosts }) id (list_size (int_bound 3) small);
          map2 (fun id reason -> Requeued { id; reason }) id word;
          map2 (fun id terminal -> Finished { id; terminal }) id word;
        ])
end

module Journal_suite = Make (Journal_log)
module Joblog_suite = Make (Joblog_log)

let () = Alcotest.run "log" [ Journal_suite.suite; Joblog_suite.suite ]
