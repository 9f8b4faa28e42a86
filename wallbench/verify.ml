(* Output checks, run outside every timed region.

   A SAT verdict must come with a model that satisfies the formula the
   program received.  An UNSAT verdict must agree with the status the
   input is known to have and with the sequential zChaff-model column,
   and is certified by an independent DRUP check: a separate solve logs
   a proof, and [Sat.Drup.check] replays it against the original
   formula. *)

module C = Gridsat_core

type outcome =
  | Verified
  | Missing of string  (** no usable verdict: timeout, shed, cancelled... *)
  | Wrong of string  (** a verdict the checks refute *)

(* [Sat.Drup.check] re-propagates the whole clause set for every proof
   step, so its cost grows with the square of the proof: 4k-step proofs
   take 12-15 s and homer11's 72k steps do not finish in 180 s.  Longer
   proofs are left uncertified (the verdict must still agree with the
   known status, the zChaff column and an independent solve). *)
let max_proof_steps = 20_000

(* A proof-logging solve of [cnf] (zChaff-model settings: no clause
   deletion, so the proof is additions only) with its proof checked;
   also returns the proof's length. *)
let drup_certifies cnf =
  let config =
    { Sat.Solver.default_config with Sat.Solver.emit_proof = true; reduce_db_enabled = false }
  in
  let s = Sat.Solver.create ~config cnf in
  match Sat.Solver.solve s with
  | Sat.Solver.Unsat ->
      let proof = Sat.Solver.proof s in
      let steps = List.length proof in
      if steps > max_proof_steps then (Ok `Uncertified, steps)
      else (
        match Sat.Drup.check cnf proof with
        | Ok () -> (Ok `Certified, steps)
        | Error e -> (Error ("DRUP check failed: " ^ e), steps))
  | Sat.Solver.Sat _ -> (Error "independent solve found a model", 0)
  | Sat.Solver.Budget_exhausted | Sat.Solver.Mem_pressure -> (Error "independent solve gave up", 0)

(* Certification depends on the formula alone, so a formula whose proof
   is long enough to cost seconds (1000 steps or more) is certified once
   per checkout: the result is kept under _wallbench/, keyed by a digest
   of the clauses, and later runs read it back.  Shorter proofs are
   re-checked every run, and a failure is never kept. *)
let certified_dir = "_wallbench/certified"

let keep_from_steps = 1000

let certify cnf =
  let key =
    Digest.to_hex (Digest.string (Marshal.to_string (Sat.Cnf.nvars cnf, Sat.Cnf.clauses cnf) []))
  in
  let file = Filename.concat certified_dir key in
  match In_channel.with_open_text file In_channel.input_all with
  | "certified" -> Ok `Certified
  | "uncertified" -> Ok `Uncertified
  | _ | (exception Sys_error _) ->
      let r, steps = drup_certifies cnf in
      (match r with
      | Ok v when steps >= keep_from_steps ->
          List.iter
            (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
            [ Filename.dirname certified_dir; certified_dir ];
          Out_channel.with_open_text file (fun oc ->
              output_string oc
                (match v with `Certified -> "certified" | `Uncertified -> "uncertified"))
      | _ -> ());
      r

type t = { mutable uncertified : int  (** UNSAT verdicts whose proof was too long to check *) }

let create () = { uncertified = 0 }

(* [check t ~cnf ~status ?zchaff answer]: [status] is what the input is
   known to be ([`Open] when unknown); [zchaff] is the
   sequential column's verdict when the workload has one. *)
let check t ~cnf ~status ?zchaff (answer : C.Master.answer) =
  match answer with
  | C.Master.Unknown reason -> Missing ("no verdict: " ^ reason)
  | C.Master.Sat m ->
      if status = `Unsat then Wrong "SAT verdict on an UNSAT input"
      else if Sat.Model.nvars m < Sat.Cnf.nvars cnf || not (Sat.Model.satisfies cnf m) then
        Wrong "model does not satisfy the formula"
      else Verified
  | C.Master.Unsat -> (
      if status = `Sat then Wrong "UNSAT verdict on a SAT input"
      else
        match zchaff with
        | Some (C.Master.Sat _) -> Wrong "UNSAT verdict where zChaff found a model"
        | _ -> (
            match certify cnf with
            | Ok `Certified -> Verified
            | Ok `Uncertified ->
                t.uncertified <- t.uncertified + 1;
                Verified
            | Error e -> Wrong e))

let baseline_answer (b : C.Baseline.run) =
  match b.C.Baseline.outcome with
  | C.Baseline.Sat m -> C.Master.Sat m
  | C.Baseline.Unsat -> C.Master.Unsat
  | C.Baseline.Timeout -> C.Master.Unknown "timeout"
  | C.Baseline.Memout -> C.Master.Unknown "memout"
