module T = Sat.Types

type t = {
  nvars : int;
  facts : T.lit list;
  path : T.lit list;
  clauses : T.lit array list;
}

let initial cnf =
  { nvars = Sat.Cnf.nvars cnf; facts = []; path = []; clauses = Sat.Cnf.clauses cnf }

let nclauses t = List.length t.clauses

let depth t = List.length t.path

let bytes t =
  let clause_bytes = List.fold_left (fun acc c -> acc + 48 + (8 * Array.length c)) 0 t.clauses in
  clause_bytes + (8 * (List.length t.facts + List.length t.path)) + 64

let to_solver ~config ?obs ?obs_tid t =
  let cnf = Sat.Cnf.of_lit_arrays ~nvars:t.nvars t.clauses in
  Sat.Solver.create_with_roots ~config ?obs ?obs_tid ~facts:t.facts cnf t.path

let capture solver =
  {
    nvars = Sat.Solver.nvars solver;
    facts = Sat.Solver.root_facts solver;
    path = Sat.Solver.root_path solver;
    clauses = Sat.Solver.active_clauses solver;
  }

let prune t =
  let root = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace root l ()) t.facts;
  List.iter (fun l -> Hashtbl.replace root l ()) t.path;
  let fact_vars = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace fact_vars (T.var l) ()) t.facts;
  let satisfied c = Array.exists (fun l -> Hashtbl.mem root l) c in
  let strippable l = Hashtbl.mem root (T.negate l) && Hashtbl.mem fact_vars (T.var l) in
  let simplify c =
    if satisfied c then None
    else Some (Array.of_list (List.filter (fun l -> not (strippable l)) (Array.to_list c)))
  in
  { t with clauses = List.filter_map simplify t.clauses }

(* A subproblem is fully determined by the original formula and its
   guiding path (the paper's Figure 2 invariant): root facts are globally
   implied (the solver re-derives them by propagation) and learned clauses
   are only accelerants.  So the lineage alone reconstructs the branch. *)
let of_lineage cnf path =
  prune { nvars = Sat.Cnf.nvars cnf; facts = []; path; clauses = Sat.Cnf.clauses cnf }

let split_from solver =
  let clauses = Sat.Solver.active_clauses solver in
  match Sat.Solver.split solver with
  | None -> None
  | Some (facts, path) -> Some (prune { nvars = Sat.Solver.nvars solver; facts; path; clauses })

(* Certified transfers must stay lineage-pure: the travelling clause set is
   the clause set this client itself received (inductively, a subset of the
   original formula — [prune] with no facts only drops satisfied clauses,
   it never strips literals), and no root facts travel, so the receiver's
   whole root state is exactly its guiding path.  The master can then check
   the receiver's eventual DRUP fragment against the original CNF under
   the journaled path alone. *)
let split_pure ~origin solver =
  match Sat.Solver.split solver with
  | None -> None
  | Some (_facts, path) ->
      Some (prune { nvars = origin.nvars; facts = []; path; clauses = origin.clauses })

let capture_pure ~origin solver =
  prune
    {
      nvars = origin.nvars;
      facts = [];
      path = Sat.Solver.root_path solver;
      clauses = origin.clauses;
    }

(* Field order: nvars, facts, path, clauses — the order of the record. *)
let encode c t =
  Codec.int c t.nvars;
  Codec.ints c t.facts;
  Codec.ints c t.path;
  Codec.int_arrays c t.clauses

let pp ppf t =
  Format.fprintf ppf "subproblem: %d vars, %d clauses, %d facts, path depth %d (%d bytes)"
    t.nvars (nclauses t) (List.length t.facts) (depth t) (bytes t)
