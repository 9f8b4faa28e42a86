type t = {
  nvars : int;
  clauses : Types.lit array list; (* reversed insertion order is fine *)
  nliterals : int;
  dropped : int;
  has_empty : bool;
}

(* Normalise a clause: a sorted copy with duplicates removed in place;
   after sorting, a literal and its complement are adjacent ([l] and
   [l lxor 1]), so a tautology shows in one pass.  [stable_sort], not
   [sort]: the library heap sort raises an allocated exception at every
   sift-down and takes about twice as long on 2- and 3-literal clauses. *)
let normalise arr =
  let c = Array.copy arr in
  Array.stable_sort Int.compare c;
  let n = Array.length c in
  let k = ref 0 and tautology = ref false in
  for i = 0 to n - 1 do
    let l = c.(i) in
    if !k = 0 || c.(!k - 1) <> l then begin
      if !k > 0 && c.(!k - 1) lxor l = 1 then tautology := true;
      c.(!k) <- l;
      incr k
    end
  done;
  if !tautology then None else if !k = n then Some c else Some (Array.sub c 0 !k)

let check_lit ~nvars l =
  let v = Types.var l in
  if v < 1 || v > nvars then
    invalid_arg
      (Printf.sprintf "Cnf: literal %d out of range (nvars = %d)" (Types.to_int l) nvars)

let of_lit_arrays ~nvars arrays =
  if nvars < 0 then invalid_arg "Cnf: negative nvars";
  let clauses = ref [] and nliterals = ref 0 and dropped = ref 0 and has_empty = ref false in
  let add_clause arr =
    for i = 0 to Array.length arr - 1 do
      check_lit ~nvars arr.(i)
    done;
    match normalise arr with
    | None -> incr dropped
    | Some c ->
        if Array.length c = 0 then has_empty := true;
        nliterals := !nliterals + Array.length c;
        clauses := c :: !clauses
  in
  List.iter add_clause arrays;
  {
    nvars;
    clauses = List.rev !clauses;
    nliterals = !nliterals;
    dropped = !dropped;
    has_empty = !has_empty;
  }

let make ~nvars clauses =
  let encode c = Array.of_list (List.map Types.lit_of_int c) in
  of_lit_arrays ~nvars (List.map encode clauses)

let nvars t = t.nvars

let nclauses t = List.length t.clauses

let clauses t = t.clauses

let iter f t = List.iter f t.clauses

let nliterals t = t.nliterals

let dropped_tautologies t = t.dropped

let has_empty_clause t = t.has_empty

let clause_eval clause assignment =
  Array.exists
    (fun l ->
      let v = assignment.(Types.var l) in
      if Types.is_pos l then v else not v)
    clause

let eval t assignment =
  if Array.length assignment < t.nvars + 1 then invalid_arg "Cnf.eval: assignment too short";
  List.for_all (fun c -> clause_eval c assignment) t.clauses

let with_extra_clauses t extra =
  let fresh = of_lit_arrays ~nvars:t.nvars extra in
  {
    nvars = t.nvars;
    clauses = t.clauses @ fresh.clauses;
    nliterals = t.nliterals + fresh.nliterals;
    dropped = t.dropped + fresh.dropped;
    has_empty = t.has_empty || fresh.has_empty;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>cnf: %d vars, %d clauses@," t.nvars (nclauses t);
  List.iter (fun c -> Format.fprintf ppf "%a@," Types.pp_clause c) t.clauses;
  Format.fprintf ppf "@]"
