module Master = Gridsat_core.Master
module Codec = Gridsat_core.Codec

type entry = Model of Sat.Model.t | Unsat_proved

type t = {
  table : (string, entry) Hashtbl.t;
  mutable hits : int;
  mutable stores : int;
}

let create () = { table = Hashtbl.create 16; hits = 0; stores = 0 }

(* Lexicographic order on int arrays, a proper prefix first: the order
   [compare] gives on the same ints as lists. *)
let rec lex_from i a b =
  if i = Array.length a then if i = Array.length b then 0 else -1
  else if i = Array.length b then 1
  else
    let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
    if c <> 0 then c else lex_from (i + 1) a b

let lex a b = lex_from 0 a b

(* A normalised clause is sorted by encoded literal, i.e. by variable,
   with no variable twice; DIMACS order is its negative literals by
   variable descending, then its positive ones ascending. *)
let dimacs_sorted clause =
  let n = Array.length clause in
  let c = Array.make n 0 and k = ref 0 in
  for i = n - 1 downto 0 do
    let l = clause.(i) in
    if not (Sat.Types.is_pos l) then begin
      c.(!k) <- Sat.Types.to_int l;
      incr k
    end
  done;
  for i = 0 to n - 1 do
    let l = clause.(i) in
    if Sat.Types.is_pos l then begin
      c.(!k) <- Sat.Types.to_int l;
      incr k
    end
  done;
  c

(* Canonical text: "p <nvars>;" then each distinct clause as its sorted
   DIMACS literals, each followed by a space, the clause closed by ';',
   clauses in [lex] order.  The formula's identity is exactly this
   set-of-sets plus the variable count.  The key pairs two independent
   hashes of the text. *)
let digest cnf =
  let clauses = Array.map dimacs_sorted (Array.of_list (Sat.Cnf.clauses cnf)) in
  Array.stable_sort lex clauses;
  let c = Codec.scratch () in
  Codec.raw_string c "p ";
  Codec.decimal c (Sat.Cnf.nvars cnf);
  Codec.char c ';';
  for i = 0 to Array.length clauses - 1 do
    let clause = clauses.(i) in
    if i = 0 || lex clauses.(i - 1) clause <> 0 then begin
      for j = 0 to Array.length clause - 1 do
        Codec.decimal c clause.(j);
        Codec.char c ' '
      done;
      Codec.char c ';'
    end
  done;
  Printf.sprintf "%x-%x" (Codec.fnv1a c) (Codec.crc32 c)

let find t ~digest ~cnf =
  match Hashtbl.find_opt t.table digest with
  | None -> None
  | Some Unsat_proved ->
      t.hits <- t.hits + 1;
      Some Master.Unsat
  | Some (Model m) ->
      (* serve-time re-verification against the formula actually
         submitted: a hit never trusts the digest alone *)
      if Sat.Model.satisfies cnf m then begin
        t.hits <- t.hits + 1;
        Some (Master.Sat m)
      end
      else begin
        Hashtbl.remove t.table digest;
        None
      end

let store t ~digest answer =
  if not (Hashtbl.mem t.table digest) then
    match answer with
    | Master.Sat m ->
        Hashtbl.replace t.table digest (Model m);
        t.stores <- t.stores + 1
    | Master.Unsat ->
        Hashtbl.replace t.table digest Unsat_proved;
        t.stores <- t.stores + 1
    | Master.Unknown _ -> ()

let size t = Hashtbl.length t.table

let hits t = t.hits

let stores t = t.stores
