module T = Sat.Types

(* The entry type itself lives in [Protocol] (so the wire can ship
   entries to a hot standby without a dependency cycle); re-exporting the
   constructors here keeps every [Journal.Assigned ...] call site — and
   the journal's ownership of the format — unchanged. *)
type entry = Protocol.journal_entry =
  | Registered of { client : int }
  | Assigned of { pid : Protocol.pid; dst : int; path : T.lit list }
  | Started of { pid : Protocol.pid; client : int }
  | Granted of { requester : int; partner : int }
  | Split of {
      donor : int;
      donor_pid : Protocol.pid;
      donor_path : T.lit list;
      pid : Protocol.pid;
      dst : int;
      path : T.lit list;
    }
  | Refuted of { pid : Protocol.pid }
  | Shared of { clauses : int }
  | Suspected of { client : int }
  | Died of { client : int }
  | Adopted of { pid : Protocol.pid; client : int; path : T.lit list }
  | Verdict of { answer : string }

type client_state = Alive | Dead

type state = {
  clients : (int, client_state) Hashtbl.t;
  live : (Protocol.pid, T.lit list) Hashtbl.t;
  holder : (Protocol.pid, int) Hashtbl.t;
  refuted : (Protocol.pid, unit) Hashtbl.t;
  mutable problem_assigned : bool;
  mutable splits : int;
  mutable share_batches : int;
  mutable shared_clauses : int;
  mutable verdict : string option;
}

let empty_state () =
  {
    clients = Hashtbl.create 16;
    live = Hashtbl.create 64;
    holder = Hashtbl.create 64;
    refuted = Hashtbl.create 64;
    problem_assigned = false;
    splits = 0;
    share_batches = 0;
    shared_clauses = 0;
    verdict = None;
  }

let copy_state s =
  {
    s with
    clients = Hashtbl.copy s.clients;
    live = Hashtbl.copy s.live;
    holder = Hashtbl.copy s.holder;
    refuted = Hashtbl.copy s.refuted;
  }

(* A refutation is final: pids are never reused, so a registration that
   arrives after the pid was refuted (message reordering around a split,
   possibly spanning a master restart) must not resurrect it. *)
let register st pid path client =
  if not (Hashtbl.mem st.refuted pid) then begin
    Hashtbl.replace st.live pid path;
    Hashtbl.replace st.holder pid client
  end

let apply st = function
  | Registered { client } -> Hashtbl.replace st.clients client Alive
  | Assigned { pid; dst; path } ->
      st.problem_assigned <- true;
      register st pid path dst
  | Started { pid; client } -> if not (Hashtbl.mem st.refuted pid) then Hashtbl.replace st.holder pid client
  | Granted _ -> ()
  | Split { donor; donor_pid; donor_path; pid; dst; path } ->
      st.splits <- st.splits + 1;
      register st donor_pid donor_path donor;
      register st pid path dst
  | Refuted { pid } ->
      Hashtbl.remove st.live pid;
      Hashtbl.remove st.holder pid;
      Hashtbl.replace st.refuted pid ()
  | Shared { clauses } ->
      st.share_batches <- st.share_batches + 1;
      st.shared_clauses <- st.shared_clauses + clauses
  | Suspected _ -> ()
  | Died { client } ->
      Hashtbl.replace st.clients client Dead;
      (* the dead host no longer holds anything; its live pids await
         re-homing (checkpoint or lineage re-derivation) *)
      let held =
        Hashtbl.fold (fun pid h acc -> if h = client then pid :: acc else acc) st.holder []
      in
      List.iter (Hashtbl.remove st.holder) held
  | Adopted { pid; client; path } ->
      (* a client busy on any subproblem proves the root was assigned,
         even when the Assigned record itself predates this log (a
         standby's shadow only holds the shipped suffix) *)
      st.problem_assigned <- true;
      register st pid path client
  | Verdict { answer } -> st.verdict <- Some answer

(* Byte occupancy is an estimate (this journal models stable storage, it
   does not serialise to a real file), but a deterministic one: the same
   entries always cost the same bytes. *)
let state_bytes st =
  let b = ref 64 in
  Hashtbl.iter (fun _ _ -> b := !b + 8) st.clients;
  Hashtbl.iter (fun _ path -> b := !b + 16 + (8 * List.length path)) st.live;
  Hashtbl.iter (fun _ _ -> b := !b + 8) st.holder;
  Hashtbl.iter (fun _ _ -> b := !b + 8) st.refuted;
  !b

include Sealed_log.Make (struct
  type nonrec entry = entry

  type nonrec state = state

  let name = "journal"

  let entry_bytes = Protocol.entry_bytes

  let empty = empty_state

  let copy = copy_state

  let apply = apply

  let state_bytes = state_bytes
end)

let create ?obs ?quota ~compact_every () =
  create ?obs ?quota ~compact_every:(max 1 compact_every) ()

(* Canonical serialisation: every table is rendered in sorted key order so
   two replays of the same journal digest identically regardless of
   hashtable iteration order. *)
let digest st =
  let buf = Buffer.create 1024 in
  let lits ls = String.concat "," (List.map (fun l -> string_of_int (T.to_int l)) ls) in
  let pid (a, b) = Printf.sprintf "%d.%d" a b in
  Hashtbl.fold (fun id cs acc -> (id, cs) :: acc) st.clients []
  |> List.sort compare
  |> List.iter (fun (id, cs) ->
         Buffer.add_string buf
           (Printf.sprintf "c %d %s\n" id (match cs with Alive -> "alive" | Dead -> "dead")));
  Hashtbl.fold (fun p path acc -> (p, path) :: acc) st.live []
  |> List.sort compare
  |> List.iter (fun (p, path) ->
         let h = match Hashtbl.find_opt st.holder p with Some h -> string_of_int h | None -> "-" in
         Buffer.add_string buf (Printf.sprintf "l %s @%s [%s]\n" (pid p) h (lits path)));
  Hashtbl.fold (fun p () acc -> p :: acc) st.refuted []
  |> List.sort compare
  |> List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "r %s\n" (pid p)));
  Buffer.add_string buf
    (Printf.sprintf "s %b %d %d %d %s\n" st.problem_assigned st.splits st.share_batches
       st.shared_clauses
       (match st.verdict with Some v -> v | None -> "-"));
  Digest.to_hex (Digest.string (Buffer.contents buf))

