(* Reference decoder for the codec encodings of protocol messages and
   subproblems.  The library only ever encodes (digests need no decoder);
   this is the test oracle for the claim that the encoding is
   unambiguous: [decode (encode v) = v], and no strict prefix of an
   encoding decodes. *)

module C = Gridsat_core
module P = C.Protocol

exception Malformed of string

type reader = { s : string; mutable pos : int }

let fail what = raise (Malformed what)

let byte r =
  if r.pos >= String.length r.s then fail "truncated";
  let b = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  b

let int r =
  let rec go shift acc =
    if shift > 56 then fail "varint too long";
    let b = byte r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor -(z land 1)

let bool r = match byte r with 0 -> false | 1 -> true | _ -> fail "bad bool"

let float r =
  if r.pos + 8 > String.length r.s then fail "truncated";
  let f = Int64.float_of_bits (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  f

let length r =
  let n = int r in
  (* every element takes at least one byte *)
  if n < 0 || n > String.length r.s - r.pos then fail "bad length";
  n

let string r =
  let n = length r in
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let list f r =
  let n = length r in
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f r :: acc) in
  go 0 []

let array f r = Array.of_list (list f r)

let pid r =
  let o = int r in
  let n = int r in
  (o, n)

let subproblem r =
  let nvars = int r in
  let facts = list int r in
  let path = list int r in
  let clauses = list (array int) r in
  { C.Subproblem.nvars; facts; path; clauses }

let entry r : P.journal_entry =
  match byte r with
  | 0 -> Registered { client = int r }
  | 1 ->
      let pid = pid r in
      let dst = int r in
      let path = list int r in
      Assigned { pid; dst; path }
  | 2 ->
      let pid = pid r in
      let client = int r in
      Started { pid; client }
  | 3 ->
      let requester = int r in
      let partner = int r in
      Granted { requester; partner }
  | 4 ->
      let donor = int r in
      let donor_pid = pid r in
      let donor_path = list int r in
      let pid = pid r in
      let dst = int r in
      let path = list int r in
      Split { donor; donor_pid; donor_path; pid; dst; path }
  | 5 -> Refuted { pid = pid r }
  | 6 -> Shared { clauses = int r }
  | 7 -> Suspected { client = int r }
  | 8 -> Died { client = int r }
  | 9 ->
      let pid = pid r in
      let client = int r in
      let path = list int r in
      Adopted { pid; client; path }
  | 10 -> Verdict { answer = string r }
  | k -> fail (Printf.sprintf "bad entry tag %d" k)

let rec msg r : P.msg =
  match byte r with
  | 0 -> Register
  | 1 ->
      let pid = pid r in
      let sp = subproblem r in
      let sent_at = float r in
      Problem { pid; sp; sent_at }
  | 2 ->
      let pid = pid r in
      let from = int r in
      let bytes = int r in
      let path = list int r in
      Problem_received { pid; from; bytes; path }
  | 3 -> Split_request `Memory
  | 4 -> Split_request `Long_running
  | 5 -> Split_partner { partner = int r }
  | 6 ->
      let pid = pid r in
      let dst = int r in
      let bytes = int r in
      let path = list int r in
      let donor_path = list int r in
      Split_ok { pid; dst; bytes; path; donor_path }
  | 7 -> Split_failed
  | 8 -> Shares { clauses = list (array int) r }
  | 9 ->
      let origin = int r in
      let clauses = list (array int) r in
      Share_relay { origin; clauses }
  | 10 ->
      let pid = pid r in
      let proof = if bool r then Some (string r) else None in
      Finished_unsat { pid; proof }
  | 11 ->
      let n = length r in
      let a = Array.make (n + 1) false in
      for v = 1 to n do
        a.(v) <- bool r
      done;
      Found_model (Sat.Model.of_array a)
  | 12 -> Migrate_to { target = int r }
  | 13 -> Cancel { pid = pid r }
  | 14 ->
      let pid = pid r in
      let sp = subproblem r in
      Orphaned { pid; sp }
  | 15 -> Resync_request
  | 16 ->
      let pid = if bool r then Some (pid r) else None in
      let path = list int r in
      let busy_since = float r in
      Resync { pid; path; busy_since }
  | 17 -> Stop
  | 18 -> Heartbeat { decisions = int r }
  | 19 ->
      let seq = int r in
      let entries = list entry r in
      let state_digest = string r in
      Ship { seq; entries; state_digest }
  | 20 ->
      let seq = int r in
      let applied = int r in
      let ok = bool r in
      Ship_ack { seq; applied; ok }
  | 21 -> Epoch_notice
  | 22 -> Ack { mid = int r }
  | 23 -> Nack { mid = int r }
  | 24 ->
      let mid = int r in
      let payload = msg r in
      Reliable { mid; payload }
  | 25 ->
      let digest = int r in
      let epoch = int r in
      let payload = msg r in
      Framed { digest; epoch; payload }
  | 26 -> Corrupt_payload
  | k -> fail (Printf.sprintf "bad message tag %d" k)

(* The whole string must be consumed: trailing bytes are malformed too. *)
let decode f s =
  let r = { s; pos = 0 } in
  let v = f r in
  if r.pos <> String.length s then fail "trailing bytes";
  v

let encoded enc v =
  let c = C.Codec.create 64 in
  enc c v;
  C.Codec.contents c

let encode_msg = encoded P.encode

let decode_msg = decode msg

let encode_subproblem = encoded C.Subproblem.encode

let decode_subproblem = decode subproblem
