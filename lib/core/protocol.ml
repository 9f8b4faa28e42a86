type pid = int * int

(* The master's write-ahead journal entries are defined here (and
   re-exported by [Journal]) so the wire protocol can ship them to a
   hot-standby replica without a dependency cycle: [Journal] depends on
   [Protocol] for pids, and [Ship] must carry entries. *)
type journal_entry =
  | Registered of { client : int }
  | Assigned of { pid : pid; dst : int; path : Sat.Types.lit list }
  | Started of { pid : pid; client : int }
  | Granted of { requester : int; partner : int }
  | Split of {
      donor : int;
      donor_pid : pid;
      donor_path : Sat.Types.lit list;
      pid : pid;
      dst : int;
      path : Sat.Types.lit list;
    }
  | Refuted of { pid : pid }
  | Shared of { clauses : int }
  | Suspected of { client : int }
  | Died of { client : int }
  | Adopted of { pid : pid; client : int; path : Sat.Types.lit list }
  | Verdict of { answer : string }

type msg =
  | Register
  | Problem of { pid : pid; sp : Subproblem.t; sent_at : float }
  | Problem_received of { pid : pid; from : int; bytes : int; path : Sat.Types.lit list }
  | Split_request of [ `Memory | `Long_running ]
  | Split_partner of { partner : int }
  | Split_ok of {
      pid : pid;
      dst : int;
      bytes : int;
      path : Sat.Types.lit list;
      donor_path : Sat.Types.lit list;
    }
  | Split_failed
  | Shares of { clauses : Sat.Types.lit array list }
  | Share_relay of { origin : int; clauses : Sat.Types.lit array list }
  | Finished_unsat of { pid : pid; proof : string option }
  | Found_model of Sat.Model.t
  | Migrate_to of { target : int }
  | Cancel of { pid : pid }
  | Orphaned of { pid : pid; sp : Subproblem.t }
  | Resync_request
  | Resync of { pid : pid option; path : Sat.Types.lit list; busy_since : float }
  | Stop
  | Heartbeat of { decisions : int }
  | Ship of { seq : int; entries : journal_entry list; state_digest : string }
  | Ship_ack of { seq : int; applied : int; ok : bool }
  | Epoch_notice
  | Ack of { mid : int }
  | Nack of { mid : int }
  | Reliable of { mid : int; payload : msg }
  | Framed of { digest : int; epoch : int; payload : msg }
  | Corrupt_payload

let control_bytes = 64

let shares_bytes clauses =
  List.fold_left (fun acc c -> acc + 16 + (8 * Array.length c)) control_bytes clauses

let model_bytes m = control_bytes + Sat.Model.nvars m

let frame_bytes = 8

let entry_bytes = function
  | Assigned { path; _ } | Adopted { path; _ } -> 16 + (8 * List.length path)
  | Split { donor_path; path; _ } -> 16 + (8 * (List.length donor_path + List.length path))
  | Registered _ | Started _ | Granted _ | Refuted _ | Shared _ | Suspected _ | Died _
  | Verdict _ ->
      16

let rec size = function
  | Problem { sp; _ } | Orphaned { sp; _ } -> Subproblem.bytes sp
  | Shares { clauses } | Share_relay { clauses; _ } -> shares_bytes clauses
  | Found_model m -> model_bytes m
  | Reliable { payload; _ } -> size payload
  | Framed { payload; _ } -> frame_bytes + size payload
  | Problem_received { path; _ } | Resync { path; _ } -> control_bytes + (8 * List.length path)
  | Split_ok { path; donor_path; _ } ->
      control_bytes + (8 * (List.length path + List.length donor_path))
  | Finished_unsat { proof; _ } ->
      control_bytes + (match proof with None -> 0 | Some p -> String.length p)
  | Ship { entries; state_digest; _ } ->
      control_bytes
      + String.length state_digest
      + List.fold_left (fun acc e -> acc + entry_bytes e) 0 entries
  | Register | Split_request _ | Split_partner _ | Split_failed | Migrate_to _ | Cancel _
  | Resync_request | Stop | Heartbeat _ | Ship_ack _ | Epoch_notice | Ack _ | Nack _
  | Corrupt_payload ->
      control_bytes

(* Clause shares are semantically safe to lose (a learned clause is only an
   accelerant), so they — like the liveness traffic itself — stay
   fire-and-forget.  Everything else is control state whose loss can wedge
   the run and must ride the ack/retry layer. *)
let critical = function
  | Register | Problem _ | Problem_received _ | Split_request _ | Split_partner _ | Split_ok _
  | Split_failed | Finished_unsat _ | Found_model _ | Migrate_to _ | Cancel _ | Orphaned _
  | Resync_request | Resync _ | Ship _ ->
      true
  | Shares _ | Share_relay _ | Stop | Heartbeat _ | Ship_ack _ | Epoch_notice | Ack _ | Nack _
  | Reliable _ | Framed _ | Corrupt_payload ->
      false

(* ---------- integrity framing ---------- *)

(* The codec encoding every digest is taken over: one tag per
   constructor, then every field in declaration order.  Lists and strings
   are length-prefixed, so distinct messages never share an encoding. *)
let encode_pid c (o, n) =
  Codec.int c o;
  Codec.int c n

let encode_entry c e =
  match e with
  | Registered { client } ->
      Codec.tag c 0;
      Codec.int c client
  | Assigned { pid; dst; path } ->
      Codec.tag c 1;
      encode_pid c pid;
      Codec.int c dst;
      Codec.ints c path
  | Started { pid; client } ->
      Codec.tag c 2;
      encode_pid c pid;
      Codec.int c client
  | Granted { requester; partner } ->
      Codec.tag c 3;
      Codec.int c requester;
      Codec.int c partner
  | Split { donor; donor_pid; donor_path; pid; dst; path } ->
      Codec.tag c 4;
      Codec.int c donor;
      encode_pid c donor_pid;
      Codec.ints c donor_path;
      encode_pid c pid;
      Codec.int c dst;
      Codec.ints c path
  | Refuted { pid } ->
      Codec.tag c 5;
      encode_pid c pid
  | Shared { clauses } ->
      Codec.tag c 6;
      Codec.int c clauses
  | Suspected { client } ->
      Codec.tag c 7;
      Codec.int c client
  | Died { client } ->
      Codec.tag c 8;
      Codec.int c client
  | Adopted { pid; client; path } ->
      Codec.tag c 9;
      encode_pid c pid;
      Codec.int c client;
      Codec.ints c path
  | Verdict { answer } ->
      Codec.tag c 10;
      Codec.string c answer

let rec encode_entries c = function
  | [] -> ()
  | e :: rest ->
      encode_entry c e;
      encode_entries c rest

let rec encode c msg =
  match msg with
  | Register -> Codec.tag c 0
  | Problem { pid; sp; sent_at } ->
      Codec.tag c 1;
      encode_pid c pid;
      Subproblem.encode c sp;
      Codec.float c sent_at
  | Problem_received { pid; from; bytes; path } ->
      Codec.tag c 2;
      encode_pid c pid;
      Codec.int c from;
      Codec.int c bytes;
      Codec.ints c path
  | Split_request `Memory -> Codec.tag c 3
  | Split_request `Long_running -> Codec.tag c 4
  | Split_partner { partner } ->
      Codec.tag c 5;
      Codec.int c partner
  | Split_ok { pid; dst; bytes; path; donor_path } ->
      Codec.tag c 6;
      encode_pid c pid;
      Codec.int c dst;
      Codec.int c bytes;
      Codec.ints c path;
      Codec.ints c donor_path
  | Split_failed -> Codec.tag c 7
  | Shares { clauses } ->
      Codec.tag c 8;
      Codec.int_arrays c clauses
  | Share_relay { origin; clauses } ->
      Codec.tag c 9;
      Codec.int c origin;
      Codec.int_arrays c clauses
  | Finished_unsat { pid; proof } -> (
      Codec.tag c 10;
      encode_pid c pid;
      match proof with
      | None -> Codec.bool c false
      | Some p ->
          Codec.bool c true;
          Codec.string c p)
  | Found_model m ->
      Codec.tag c 11;
      let n = Sat.Model.nvars m in
      Codec.int c n;
      for v = 1 to n do
        Codec.bool c (Sat.Model.value m v)
      done
  | Migrate_to { target } ->
      Codec.tag c 12;
      Codec.int c target
  | Cancel { pid } ->
      Codec.tag c 13;
      encode_pid c pid
  | Orphaned { pid; sp } ->
      Codec.tag c 14;
      encode_pid c pid;
      Subproblem.encode c sp
  | Resync_request -> Codec.tag c 15
  | Resync { pid; path; busy_since } ->
      Codec.tag c 16;
      (match pid with
      | None -> Codec.bool c false
      | Some pid ->
          Codec.bool c true;
          encode_pid c pid);
      Codec.ints c path;
      Codec.float c busy_since
  | Stop -> Codec.tag c 17
  | Heartbeat { decisions } ->
      Codec.tag c 18;
      Codec.int c decisions
  | Ship { seq; entries; state_digest } ->
      Codec.tag c 19;
      Codec.int c seq;
      Codec.int c (List.length entries);
      encode_entries c entries;
      Codec.string c state_digest
  | Ship_ack { seq; applied; ok } ->
      Codec.tag c 20;
      Codec.int c seq;
      Codec.int c applied;
      Codec.bool c ok
  | Epoch_notice -> Codec.tag c 21
  | Ack { mid } ->
      Codec.tag c 22;
      Codec.int c mid
  | Nack { mid } ->
      Codec.tag c 23;
      Codec.int c mid
  | Reliable { mid; payload } ->
      Codec.tag c 24;
      Codec.int c mid;
      encode c payload
  | Framed { digest; epoch; payload } ->
      Codec.tag c 25;
      Codec.int c digest;
      Codec.int c epoch;
      encode c payload
  | Corrupt_payload -> Codec.tag c 26

let digest msg =
  let c = Codec.scratch () in
  encode c msg;
  Codec.fnv1a c

(* The epoch is a header field, not part of the digested payload: like a
   reliable envelope's mid it survives in-flight corruption (it carries
   its own header CRC in any real encoding), so receivers can fence a
   stale sender even when the payload is trash. *)
let frame ?(epoch = 0) msg = Framed { digest = digest msg; epoch; payload = msg }

let epoch_of = function Framed { epoch; _ } -> epoch | _ -> 0

let verify = function
  | Framed { digest = d; payload; _ } ->
      if digest payload = d then `Ok payload else `Corrupt payload
  | msg -> `Ok msg

(* In-flight bit rot: the payload content becomes unreadable trash, while
   the small fixed-position headers — the frame digest and a reliable
   envelope's mid — survive (they carry their own header CRC in any real
   encoding).  That is exactly the shape that lets a receiver detect the
   damage and name the envelope to NACK. *)
let corrupt msg =
  let garble = function
    | Reliable { mid; payload = _ } -> Reliable { mid; payload = Corrupt_payload }
    | _ -> Corrupt_payload
  in
  match msg with
  | Framed { digest; epoch; payload } -> Framed { digest; epoch; payload = garble payload }
  | m -> garble m
