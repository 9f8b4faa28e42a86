(* Clocks, order statistics and the benchmark's own span recorder. *)

let wall = Unix.gettimeofday

let cpu = Sys.time

type cost = { wall_s : float; cpu_s : float }

let timed f =
  let w0 = wall () and c0 = cpu () in
  let r = f () in
  (r, { wall_s = wall () -. w0; cpu_s = cpu () -. c0 })

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median = function
  | [] -> 0.
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile: the smallest sample with at least a [q] share of
   the samples at or below it. *)
let quantile xs q =
  match xs with
  | [] -> 0.
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

let sum = List.fold_left ( +. ) 0.

(* ---- spans ----

   Wall-clock spans recorded around the benchmark's calls into each
   layer.  They live in a recorder of their own: the program's Obs
   context is re-pointed at virtual time by every grid run and service. *)

type spans = Obs.Span.t

let no_spans = Obs.Span.disabled

let live_spans () =
  let s = Obs.Span.create ~enabled:true in
  let t0 = wall () in
  Obs.Span.set_clock s (fun () -> wall () -. t0);
  s

(* [span sp ~cause ~id name f] runs [f] inside a span named after the
   layer call, tagged with why it ran ([cause]: setup, measure, probe,
   check) and the row or job it belongs to. *)
let span sp ?parent ~cause ?(id = "") name f =
  if not (Obs.Span.is_enabled sp) then f Obs.Span.none
  else begin
    let args = [ ("cause", Obs.Json.String cause) ] in
    let args = if id = "" then args else ("id", Obs.Json.String id) :: args in
    let sid = Obs.Span.enter sp ?parent ~args ~cat:cause name in
    Fun.protect ~finally:(fun () -> Obs.Span.exit sp sid) (fun () -> f sid)
  end

(* Self time per span name: each span's duration minus the part of it its
   children cover (spans nest strictly: the benchmark is single-threaded). *)
let self_times sp =
  let spans = Obs.Span.spans sp in
  let child = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Span.span) ->
      if s.Obs.Span.parent <> Obs.Span.none then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child s.Obs.Span.parent) in
        Hashtbl.replace child s.Obs.Span.parent (prev +. (s.Obs.Span.stop -. s.Obs.Span.start)))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Span.span) ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt child s.Obs.Span.sid) in
      let self = s.Obs.Span.stop -. s.Obs.Span.start -. covered in
      let prev = Option.value ~default:0. (Hashtbl.find_opt acc s.Obs.Span.name) in
      Hashtbl.replace acc s.Obs.Span.name (prev +. self))
    spans;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let write_spans sp ~path =
  let self = self_times sp in
  let doc =
    Obs.Json.Obj
      [
        ("self_seconds", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) self));
        ("trace", Obs.Chrome.export ~process_name:"wallbench" sp);
      ]
  in
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Json.to_string doc);
      output_char oc '\n');
  self
