(* A float-only record: storing into it neither allocates nor runs the
   write barrier, unlike a [float ref]. *)
type state = { mutable last : float }

let state = { last = 0.0 }

let now () =
  let t = Sys.time () in
  if t > state.last then state.last <- t;
  state.last

let elapsed_since t0 = Float.max 0.0 (now () -. t0)
