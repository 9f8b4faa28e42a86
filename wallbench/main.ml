(* Wall-clock benchmark of GridSAT: runs one workload for a fixed time and
   prints its metrics as a JSON object on the last line of stdout.

     dune exec ./wallbench/main.exe -- --workload table1-zchaff --seed 1 \
       --seconds 20 --trace 0

   --trace 0 prints the end-to-end metrics of untraced passes; --trace 1
   prints the per-layer metrics of one traced pass (plus an untraced
   reference pass for the tracing overhead) and writes the spans to
   _wallbench/.  README.md in this directory describes the workloads and
   what each metric should move. *)

open Wallbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME table1-zchaff | table1-grid | serve-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long the untraced passes run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Runs.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let outcome =
    if !trace = 0 then Report.end_to_end w ~seed:!seed ~seconds:(float_of_int !seconds)
    else Report.per_layer w ~seed:!seed
  in
  print_endline (Report.to_json outcome);
  if not outcome.Report.correct then exit 1
