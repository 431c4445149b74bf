(* perfbench: run one workload of the repository benchmark and print its
   report, then the result line (see README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH *)

open Perfbench_lib

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and cli = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sim-warm | sim-cold | serve-distinct | fleet-replay");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 traced run: per-layer metrics instead of end-to-end ones");
      ("--cli", Arg.Set_string cli, "PATH sofia_cli executable (fleet-replay)");
      ( "--figures",
        Arg.Unit (fun () -> Sim_workload.figures (); exit 0),
        " print per-program reference cycles and instructions, and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--cli PATH]";
  let traced = !trace = 1 and seed = !seed and seconds = max 1 !seconds in
  let attempted, failed, e2e, layers =
    match !workload with
    | "sim-warm" -> Sim_workload.workload ~cold:false ~seed ~seconds ~traced
    | "sim-cold" -> Sim_workload.workload ~cold:true ~seed ~seconds ~traced
    | "serve-distinct" -> Serve_workload.workload ~seed ~seconds ~traced
    | "fleet-replay" -> Fleet_workload.workload ~cli:!cli ~seed ~seconds ~traced
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  let problems = List.rev !Common.problems in
  List.iteri (fun i p -> if i < 10 then Common.report "CHECK FAILED: %s" p) problems;
  if List.length problems > 10 then Common.report "CHECK FAILED: ... %d more" (List.length problems - 10);
  if traced then begin
    (* the traced run's own end-to-end figures: reported for the tracing
       overhead, not part of the result *)
    List.iter (fun m -> Common.report "  traced-run %s = %.6g %s" m.Common.name m.Common.value m.Common.unit_) e2e;
    Common.print_result ~attempted ~failed (Common.complete layers)
  end
  else Common.print_result ~attempted ~failed e2e
