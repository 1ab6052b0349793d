(* Bechamel micro-benchmarks of the simulator's hot operations (host
   wall-clock cost, not simulated time).

   Usage:
     dune exec bench/main.exe -- --bechamel

   The paper's experiments run through [ckv bench] ([ckv list] names
   them). *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--bechamel" ] -> Bechamel_suite.run ()
  | _ ->
    prerr_endline
      "usage: main.exe --bechamel   (experiments run via `ckv bench ID`)";
    exit 2
