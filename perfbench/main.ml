(* perfbench: the end-to-end benchmark of symnet.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--smoke] [--perturb OUTPUT]

   Untraced (--trace 0), a run attempts whole rounds of its workload's
   operations for S seconds and prints the end-to-end metrics.  Traced
   (--trace 1), it runs the same operations with spans around the calls
   into the program's layers and probes after each timed solve, writes
   the spans to perfbench/out/NAME.trace.json (a Chrome trace-event file)
   and prints the per-layer metrics.  Either way the last line of
   standard output is one JSON object: correct, attempted, failed,
   metrics.  Check failures are listed on standard error. *)

open Ledger

let workloads = [ "stabilize"; "serve" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (stabilize|serve) --seed N \
     --seconds S --trace 0|1 [--smoke] [--perturb OUTPUT]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and smoke = ref false and perturb = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        if !seed = None then usage ();
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        if !seconds = None then usage ();
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := Some (t = "1");
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--perturb" :: p :: rest ->
        perturb := Some p;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some a, Some b, Some c when List.mem !workload workloads && b > 0. ->
        (a, b, c)
    | _ -> usage ()
  in
  (* Run files (the serve socket, the span file) go under perfbench/out
     of the directory the benchmark runs from. *)
  (try Unix.mkdir "perfbench/out" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cfg = { Common.seed; seconds; smoke = !smoke; perturb = !perturb } in
  let run =
    match !workload with
    | "stabilize" -> Wl_stabilize.run
    | _ -> Wl_serve.run
  in
  let tr, result = run ~traced:trace cfg in
  if trace then begin
    let path = Printf.sprintf "perfbench/out/%s.trace.json" !workload in
    Trace.write_chrome tr path;
    log "perfbench: %d spans written to %s" (Trace.count tr) path
  end;
  let nonfinite =
    List.filter (fun m -> not (Float.is_finite m.value)) result.metrics
  in
  List.iter (fun m -> check false "metric %s is not finite" m.name) nonfinite;
  let metrics =
    List.map
      (fun m -> if Float.is_finite m.value then m else { m with value = -1. })
      result.metrics
  in
  List.iter (fun f -> log "perfbench: CHECK FAILED: %s" f) (List.rev !failures);
  print_endline
    (json_of_result { result with correct = !failures = []; metrics })
