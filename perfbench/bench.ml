(* The repository benchmark: one process per run, one workload per run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --selftest

   Prints human-readable report lines, then as its last line one JSON
   object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end set, measured untraced; with --trace 1
   the per-layer set from a traced replay.  See NOTES.md. *)

open Common

let workloads = [ "query-mem"; "serve-paged"; "ingest-mixed" ]

let json_of_result r =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
              (num x.m_value) x.m_unit)
          r.metrics))

let run ~workload ~seed ~seconds ~trace =
  mkdir_p work_root;
  let spans_file = Filename.concat work_root ("spans-" ^ workload ^ ".jsonl") in
  match workload, trace with
  | "query-mem", false -> Qmem.run_e2e ~seed ~seconds
  | "query-mem", true -> Qmem.run_trace ~seed ~spans_file
  | "serve-paged", false -> Paged.run_e2e ~seed ~seconds
  | "serve-paged", true -> Paged.run_trace ~seed ~spans_file
  | "ingest-mixed", false -> Ingest.run_e2e ~seed ~seconds
  | "ingest-mixed", true -> Ingest.run_trace ~seed ~spans_file
  | _ -> invalid_arg ("unknown workload " ^ workload)

let check_finite r =
  List.iter
    (fun x ->
      if not (Float.is_finite x.m_value) then
        failwith ("metric " ^ x.m_name ^ " is not a finite number"))
    r.metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25. and trace = ref 0
  and selftest = ref false and build_snapshot = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed window");
      ("--trace", Arg.Set_int trace, " 0: end-to-end run, 1: traced run");
      ("--selftest", Arg.Set selftest, " show that the answer check fires");
      ("--build-snapshot", Arg.Set_string build_snapshot,
       "DIR build DIR's texts into its snapshot (the set-up of serve-paged)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest then exit (Selftest.run ())
  else if !build_snapshot <> "" then exit (Paged.build_main !build_snapshot)
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
    end;
    let r =
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    in
    check_finite r;
    List.iter print_endline r.report;
    print_endline (json_of_result r)
  end
