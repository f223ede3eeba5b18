(* query-mem: in-process Xseq.query_xpath over a resident index of a
   synthetic L3F5A25I10P40 corpus.  No wire, no disk, no writes: the
   matcher is nearly all of the time, so matcher work must move this
   workload and server or storage work must leave it flat. *)

open Common

let records = 8000

(* The DTD is part of the workload's definition, like DBLP's shape: the
   seed varies the documents and the queries, never the schema, so runs
   under different seeds measure the same kind of corpus. *)
let schema_seed = 7
let params = { Xdatagen.Synthetic.l = 3; f = 5; a = 25; i = 10; p = 40 }
let exact_queries = 30000
let wild_queries = 750
let trace_queries = 500
let warmup_queries = 20
let setup_repeats = 6

type inputs = {
  seed : int;
  texts : string array;  (** what the program sees *)
  input_bytes : int;
  queries : string array;  (** all distinct *)
}

(* The generator's trees, for the oracle only: regenerated after the
   timed window instead of being held through it, so the resident set the
   window measures is the program's, not the oracle's. *)
let docs seed =
  let schema = Xdatagen.Synthetic.schema ~seed:schema_seed params in
  Xdatagen.Synthetic.generate ~seed ~schema records

let inputs seed =
  let docs = docs seed in
  let texts = Array.map Xmlcore.Xml_printer.to_string docs in
  let exact =
    distinct_xpaths ~seed
      ~keep:(fun p -> Xquery.Pattern.size p = 5)
      ~opts:
        { Xdatagen.Query_gen.size = 5; star_prob = 0.; desc_prob = 0.;
          value_prob = 0.5; wide = false }
      ~want:exact_queries docs
  and wild =
    distinct_xpaths ~seed:(seed + 1)
      ~keep:(fun p -> Xquery.Pattern.size p >= 3 && has_wild p)
      ~opts:
        { Xdatagen.Query_gen.size = 4; star_prob = 0.3; desc_prob = 0.3;
          value_prob = 0.5; wide = false }
      ~want:wild_queries docs
  in
  let rng = Random.State.make [| seed; 17 |] in
  let exact = Array.of_list exact and wild = Array.of_list wild in
  shuffle rng exact;
  shuffle rng wild;
  (* Every 40th query is a wildcard one, so each block of the tail sees
     the same share of them. *)
  let queries = interleave ~every:40 exact wild in
  { seed; texts;
    input_bytes = Array.fold_left (fun a s -> a + String.length s) 0 texts;
    queries }

let setup texts = Xseq.build (Array.map Xmlcore.Xml_parser.parse_string texts)

(* Failed answers among [answers], each a query's index in the pool and
   what the program answered, against the oracle. *)
let check inp answers =
  let n = Array.fold_left (fun a (i, _) -> max a (i + 1)) 0 answers in
  let o = Oracle.create (docs inp.seed) in
  let want =
    parallel_init n (fun i ->
        Oracle.answer o ~n:records (Xquery.Xpath_parser.parse inp.queries.(i)))
  in
  Array.fold_left
    (fun failed (i, r) ->
      match r with Ok d when d = digest want.(i) -> failed | _ -> failed + 1)
    0 answers

let describe inp seed =
  Printf.sprintf
    "query-mem: seed %d, %d records of %s (schema seed %d), %d input bytes, \
     %d distinct queries generated"
    seed records (Xdatagen.Synthetic.name params) schema_seed inp.input_bytes
    (Array.length inp.queries)

(* The warm-up queries come from the end of the pool, the timed ones from
   its start, so every timed query is new to the index. *)
let warm index inp =
  let n = Array.length inp.queries in
  for k = 1 to warmup_queries do
    ignore (Xseq.query_xpath index inp.queries.(n - k) : int list)
  done

let run_e2e ~seed ~seconds =
  let inp = inputs seed in
  let index, finish_setups =
    repeated_setup setup_repeats ~setup:(fun () -> setup inp.texts) ~teardown:ignore
  in
  warm index inp;
  let rss = rss_start ~seconds in
  let limit = Array.length inp.queries - warmup_queries in
  let answers = Array.make limit (Ok (digest [])) and lat = ref [] in
  let n = ref 0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  while now () < deadline && !n < limit do
    let x = inp.queries.(!n) in
    let t0 = now () in
    let r = try Ok (Xseq.query_xpath index x) with e -> Error e in
    lat := (now () -. t0) :: !lat;
    let r = Result.map digest r in
    answers.(!n) <- r;
    incr n;
    rss_tick rss
  done;
  let window = now () -. t_start in
  let rss = rss_finish rss in
  let n = !n in
  let dir = fresh_dir "query-mem" in
  let snap = Filename.concat dir "index.xseq" in
  Xseq.save index snap;
  let disk = file_bytes snap in
  rm_rf dir;
  let setup_s = finish_setups () in
  let failed = check inp (Array.init n (fun i -> (i, answers.(i)))) in
  let t = tail !lat in
  {
    correct = failed = 0;
    attempted = n;
    failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "query_p50_ms" "ms" (median !lat *. 1e3);
        m "query_tail_ms" "ms" (t.t_value *. 1e3);
        m "query_qps" "1/s" (float_of_int n /. window);
        m "rss_peak_mb" "MiB" rss;
        m "disk_bytes_per_input_byte" "ratio"
          (float_of_int disk /. float_of_int inp.input_bytes);
      ];
    report =
      [
        describe inp seed;
        Printf.sprintf "closed loop, 1 in-process caller, %.1f s window, %d queries"
          window n;
        tail_line "query_tail_ms" t;
        Printf.sprintf "error_rate %.4f (%d of %d)" (per failed n) failed n;
        Printf.sprintf "disk: %d snapshot bytes (xseqcol1) for %d input bytes"
          disk inp.input_bytes;
      ];
  }

(* The same request as the untraced loop — parse, compile, match — cut
   at the public calls Xseq.query_xpath makes. *)
let traced_request index stats minor x =
  let labeled = Xseq.labeled index in
  Trace.span "request" (fun () ->
      let p = Trace.span "xpath.parse" (fun () -> Xquery.Xpath_parser.parse x) in
      match
        Trace.span "compile" (fun () ->
            Xquery.Engine.compile ~strategy:(Xseq.strategy index)
              ~value_mode:(Xseq.value_mode index) labeled p)
      with
      | plans ->
        Trace.span "match" (fun () ->
            let w0 = Gc.minor_words () in
            let ids, dt = time (fun () -> Xquery.Matcher.run_collect ~stats labeled plans) in
            minor := !minor +. (Gc.minor_words () -. w0);
            (ids, Some (p, plans, dt)))
      | exception Xquery.Instantiate.Too_many _ ->
        (Trace.span "fallback" (fun () -> Xseq.query ~stats index p), None))

(* run_collect minus the sum of Matcher.run over the same compiled list:
   the dedupe/sort share of a query. *)
let dedupe_probe labeled plans run_collect_s =
  let (), runs_s =
    time (fun () ->
        List.iter
          (fun c -> Xquery.Matcher.run labeled c ~on_doc:ignore)
          plans)
  in
  run_collect_s -. runs_s

let instantiations index p =
  let labeled = Xseq.labeled index in
  match
    Xquery.Instantiate.run
      ~mem:(fun path -> Option.is_some (Xindex.Labeled.link labeled path))
      ~value_mode:(Xseq.value_mode index) p
  with
  | l -> List.length l
  | exception Xquery.Instantiate.Too_many k -> k

let run_trace ~seed ~spans_file =
  let inp = inputs seed in
  let parsed, parse_s =
    time (fun () -> Array.map Xmlcore.Xml_parser.parse_string inp.texts)
  in
  let index, build_s = time (fun () -> Xseq.build parsed) in
  let dir = fresh_dir "query-mem" in
  let shape = index_layer_metrics ~dir ~build_s index in
  rm_rf dir;
  Gc.compact ();
  warm index inp;
  let n = min trace_queries (Array.length inp.queries - warmup_queries) in
  let untraced =
    Array.init n (fun i -> time (fun () -> Xseq.query_xpath index inp.queries.(i)))
  in
  let stats = Xquery.Matcher.create_stats () and minor = ref 0. in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  Trace.reset ();
  Trace.enabled := true;
  let traced =
    Array.init n (fun i ->
        Trace.req := i;
        traced_request index stats minor inp.queries.(i))
  in
  Trace.enabled := false;
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  let totals = Trace.self_totals () in
  let total name = snd (totals name) in
  let request_times =
    List.filter_map
      (fun (s : Trace.span) -> if s.name = "request" then Some (Trace.dur s) else None)
      !Trace.spans
  in
  (* Σ run and instantiation counts run outside the request spans. *)
  let labeled = Xseq.labeled index in
  let dedupe = ref 0. and insts = ref 0 and seqs = ref 0 in
  Array.iter
    (fun (_, plan) ->
      match plan with
      | Some (p, plans, collect_s) ->
        dedupe := !dedupe +. dedupe_probe labeled plans collect_s;
        insts := !insts + instantiations index p;
        seqs := !seqs + List.length plans
      | None -> ())
    traced;
  let docs = Array.fold_left (fun a (ids, _) -> a + List.length ids) 0 traced in
  let failed =
    check inp
      (Array.append
         (Array.mapi (fun i (ids, _) -> (i, Ok (digest ids))) traced)
         (Array.mapi (fun i (ids, _) -> (i, Ok (digest ids))) untraced))
  in
  Trace.write spans_file;
  let untraced_times = Array.to_list (Array.map snd untraced) in
  let e2e_s = mean untraced_times in
  let _, closure =
    closure_report ~wire:false ~workload:"query-mem" ~e2e_s
      ~e2e_median_s:(median untraced_times) ~requests:n ~request:"request"
      [ "xpath.parse"; "compile"; "match"; "fallback" ]
  in
  let fn = float_of_int n in
  let us name = total name /. fn *. 1e6 in
  let metrics =
    layer_metrics
      (shape
      @ [
          ("xmlcore.parse_us_per_doc", parse_s /. float_of_int records *. 1e6);
          ("xpath.parse_us", us "xpath.parse");
          ("compile.us_per_query", us "compile");
          ("compile.instantiations_per_query", float_of_int !insts /. fn);
          ("compile.sequences_per_query", float_of_int !seqs /. fn);
          ("match.us_per_query", (total "match" +. total "fallback") /. fn *. 1e6);
          ("match.probes_per_query", float_of_int stats.probes /. fn);
          ("match.candidates_per_query", float_of_int stats.candidates /. fn);
          ("match.rejected_per_query", float_of_int stats.rejected /. fn);
          ("match.matches_per_query", float_of_int stats.matches /. fn);
          ("match.docs_per_query", float_of_int docs /. fn);
          ("match.docs_per_match", per docs stats.matches);
          ("match.minor_words_per_query", !minor /. fn);
          ("match.dedupe_us_per_query", !dedupe /. fn *. 1e6);
          ("gc.major_per_kop", float_of_int majors /. fn *. 1000.);
          ("trace.overhead_ratio", ratio (mean request_times) e2e_s);
        ])
  in
  {
    correct = failed = 0;
    attempted = 2 * n;
    failed;
    metrics;
    report =
      (describe inp seed
       :: Printf.sprintf
            "the first %d timed queries, untraced then traced; spans in %s" n
            spans_file
       :: Printf.sprintf "error_rate %.4f (%d of %d)" (per failed (2 * n)) failed (2 * n)
       :: closure);
  }
