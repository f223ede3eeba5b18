(* serve-paged: Xserver.Server on a Unix socket serving a compressed
   (xseqcol2) DBLP snapshot opened Paged behind a buffer pool much smaller
   than the file.  One connection sends serial Zipf-skewed requests drawn
   from a fixed set of shapes, so the plan cache gets hits.  Per-request
   fixed costs (codec, admission, event core, plan lookup) and the
   pager/decoder are a large share here, the matcher a smaller one. *)

open Common

let records = 12000
let pool_pages = 32
let selective_shapes = 270
let wild_shapes = 30
let zipf_s = 0.6

(* The shapes and their ranking are part of the workload's definition:
   they come from a corpus drawn with this fixed seed, so every run seed
   asks the same mix.  The run seed draws the served records and the
   request stream. *)
let shape_seed = 1977
let shape_corpus = 2000

(* A selective shape matches at least this many records of the shape
   corpus (1%): selective enough to be a lookup, heavy enough that the
   median request is not all hand-off. *)
let min_hits = 20
let stream_len = 60000
let warmup_requests = 50
let trace_requests = 1500
let setup_repeats = 4

let config =
  {
    Xserver.Server.default_config with
    snapshot_mode = Xstorage.Store.Paged;
    snapshot_pool_pages = pool_pages;
  }

type inputs = {
  seed : int;
  texts : string array;
  input_bytes : int;
  shapes : string array;
  stream : int array;  (** shape index of each request *)
}

(* The generator's trees, for the oracle only: regenerated after the
   timed window instead of being held through it, so the resident set the
   window measures is the program's, not the oracle's. *)
let docs seed = Xdatagen.Dblp_gen.generate ~seed records

let inputs seed =
  let texts = Array.map Xmlcore.Xml_printer.to_string (docs seed) in
  let corpus = Xdatagen.Dblp_gen.generate ~seed:shape_seed shape_corpus in
  let hits = Oracle.create corpus in
  let selective =
    distinct_xpaths ~seed:shape_seed
      ~keep:(fun p ->
        has_value p
        && List.length (Oracle.answer hits ~n:shape_corpus p) >= min_hits)
      ~opts:
        { Xdatagen.Query_gen.size = 3; star_prob = 0.1; desc_prob = 0.1;
          value_prob = 1.0; wide = false }
      ~want:selective_shapes corpus
  and wild =
    distinct_xpaths ~seed:(shape_seed + 1)
      ~keep:(fun p -> has_wild p && not (has_value p))
      ~opts:
        { Xdatagen.Query_gen.size = 3; star_prob = 0.5; desc_prob = 0.5;
          value_prob = 0.; wide = false }
      ~want:wild_shapes corpus
  in
  let fixed = Random.State.make [| shape_seed |] in
  let selective = Array.of_list selective and wild = Array.of_list wild in
  shuffle fixed selective;
  shuffle fixed wild;
  let shapes = interleave ~every:10 selective wild in
  let rng = Random.State.make [| seed; 23 |] in
  { seed; texts;
    input_bytes = Array.fold_left (fun a s -> a + String.length s) 0 texts;
    shapes;
    stream = zipf_stream ~s:zipf_s ~ranks:(Array.length shapes) rng stream_len }

let describe inp seed =
  Printf.sprintf
    "serve-paged: seed %d, %d DBLP records, %d input bytes, %d shapes (shape \
     seed %d, Zipf s=%.1f), pool %d pages, plan cache %d entries"
    seed records inp.input_bytes (Array.length inp.shapes) shape_seed zipf_s
    pool_pages
    config.plan_cache_capacity

(* The offline half of set-up, in its own process as an index build
   would run: [dir]'s texts file built into [dir]'s snapshot.  The
   serving process then never holds the built index or the garbage of
   building it, so its resident set is what serving takes. *)
let texts_file dir = Filename.concat dir "texts.bin"
let snapshot_file dir = Filename.concat dir "dblp.xseqz"

let build_main dir =
  let texts : string array =
    In_channel.with_open_bin (texts_file dir) Marshal.from_channel
  in
  let index = Xseq.build (Array.map Xmlcore.Xml_parser.parse_string texts) in
  Xseq.save ~format:Xstorage.Store.Col2 index (snapshot_file dir);
  0

let build_snapshot dir =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "--build-snapshot"; dir |] Unix.stdin Unix.stderr
      Unix.stderr
  in
  let rec wait () =
    try snd (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "serve-paged: snapshot build failed"

(* Build and save the snapshot, serve it Paged, connect. *)
let setup dir =
  build_snapshot dir;
  serve ~config ~name:"serve-paged" (Xserver.Server.Snapshot (snapshot_file dir))

(* Oracle answers for every shape the run used. *)
let check inp answers =
  let o = Oracle.create (docs inp.seed) in
  let used = Array.make (Array.length inp.shapes) false in
  Array.iter (fun (shape, _) -> used.(shape) <- true) answers;
  let want =
    parallel_init (Array.length inp.shapes) (fun i ->
        if used.(i) then
          Oracle.answer o ~n:records (Xquery.Xpath_parser.parse inp.shapes.(i))
        else [])
  in
  Array.fold_left
    (fun failed (shape, r) ->
      match r with Ok d when d = digest want.(shape) -> failed | _ -> failed + 1)
    0 answers

let query client inp i =
  let shape = inp.stream.(i) in
  let t0 = now () in
  let r = try Ok (Xserver.Client.query client inp.shapes.(shape)) with e -> Error e in
  let dt = now () -. t0 in
  (shape, Result.map digest r, dt)

let run_e2e ~seed ~seconds =
  let inp = inputs seed in
  let dir = fresh_dir "serve-paged" in
  let snap = snapshot_file dir in
  Out_channel.with_open_bin (texts_file dir) (fun oc -> Marshal.to_channel oc inp.texts []);
  let ((_, client) as conn), finish_setups =
    repeated_setup setup_repeats ~setup:(fun () -> setup dir) ~teardown:shutdown
  in
  for i = 0 to warmup_requests - 1 do ignore (query client inp i) done;
  let rss = rss_start ~seconds in
  let c0 = counters client in
  let out = ref [] and n = ref 0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  while now () < deadline && warmup_requests + !n < stream_len do
    out := query client inp (warmup_requests + !n) :: !out;
    incr n;
    rss_tick rss
  done;
  let window = now () -. t_start in
  let d = counters_delta c0 (counters client) in
  let rss = rss_finish rss in
  shutdown conn;
  let disk = file_bytes snap in
  let setup_s = finish_setups () in
  rm_rf dir;
  let n = !n in
  let lat = List.map (fun (_, _, dt) -> dt) !out in
  let failed = check inp (Array.of_list (List.map (fun (s, r, _) -> (s, r)) !out)) in
  let t = tail lat in
  let fn = float_of_int n in
  {
    correct = failed = 0;
    attempted = n;
    failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "query_p50_ms" "ms" (median lat *. 1e3);
        m "query_tail_ms" "ms" (t.t_value *. 1e3);
        m "query_qps" "1/s" (fn /. window);
        m "rss_peak_mb" "MiB" rss;
        m "disk_bytes_per_input_byte" "ratio"
          (float_of_int disk /. float_of_int inp.input_bytes);
      ];
    report =
      [
        describe inp seed;
        Printf.sprintf
          "closed loop, 1 connection, serial requests, %.1f s window, %d queries"
          window n;
        tail_line "query_tail_ms" t;
        Printf.sprintf "error_rate %.4f (%d of %d)" (per failed n) failed n;
        Printf.sprintf "disk: %d snapshot bytes (xseqcol2) for %d input bytes"
          disk inp.input_bytes;
        Printf.sprintf
          "server Stats deltas: %.0f probes/query, %.1f page reads/query, plan \
           cache hit rate %.3f"
          (d.probes /. fn) (d.page_reads /. fn)
          (ratio d.cache_hits (d.cache_hits +. d.cache_misses));
      ];
  }

(* ---- traced run ----------------------------------------------------- *)

type replayed = {
  ids : int list;
  plans : (Xquery.Query_seq.compiled list * float) option;
      (** the plans and their run_collect time; None: scan fallback *)
  bytes_in : int;
  bytes_out : int;
}

(* The server's request path for one Query, cut at the public calls it
   makes: codec, XPath parse, plan-cache lookup (compile on a miss),
   match.  A fresh snapshot handle and plan cache per replay, so the
   buffer pool sees exactly the access sequence the server saw. *)
let replay inp snap ~stats ~minor =
  let index = Xseq.load ~mode:Xstorage.Store.Paged ~pool_pages snap in
  let store = Option.get (Xseq.backing_store index) in
  let labeled = Xseq.labeled index and generation = Xseq.generation index in
  let cache = Xserver.Plan_cache.create ~capacity:config.plan_cache_capacity in
  let request ~stats ~minor i =
    let xpath = inp.shapes.(inp.stream.(i)) in
    let plans = ref None in
    let answer xpath =
      let p = Trace.span "xpath.parse" (fun () -> Xquery.Xpath_parser.parse xpath) in
      let key = Xquery.Pattern.to_string p in
      let run ps =
        Trace.span "match" (fun () ->
            let w0 = Gc.minor_words () in
            let ids, dt = time (fun () -> Xquery.Matcher.run_collect ~stats labeled ps) in
            minor := !minor +. (Gc.minor_words () -. w0);
            plans := Some (ps, dt);
            ids)
      in
      match Trace.span "plan" (fun () -> Xserver.Plan_cache.find cache ~generation key) with
      | Some ps -> run ps
      | None ->
        (match
           Trace.span "compile" (fun () ->
               Xquery.Engine.compile ~strategy:(Xseq.strategy index)
                 ~value_mode:(Xseq.value_mode index) labeled p)
         with
         | ps ->
           Xserver.Plan_cache.add cache ~generation key ps;
           run ps
         | exception Xquery.Instantiate.Too_many _ ->
           Trace.span "fallback" (fun () -> Xseq.query ~stats index p))
    in
    let ids, bytes_in, bytes_out = codec_query ~generation xpath answer in
    { ids; plans = !plans; bytes_in; bytes_out }
  in
  (* The warm-up mirrors the server's: it moves the pool and the plan
     cache but no counter, and records no span. *)
  let traced = !Trace.enabled in
  Trace.enabled := false;
  for i = 0 to warmup_requests - 1 do
    ignore (request ~stats:(Xquery.Matcher.create_stats ()) ~minor:(ref 0.) i)
  done;
  Trace.enabled := traced;
  let r0 = Xstorage.Store.page_reads store and h0 = Xstorage.Store.page_hits store in
  let out =
    Array.init trace_requests (fun k ->
        let i = warmup_requests + k in
        Trace.req := i;
        let t0 = now () in
        let r = Trace.span "request" (fun () -> request ~stats ~minor i) in
        (r, now () -. t0))
  in
  (out, Xstorage.Store.page_reads store - r0, Xstorage.Store.page_hits store - h0)

let run_trace ~seed ~spans_file =
  let inp = inputs seed in
  let dir = fresh_dir "serve-paged" in
  let snap = Filename.concat dir "dblp.xseqz" in
  let parsed, parse_s =
    time (fun () -> Array.map Xmlcore.Xml_parser.parse_string inp.texts)
  in
  let index, build_s = time (fun () -> Xseq.build parsed) in
  let shape =
    index_layer_metrics ~format:Xstorage.Store.Col2 ~mode:Xstorage.Store.Paged ~dir
      ~build_s index
  in
  Xseq.save ~format:Xstorage.Store.Col2 index snap;
  let ((_, client) as conn) = serve ~config ~name:"serve-paged" (Xserver.Server.Snapshot snap) in
  for i = 0 to warmup_requests - 1 do ignore (query client inp i) done;
  let c0 = counters client in
  let wire =
    Array.init trace_requests (fun k -> query client inp (warmup_requests + k))
  in
  let d = counters_delta c0 (counters client) in
  shutdown conn;
  let n = trace_requests and fn = float_of_int trace_requests in
  (* Untraced then traced replay of the same requests, each from a fresh
     handle: their ratio is the tracing overhead. *)
  let untraced, _, _ =
    replay inp snap ~stats:(Xquery.Matcher.create_stats ()) ~minor:(ref 0.)
  in
  let stats = Xquery.Matcher.create_stats () and minor = ref 0. in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  Trace.reset ();
  Trace.enabled := true;
  let traced, page_reads, page_hits = replay inp snap ~stats ~minor in
  Trace.enabled := false;
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  (* Work the server does not do, on a separate handle so the traced
     handle's pool saw only the server's accesses: the Σ run half of the
     dedupe split and the instantiation counts. *)
  let probe = Xseq.load ~mode:Xstorage.Store.Paged ~pool_pages snap in
  let probe_labeled = Xseq.labeled probe in
  let dedupe = ref 0. and insts = ref 0 and seqs = ref 0 in
  let inst_memo = Hashtbl.create 64 in
  Array.iteri
    (fun k (r, _) ->
      match r.plans with
      | Some (plans, collect_s) ->
        dedupe := !dedupe +. Qmem.dedupe_probe probe_labeled plans collect_s;
        seqs := !seqs + List.length plans;
        let shape = inp.stream.(warmup_requests + k) in
        let c =
          match Hashtbl.find_opt inst_memo shape with
          | Some c -> c
          | None ->
            let c = Qmem.instantiations probe (Xquery.Xpath_parser.parse inp.shapes.(shape)) in
            Hashtbl.add inst_memo shape c;
            c
        in
        insts := !insts + c
      | None -> ())
    traced;
  Trace.write spans_file;
  rm_rf dir;
  let failed =
    check inp
      (Array.concat
         [
           Array.map (fun (s, r, _) -> (s, r)) wire;
           Array.mapi
             (fun k (r, _) -> (inp.stream.(warmup_requests + k), Ok (digest r.ids)))
             traced;
         ])
  in
  let wire_times = Array.to_list (Array.map (fun (_, _, dt) -> dt) wire) in
  let e2e_s = mean wire_times in
  let residual, closure =
    closure_report ~wire:true ~workload:"serve-paged" ~e2e_s
      ~e2e_median_s:(median wire_times) ~requests:n ~request:"request"
      [ "protocol.encode"; "protocol.decode"; "xpath.parse"; "plan"; "compile";
        "match"; "fallback" ]
  in
  let total name = snd (Trace.self_totals () name) in
  let us name = total name /. fn *. 1e6 in
  let docs = Array.fold_left (fun a (r, _) -> a + List.length r.ids) 0 traced in
  let sum f = Array.fold_left (fun a (r, _) -> a + f r) 0 traced in
  let traced_mean = mean (Array.to_list (Array.map snd traced)) in
  let untraced_mean = mean (Array.to_list (Array.map snd untraced)) in
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
          ("store.page_reads_per_query", float_of_int page_reads /. fn);
          ("store.page_hits_per_query", float_of_int page_hits /. fn);
          ("store.pool_hit_ratio", per page_hits (page_hits + page_reads));
          ("protocol.decode_us", us "protocol.decode");
          ("protocol.encode_us", us "protocol.encode");
          ("protocol.bytes_in_per_req", float_of_int (sum (fun r -> r.bytes_in)) /. fn);
          ("protocol.bytes_out_per_req", float_of_int (sum (fun r -> r.bytes_out)) /. fn);
          ("server.plan_cache_hit_rate",
           ratio d.cache_hits (d.cache_hits +. d.cache_misses));
          ("server.latency_ms_mean", ratio d.latency_ms_sum fn);
          ("server.probes_per_query", d.probes /. fn);
          ("server.page_reads_per_query", d.page_reads /. fn);
          ("server.residual_us", residual *. 1e6);
          ("gc.major_per_kop", float_of_int majors /. fn *. 1000.);
          ("trace.overhead_ratio", ratio traced_mean untraced_mean);
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
            "%d wire requests after %d warm-up, then the same requests replayed \
             in-process (untraced, traced); spans in %s"
            n warmup_requests spans_file
       :: Printf.sprintf "error_rate %.4f (%d of %d)" (per failed (2 * n)) failed (2 * n)
       :: cross_check "matcher probes" ~server:d.probes ~replay:(float_of_int stats.probes)
       :: cross_check "store page_reads" ~server:d.page_reads
            ~replay:(float_of_int page_reads)
       :: closure);
  }
