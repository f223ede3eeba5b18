(* ingest-mixed: Xserver.Server over a Live Xlog store.  One connection
   sends XMark-like records as XML text, each followed by the delete of
   the oldest live record, and a query after every [query_every] inserts.
   The run is long enough for many memtable seals and several background
   compactions, so XML parse, WAL append/fsync, memtable, seal,
   compaction and checkpoint writing do most of the work, and queries
   read base + deltas + memtable. *)

open Common

(* The store holds a window of the [live] newest records: it is preloaded
   with that many and every insert retires the oldest.  Its size, and
   with it query cost, memory and disk, then does not depend on how many
   records a run manages to insert. *)
let live = 3000
let insert_pool = 60000
let query_every = 5

(* Two queries in three are exact twigs, with values, of a record
   inserted among the last [recent]: reads of recent writes, with small
   non-empty answers.  The third is a structural shape drawn Zipf(s) from
   [open_shapes] fixed ones, which repeat, so the plan cache gets hits. *)
let recent = 200
let twig_size = 8
let open_shapes = 30
let zipf_s = 0.8

(* The structural shapes and their ranking are part of the workload's
   definition: they come from a corpus of this fixed seed.  The run seed
   draws the records, the twigs and the op stream. *)
let shape_seed = 1977
let trace_ops = 8000
let setup_repeats = 6

(* The flush policy, fixed for every run and stated in the output. *)
let sync_every = 16
let memtable_limit = 256
let max_segments = 4

type op =
  | Insert of int  (** the id it gets *)
  | Query of int  (** index into [xpaths] *)
  | Delete of int  (** id *)

type inputs = {
  seed : int;
  texts : string array;  (** record [id] is [texts.(id)] *)
  xpaths : string array;
  ops : op array;
}

let records = live + insert_pool

(* Records are generated in chunks, so the benchmark never holds more
   than two chunks of trees while it builds its inputs: the program's
   resident memory is then not the generator's garbage. *)
let chunk = 1000

let gen_chunk seed c =
  Xdatagen.Xmark_gen.generate ~seed:((seed * 1009) + c) ~identical_siblings:true chunk

(* The generator's trees, for the oracle only: regenerated after the
   timed window instead of being held through it. *)
let docs inp = Array.concat (List.init (records / chunk) (gen_chunk inp.seed))

(* Ids are dense and assigned in insert order, so the op stream knows
   the id every insert gets and which id is the oldest live one. *)
let inputs seed =
  let cache = Hashtbl.create 4 in
  let tree id =
    let c = id / chunk in
    let trees =
      match Hashtbl.find_opt cache c with
      | Some t -> t
      | None ->
        let t = gen_chunk seed c in
        Hashtbl.remove cache (c - 2);
        Hashtbl.replace cache c t;
        t
    in
    trees.(id mod chunk)
  in
  let texts = Array.init records (fun id -> Xmlcore.Xml_printer.to_string (tree id)) in
  let corpus =
    Xdatagen.Xmark_gen.generate ~seed:shape_seed ~identical_siblings:true live
  in
  let structural =
    Array.of_list
      (distinct_xpaths ~seed:shape_seed
         ~keep:(fun p -> Xquery.Pattern.size p >= 2 && not (has_value p))
         ~opts:
           { Xdatagen.Query_gen.size = 4; star_prob = 0.1; desc_prob = 0.2;
             value_prob = 0.; wide = false }
         ~want:open_shapes corpus)
  in
  shuffle (Random.State.make [| shape_seed |]) structural;
  let rng = Random.State.make [| seed; 29 |] in
  let draws =
    zipf_stream ~s:zipf_s ~ranks:(Array.length structural) rng
      (insert_pool / query_every)
  and ndraws = ref 0 in
  let draw () =
    incr ndraws;
    draws.(!ndraws - 1)
  in
  let twigs = ref [] and ntwigs = ref 0 in
  let twig id =
    let rec pick tries =
      if tries = 0 then None
      else
        let doc = tree (id - Random.State.int rng (min recent (id + 1))) in
        let p = Xdatagen.Query_gen.exact_of_doc ~rng ~size:twig_size doc in
        match if has_value p then Xp.of_pattern p else None with
        | Some x ->
          twigs := x :: !twigs;
          incr ntwigs;
          Some (Array.length structural + !ntwigs - 1)
        | None -> pick (tries - 1)
    in
    pick 8
  in
  let ops = ref [] in
  for j = 0 to insert_pool - 1 do
    let id = live + j in
    ops := Delete (id - live) :: Insert id :: !ops;
    if (j + 1) mod query_every = 0 then begin
      let q = (j + 1) / query_every in
      let x = if q mod 3 = 0 then None else twig id in
      ops := Query (match x with Some i -> i | None -> draw ()) :: !ops
    end
  done;
  { seed; texts;
    xpaths = Array.append structural (Array.of_list (List.rev !twigs));
    ops = Array.of_list (List.rev !ops) }

let policy =
  Printf.sprintf "flush policy: sync_every %d, memtable_limit %d, max_segments %d"
    sync_every memtable_limit max_segments

let describe inp =
  Printf.sprintf
    "ingest-mixed: seed %d, XMark records, %d live (preloaded, then each insert \
     deletes the oldest), up to %d inserts, a query every %d inserts (2 in 3 \
     exact %d-node twigs of a record among the last %d inserted, 1 in 3 one \
     of %d structural shapes, Zipf s=%.1f, shape seed %d); %s"
    inp.seed live insert_pool query_every twig_size recent open_shapes zipf_s
    shape_seed policy

let open_store dir =
  Xlog.open_ ~sync_every ~memtable_limit ~max_segments dir

(* Store open, base load and its compaction: the state every run starts
   from. *)
let preload inp dir =
  let log = open_store dir in
  for i = 0 to live - 1 do
    ignore (Xlog.insert log (Xmlcore.Xml_parser.parse_string inp.texts.(i)) : int)
  done;
  ignore (Xlog.compact ~wait:true log : bool);
  log

let setup inp dir =
  let log = preload inp dir in
  (log, serve ~name:"ingest-mixed" (Xserver.Server.Live log))

let close (log, conn) =
  shutdown conn;
  Xlog.close log

type outcome = {
  o_op : int;  (** index into [ops] *)
  o_ok : (digest, exn) Stdlib.result;  (** a query's ids, [] for a mutation *)
  o_dt : float;
}

(* One op over the wire; a mutation whose ack differs from the op
   stream's expectation is an error. *)
let wire_op client inp k =
  let t0 = now () in
  let r =
    try
      match inp.ops.(k) with
      | Insert id ->
        let got = Xserver.Client.insert client inp.texts.(id) in
        if got = id then Ok []
        else Error (Failure (Printf.sprintf "insert got id %d, expected %d" got id))
      | Query s -> Ok (Xserver.Client.query client inp.xpaths.(s))
      | Delete id ->
        if Xserver.Client.delete client id then Ok []
        else Error (Failure (Printf.sprintf "delete %d: not live" id))
    with e -> Error e
  in
  let dt = now () -. t0 in
  { o_op = k; o_ok = Result.map digest r; o_dt = dt }

(* Rebuilds the live set at every query step from the op stream and
   compares each answer with the oracle's; returns the failed count. *)
let check inp outcomes =
  let n = Array.length outcomes in
  let deleted_at = Hashtbl.create 1024 and next_id = Array.make n 0 in
  let ids = ref live in
  Array.iteri
    (fun i o ->
      (match inp.ops.(o.o_op) with
       | Insert _ -> incr ids
       | Delete id -> Hashtbl.replace deleted_at id i
       | Query _ -> ());
      next_id.(i) <- !ids)
    outcomes;
  let o = Oracle.create (docs inp) in
  let want =
    parallel_init n (fun i ->
        match inp.ops.(outcomes.(i).o_op) with
        | Query s ->
          let live id =
            match Hashtbl.find_opt deleted_at id with Some d -> d > i | None -> true
          in
          Oracle.answer o ~live ~n:next_id.(i)
            (Xquery.Xpath_parser.parse inp.xpaths.(s))
        | Insert _ | Delete _ -> [])
  in
  let failed = ref 0 in
  Array.iteri
    (fun i o ->
      match o.o_ok with
      | Ok d when d = digest want.(i) -> ()
      | _ -> incr failed)
    outcomes;
  !failed

let is_query inp o = match inp.ops.(o.o_op) with Query _ -> true | _ -> false
let is_insert inp o = match inp.ops.(o.o_op) with Insert _ -> true | _ -> false

(* XML bytes of the records live after [outcomes]: the data the store
   must hold. *)
let live_bytes inp outcomes =
  let inserted =
    Array.fold_left
      (fun n o -> match inp.ops.(o.o_op) with Insert _ -> n + 1 | _ -> n)
      0 outcomes
  in
  let b = ref 0 in
  for id = inserted to inserted + live - 1 do
    b := !b + String.length inp.texts.(id)
  done;
  !b

let run_e2e ~seed ~seconds =
  let inp = inputs seed in
  let dir = fresh_dir "ingest-mixed" in
  let ((log, (_, client)) as st), finish_setups =
    repeated_setup setup_repeats ~setup:(fun () -> setup inp dir)
      ~teardown:(fun st -> close st; ignore (fresh_dir "ingest-mixed"))
  in
  let c0 = counters client in
  let rss = rss_start ~seconds in
  let out = ref [] and k = ref 0 in
  let nops = Array.length inp.ops in
  let t_start = now () in
  let deadline = t_start +. seconds in
  while now () < deadline && !k < nops do
    out := wire_op client inp !k :: !out;
    incr k;
    rss_tick rss
  done;
  let window = now () -. t_start in
  let d = counters_delta c0 (counters client) in
  let segments = Xlog.segments log in
  let rss = rss_finish rss in
  close st;
  let disk = dir_bytes dir in
  ignore (fresh_dir "ingest-mixed");
  let setup_s = finish_setups () in
  rm_rf dir;
  let outcomes = Array.of_list (List.rev !out) in
  let failed = check inp outcomes in
  let attempted = Array.length outcomes in
  let qs = List.filter (is_query inp) (Array.to_list outcomes) in
  let ins = List.filter (is_insert inp) (Array.to_list outcomes) in
  let qlat = List.map (fun o -> o.o_dt) qs and ilat = List.map (fun o -> o.o_dt) ins in
  let tq = tail qlat and ti = tail ilat in
  let bytes = live_bytes inp outcomes in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "query_p50_ms" "ms" (median qlat *. 1e3);
        m "query_tail_ms" "ms" (tq.t_value *. 1e3);
        m "query_qps" "1/s" (float_of_int (List.length qs) /. window);
        m "rss_peak_mb" "MiB" rss;
        m "disk_bytes_per_input_byte" "ratio" (float_of_int disk /. float_of_int bytes);
      ];
    report =
      [
        describe inp;
        Printf.sprintf
          "closed loop, 1 connection, serial requests, %.1f s window, %d ops: \
           %d inserts, %d queries, %d deletes"
          window attempted (List.length ins) (List.length qs)
          (attempted - List.length ins - List.length qs);
        tail_line "query_tail_ms" tq;
        Printf.sprintf "insert_p50_ms %.4f, insert_tail_ms %.4f, insert_docs_per_s %.1f"
          (median ilat *. 1e3) (ti.t_value *. 1e3)
          (float_of_int (List.length ins) /. window);
        tail_line "insert_tail_ms" ti;
        Printf.sprintf "error_rate %.4f (%d of %d)" (per failed attempted) failed attempted;
        Printf.sprintf
          "disk: %d bytes in the store directory after close, for %d XML \
           bytes of live records; %d delta segments at the end of the window"
          disk bytes segments;
        Printf.sprintf
          "server Stats deltas: %.0f probes/query, plan cache hit rate %.3f"
          (d.probes /. float_of_int (max 1 (List.length qs)))
          (ratio d.cache_hits (d.cache_hits +. d.cache_misses));
      ];
  }

(* ---- traced run ----------------------------------------------------- *)

type replay_counts = {
  mutable flushes : int;
  mutable compactions : int;
  mutable segments_sum : int;
  mutable pending_sum : int;
  mutable queries : int;
  mutable inserts : int;
  mutable wal_bytes : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable minor : float;
  snapshots_seen : (string, int) Hashtbl.t;  (** base/checkpoint file -> bytes *)
}

(* Checkpoint and base snapshot files written so far (their largest
   size seen), found by listing the store directory. *)
let note_snapshots c dir =
  Array.iter
    (fun f ->
      if not (String.length f > 4 && String.sub f 0 4 = "wal-") then
        match file_bytes (Filename.concat dir f) with
        | b ->
          let prev = Option.value (Hashtbl.find_opt c.snapshots_seen f) ~default:0 in
          Hashtbl.replace c.snapshots_seen f (max prev b)
        | exception Unix.Unix_error _ -> ())
    (Sys.readdir dir)

(* Runs [f] on a worker domain of [pool] and waits for it, as the server
   runs every mutation and query: a background compaction thread then
   starts on a worker domain and competes with later ops there, not with
   the replaying domain.  The hand-off is the replay's stand-in for the
   server's, so the closure leaves its span ("dispatch") in the residual. *)
let on_worker pool f =
  let m = Mutex.create () and c = Condition.create () and r = ref None in
  Xutil.Domain_pool.async pool (fun () ->
      let v = try Ok (f ()) with e -> Error e in
      Mutex.lock m;
      r := Some v;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while Option.is_none !r do Condition.wait c m done;
  Mutex.unlock m;
  match Option.get !r with Ok v -> v | Error e -> raise e

(* The server's handling of each op, cut at the public calls it makes:
   codec, XML parse + Xlog.insert, XPath parse + plan lookup (Xlog.prepare
   on a miss) + Xlog.run_prepared, Xlog.remove.  A fresh store per
   replay, preloaded like the served one. *)
let replay inp dir ~ops ~stats =
  let module P = Xserver.Protocol in
  let log = preload inp dir in
  let pool = Xutil.Domain_pool.create ~domains:Xserver.Server.default_config.workers () in
  let on_worker f = Trace.span "dispatch" (fun () -> on_worker pool f) in
  let c =
    { flushes = 0; compactions = 0; segments_sum = 0; pending_sum = 0;
      queries = 0; inserts = 0; wal_bytes = 0; bytes_in = 0; bytes_out = 0;
      minor = 0.; snapshots_seen = Hashtbl.create 16 }
  in
  note_snapshots c dir;
  Hashtbl.reset c.snapshots_seen;
  let cache = Xserver.Plan_cache.create ~capacity:Xserver.Server.default_config.plan_cache_capacity in
  let answer xpath =
    on_worker @@ fun () ->
    let p = Trace.span "xpath.parse" (fun () -> Xquery.Xpath_parser.parse xpath) in
    let key = Xquery.Pattern.to_string p in
    let generation = Xlog.generation log in
    c.segments_sum <- c.segments_sum + Xlog.segments log;
    c.pending_sum <- c.pending_sum + Xlog.pending log;
    let run plan =
      Trace.span "xlog.query" (fun () ->
          let w0 = Gc.minor_words () in
          let ids =
            try Xlog.run_prepared ~stats log plan
            with Invalid_argument _ -> Xlog.query ~stats log p
          in
          c.minor <- c.minor +. (Gc.minor_words () -. w0);
          ids)
    in
    match Trace.span "plan" (fun () -> Xserver.Plan_cache.find cache ~generation key) with
    | Some plan -> run plan
    | None ->
      (match Trace.span "compile" (fun () -> Xlog.prepare log p) with
       | plan ->
         Xserver.Plan_cache.add cache ~generation key plan;
         run plan
       | exception Xquery.Instantiate.Too_many _ ->
         Trace.span "xlog.query" (fun () -> Xlog.query ~stats log p))
  in
  let serve req =
    on_worker @@ fun () ->
    match req with
    | P.Insert { xml } ->
      let doc = Trace.span "xmlcore.parse" (fun () -> Xmlcore.Xml_parser.parse_string xml) in
      P.Inserted { id = Trace.span "xlog.insert" (fun () -> Xlog.insert log doc) }
    | P.Delete { id } ->
      P.Deleted { existed = Trace.span "xlog.remove" (fun () -> Xlog.remove log id) }
    | _ -> failwith "replay: unexpected request"
  in
  let pos = ref (Xlog.wal_position log) and segs = ref (Xlog.segments log) in
  let results =
    Array.init ops (fun k ->
        Trace.req := k;
        let t0 = now () in
        let r =
          Trace.span "request" (fun () ->
              match inp.ops.(k) with
              | Insert id ->
                c.inserts <- c.inserts + 1;
                let r, bi, bo = codec (P.Insert { xml = inp.texts.(id) }) serve in
                c.bytes_in <- c.bytes_in + bi;
                c.bytes_out <- c.bytes_out + bo;
                (match r with
                 | P.Inserted { id = got } when got = id -> Ok []
                 | _ -> Error (Failure "replay insert"))
              | Delete id ->
                let r, bi, bo = codec (P.Delete { id }) serve in
                c.bytes_in <- c.bytes_in + bi;
                c.bytes_out <- c.bytes_out + bo;
                (match r with
                 | P.Deleted { existed = true } -> Ok []
                 | _ -> Error (Failure "replay delete"))
              | Query s ->
                c.queries <- c.queries + 1;
                let ids, bi, bo =
                  codec_query ~generation:(Xlog.generation log) inp.xpaths.(s) answer
                in
                c.bytes_in <- c.bytes_in + bi;
                c.bytes_out <- c.bytes_out + bo;
                Ok ids)
        in
        let dt = now () -. t0 in
        (* Seals raise the segment count, compaction installs drop it. *)
        let s = Xlog.segments log in
        if s > !segs then c.flushes <- c.flushes + (s - !segs)
        else if s < !segs then begin
          c.compactions <- c.compactions + 1;
          note_snapshots c dir
        end;
        segs := s;
        let p = Xlog.wal_position log in
        c.wal_bytes <-
          c.wal_bytes
          + (if p.Xlog.Wal.file = !pos.Xlog.Wal.file then p.off - !pos.off
             else p.off - Xlog.Wal.start_position.off);
        pos := p;
        { o_op = k; o_ok = Result.map digest r; o_dt = dt })
  in
  Xlog.close log;
  Xutil.Domain_pool.shutdown pool;
  note_snapshots c dir;
  (results, c)

let run_trace ~seed ~spans_file =
  let inp = inputs seed in
  let ops = min trace_ops (Array.length inp.ops) in
  (* Layer shape of the base the store compacts to. *)
  let dir = fresh_dir "ingest-mixed-layers" in
  let base = Array.sub inp.texts 0 live in
  let parsed = Array.map Xmlcore.Xml_parser.parse_string base in
  let index, build_s = time (fun () -> Xseq.build parsed) in
  let shape = index_layer_metrics ~dir ~build_s index in
  rm_rf dir;
  (* The wire pass: the same op prefix every traced run. *)
  let dir = fresh_dir "ingest-mixed-wire" in
  let ((_, (_, client)) as st) = setup inp dir in
  let c0 = counters client in
  let t_wire = now () in
  let wire = Array.init ops (fun k -> wire_op client inp k) in
  let wire_s = now () -. t_wire in
  let d = counters_delta c0 (counters client) in
  close st;
  rm_rf dir;
  (* Untraced, then traced replay, each on a fresh store. *)
  let dir = fresh_dir "ingest-mixed-replay" in
  let untraced, _ = replay inp dir ~ops ~stats:(Xquery.Matcher.create_stats ()) in
  let dir = fresh_dir "ingest-mixed-replay" in
  let stats = Xquery.Matcher.create_stats () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  Trace.reset ();
  Trace.enabled := true;
  let traced, c = replay inp dir ~ops ~stats in
  Trace.enabled := false;
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  rm_rf dir;
  (* Compile counts and the dedupe split, against the compacted base. *)
  let labeled = Xseq.labeled index in
  let dedupe = ref 0. and insts = ref 0 and seqs = ref 0 in
  Array.iter
    (fun o ->
      match inp.ops.(o.o_op) with
      | Query s ->
        let p = Xquery.Xpath_parser.parse inp.xpaths.(s) in
        (match
           Xquery.Engine.compile ~strategy:(Xseq.strategy index)
             ~value_mode:(Xseq.value_mode index) labeled p
         with
         | plans ->
           let _, collect_s =
             time (fun () -> Xquery.Matcher.run_collect labeled plans)
           in
           dedupe := !dedupe +. Qmem.dedupe_probe labeled plans collect_s;
           seqs := !seqs + List.length plans;
           insts := !insts + Qmem.instantiations index p
         | exception Xquery.Instantiate.Too_many _ -> ())
      | _ -> ())
    traced;
  Trace.write spans_file;
  let failed = check inp wire + check inp traced in
  let wire_times = Array.to_list (Array.map (fun o -> o.o_dt) wire) in
  let e2e_s = mean wire_times in
  let residual, closure =
    closure_report ~wire:true ~workload:"ingest-mixed" ~e2e_s
      ~e2e_median_s:(median wire_times) ~requests:ops ~request:"request"
      [ "protocol.encode"; "protocol.decode"; "xmlcore.parse"; "xlog.insert";
        "xlog.remove"; "xpath.parse"; "plan"; "compile"; "xlog.query" ]
  in
  let totals = Trace.self_totals () in
  let total name = snd (totals name) in
  let avg name =
    let n, t = totals name in
    ratio t (float_of_int n) *. 1e6
  in
  let fq = float_of_int (max 1 c.queries) and fops = float_of_int ops in
  let docs =
    Array.fold_left
      (fun a o -> match o.o_ok with Ok d when is_query inp o -> a + d.d_len | _ -> a)
      0 traced
  in
  let ins = List.filter (is_insert inp) (Array.to_list wire) in
  let ilat = List.map (fun o -> o.o_dt) ins in
  let ti = tail ilat in
  let bytes =
    Array.fold_left
      (fun a o ->
        match inp.ops.(o.o_op) with
        | Insert id -> a + String.length inp.texts.(id)
        | _ -> a)
      0 traced
  in
  let snap_bytes = Hashtbl.fold (fun _ b a -> a + b) c.snapshots_seen 0 in
  let kdoc = float_of_int c.inserts /. 1000. in
  let mean_of a = mean (Array.to_list (Array.map (fun o -> o.o_dt) a)) in
  let metrics =
    layer_metrics
      (shape
      @ [
          ("xmlcore.parse_us_per_doc", avg "xmlcore.parse");
          ("xpath.parse_us", avg "xpath.parse");
          ("compile.us_per_query", total "compile" /. fq *. 1e6);
          ("compile.instantiations_per_query", float_of_int !insts /. fq);
          ("compile.sequences_per_query", float_of_int !seqs /. fq);
          ("match.us_per_query", total "xlog.query" /. fq *. 1e6);
          ("match.probes_per_query", float_of_int stats.probes /. fq);
          ("match.candidates_per_query", float_of_int stats.candidates /. fq);
          ("match.rejected_per_query", float_of_int stats.rejected /. fq);
          ("match.matches_per_query", float_of_int stats.matches /. fq);
          ("match.docs_per_query", float_of_int docs /. fq);
          ("match.docs_per_match", per docs stats.matches);
          ("match.minor_words_per_query", c.minor /. fq);
          ("match.dedupe_us_per_query", !dedupe /. fq *. 1e6);
          ("protocol.decode_us", total "protocol.decode" /. fops *. 1e6);
          ("protocol.encode_us", total "protocol.encode" /. fops *. 1e6);
          ("protocol.bytes_in_per_req", float_of_int c.bytes_in /. fops);
          ("protocol.bytes_out_per_req", float_of_int c.bytes_out /. fops);
          ("server.plan_cache_hit_rate",
           ratio d.cache_hits (d.cache_hits +. d.cache_misses));
          ("server.latency_ms_mean", ratio d.latency_ms_sum fops);
          ("server.probes_per_query", d.probes /. fq);
          ("server.residual_us", residual *. 1e6);
          ("xlog.insert_us", avg "xlog.insert");
          ("xlog.query_us", avg "xlog.query");
          ("xlog.flushes_per_kdoc", float_of_int c.flushes /. kdoc);
          ("xlog.compactions_per_kdoc", float_of_int c.compactions /. kdoc);
          ("xlog.segments_at_query", float_of_int c.segments_sum /. fq);
          ("xlog.pending_at_query", float_of_int c.pending_sum /. fq);
          ("xlog.wal_bytes_per_input_byte", ratio (float_of_int c.wal_bytes) (float_of_int bytes));
          ("xlog.bytes_written_per_input_byte",
           ratio (float_of_int (c.wal_bytes + snap_bytes)) (float_of_int bytes));
          ("ingest.insert_p50_ms", median ilat *. 1e3);
          ("ingest.insert_tail_ms", ti.t_value *. 1e3);
          ("ingest.insert_docs_per_s", float_of_int (List.length ins) /. wire_s);
          ("gc.major_per_kop", float_of_int majors /. fops *. 1000.);
          ("trace.overhead_ratio", ratio (mean_of traced) (mean_of untraced));
        ])
  in
  {
    correct = failed = 0;
    attempted = 2 * ops;
    failed;
    metrics;
    report =
      (describe inp
       :: Printf.sprintf
            "%d wire ops, then the same ops replayed in-process (untraced, \
             traced) on fresh stores; spans in %s"
            ops spans_file
       :: Printf.sprintf "error_rate %.4f (%d of %d)" (per failed (2 * ops)) failed (2 * ops)
       :: tail_line "ingest.insert_tail_ms" ti
       :: cross_check "matcher probes" ~server:d.probes ~replay:(float_of_int stats.probes)
       :: "  (a probe gap here comes from background compaction finishing at \
           different points of the op stream on the two stores)"
       :: closure);
  }
