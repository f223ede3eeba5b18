(* Shared plumbing for the workloads: clocks, sample statistics, the
   brute-force oracle, span recording, Stats JSON probes and the result
   record every workload returns. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- sample statistics ---------------------------------------------- *)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l =
  match l with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

type tail = { t_value : float; t_pct : float; t_n : int; t_blocks : int }

let tail_block = 500

(* The highest percentile with at least ten samples beyond it (the
   eleventh-largest sample), taken in every block of [tail_block]
   consecutive samples and reported as the median over the blocks.  A
   fixed block keeps the percentile (p98) the same however many requests
   a run completes, and the median over blocks keeps one stall from
   deciding the figure.  A sample smaller than one block is one block. *)
let tail samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  let eleventh b =
    let b = Array.copy b in
    Array.sort Float.compare b;
    let i = max 0 (Array.length b - 11) in
    (b.(i), 100. *. float_of_int (i + 1) /. float_of_int (Array.length b))
  in
  if n = 0 then { t_value = 0.; t_pct = 0.; t_n = 0; t_blocks = 0 }
  else
    let blocks =
      if n < tail_block then [ a ]
      else List.init (n / tail_block) (fun k -> Array.sub a (k * tail_block) tail_block)
    in
    let tails = List.map eleventh blocks in
    { t_value = median (List.map fst tails); t_pct = snd (List.hd tails); t_n = n;
      t_blocks = List.length blocks }

let tail_line name t =
  Printf.sprintf "%s is p%.1f, median over %d blocks of %d of %d samples" name
    t.t_pct t.t_blocks (min tail_block t.t_n) t.t_n

let ratio a b = if b = 0. then 0. else a /. b
let per a n = ratio (float_of_int a) (float_of_int n)

(* Set-up runs [k] times, each from a compacted heap so that no run
   pays for garbage another left.  The box's speed drifts over seconds,
   so the set-ups are spread over the run instead of run back to back:
   the first half runs now, and all but the last of those are torn down;
   the returned function runs the second half (each torn down) and gives
   the median of all [k].  Call it after the timed window, once its state
   is torn down. *)
let repeated_setup k ~setup ~teardown =
  let timed () =
    Gc.compact ();
    time setup
  in
  let rec go k times =
    let st, dt = timed () in
    if k <= 1 then (st, dt :: times)
    else begin
      teardown st;
      go (k - 1) (dt :: times)
    end
  in
  let st, before = go ((k + 1) / 2) [] in
  Gc.compact ();
  let finish () =
    let after =
      List.init (k / 2) (fun _ ->
          let st, dt = timed () in
          teardown st;
          dt)
    in
    median (before @ after)
  in
  (st, finish)

(* ---- process and files ---------------------------------------------- *)

(* Peak resident set of this process (VmHWM), in MiB. *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec loop () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> loop ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) loop in
  float_of_int kb /. 1024.

(* Restarts the peak count at the current resident size, so that a later
   [rss_peak_mb] covers only what ran since. *)
let reset_rss_peak () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(* Peak resident memory over a timed window, cut into [rss_slices]
   slices: each slice's peak is read (and the count restarted) as the
   loop crosses its end, and the median slice peak is the figure.  One
   transient spike, such as a compaction that overlaps a seal, then does
   not decide it; memory that a change adds to every slice does. *)
let rss_slices = 5

type rss_probe = { slice : float; mutable next : float; mutable peaks : float list }

let rss_start ~seconds =
  reset_rss_peak ();
  let slice = seconds /. float_of_int rss_slices in
  { slice; next = now () +. slice; peaks = [] }

let rss_tick p =
  if now () >= p.next then begin
    p.peaks <- rss_peak_mb () :: p.peaks;
    reset_rss_peak ();
    p.next <- p.next +. p.slice
  end

let rss_finish p = median (rss_peak_mb () :: p.peaks)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let file_bytes path = (Unix.stat path).Unix.st_size

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + file_bytes (Filename.concat dir f))
    0 (Sys.readdir dir)

(* Every file the benchmark writes lives under this directory of the
   checkout it runs in. *)
let work_root = ".perfbench"

let fresh_dir name =
  let d = Filename.concat work_root name in
  rm_rf d;
  mkdir_p d;
  d

(* ---- oracle --------------------------------------------------------- *)

(* [f] over every index, split across two domains.  The oracle runs
   outside every timed window, so spreading it only shortens the run. *)
let parallel_init n f =
  let domains = 2 in
  let out = Array.make n [] in
  let work lo hi () = for i = lo to hi - 1 do out.(i) <- f i done in
  let chunk = (n + domains - 1) / domains in
  let spawned =
    List.init (domains - 1) (fun d ->
        let lo = min n ((d + 1) * chunk) and hi = min n ((d + 2) * chunk) in
        Domain.spawn (work lo hi))
  in
  work 0 (min n chunk) ();
  List.iter Domain.join spawned;
  out

(* The reference answer is Embedding.matches, the brute-force injective
   embedding test, on every document that carries each tag and value the
   pattern names: a document lacking one has nothing to map that pattern
   node to, so skipping it cannot change the answer. *)
module Oracle = struct
  type t = {
    docs : Xmlcore.Xml_tree.t array;
    postings : (string, int list) Hashtbl.t;  (** label -> ids, descending *)
  }

  let rec labels_of_tree acc = function
    | Xmlcore.Xml_tree.Element (d, cs) ->
      List.fold_left labels_of_tree
        (("t:" ^ Xmlcore.Designator.name d) :: acc) cs
    | Xmlcore.Xml_tree.Value v -> ("v:" ^ v) :: acc

  let create docs =
    let postings = Hashtbl.create 4096 in
    Array.iteri
      (fun id doc ->
        List.iter
          (fun l ->
            match Hashtbl.find_opt postings l with
            | Some (top :: _) when top = id -> ()
            | Some ids -> Hashtbl.replace postings l (id :: ids)
            | None -> Hashtbl.replace postings l [ id ])
          (labels_of_tree [] doc))
      docs;
    { docs; postings }

  let rec labels_of_pattern acc (p : Xquery.Pattern.t) =
    let acc =
      match p.test with
      | Tag s -> ("t:" ^ s) :: acc
      | Text v -> ("v:" ^ v) :: acc
      | Star | Text_prefix _ -> acc
    in
    List.fold_left labels_of_pattern acc p.children

  (* Ascending ids among [0, n) that satisfy [live] and match. *)
  let answer ?(live = fun _ -> true) t ~n pattern =
    let candidates =
      List.fold_left
        (fun best l ->
          let ids = Option.value (Hashtbl.find_opt t.postings l) ~default:[] in
          match best with
          | Some (b, bl) when bl <= List.length ids -> Some (b, bl)
          | _ -> Some (ids, List.length ids))
        None (labels_of_pattern [] pattern)
    in
    let ids =
      match candidates with
      | Some (ids, _) -> List.rev ids
      | None -> List.init (Array.length t.docs) Fun.id
    in
    List.filter
      (fun i -> i < n && live i && Xquery.Embedding.matches pattern t.docs.(i))
      ids
end

(* An answer kept for checking after the timed window: its length and a
   63-bit mix of every id in order.  Keeping digests instead of id lists
   keeps the benchmark's own memory independent of how many requests a
   run completes. *)
type digest = { d_len : int; d_hash : int }

let digest ids =
  let rec go n h = function
    | [] -> { d_len = n; d_hash = h }
    | id :: rest ->
      let h = (h lxor id) * 0x100000001b3 in
      go (n + 1) (h lxor (h lsr 31)) rest
  in
  go 0 0x2545f4914f6cdd1d ids

(* ---- result record -------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  report : string list;  (** human-readable lines printed before the JSON *)
}

let m m_name m_unit m_value = { m_name; m_value; m_unit }

(* ---- spans ---------------------------------------------------------- *)

module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** -1 for a root span *)
    req : int;
    start : float;
    mutable stop : float;
  }

  let enabled = ref false
  let spans : span list ref = ref []
  let next_id = ref 0
  let stack : span list ref = ref []
  let req = ref 0

  let reset () =
    spans := [];
    next_id := 0;
    stack := []

  let span name f =
    if not !enabled then f ()
    else begin
      let parent = match !stack with s :: _ -> s.id | [] -> -1 in
      let s =
        { id = !next_id; name; parent; req = !req; start = now (); stop = 0. }
      in
      incr next_id;
      stack := s :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.stop <- now ();
          stack := List.tl !stack;
          spans := s :: !spans)
        f
    end

  let dur s = s.stop -. s.start

  (* Self time of every span: its duration minus the time its children
     cover (children of one span never overlap: calls are sequential). *)
  let self_times () =
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
      !spans;
    List.map
      (fun s ->
        (s, dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
      !spans

  (* Span count and total self time per span name, over every recorded
     span. *)
  let self_totals () =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s, self) ->
        let c, t = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.) in
        Hashtbl.replace tbl s.name (c + 1, t +. self))
      (self_times ());
    fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0.)

  let write path =
    let oc = open_out path in
    let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity !spans in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \
           \"start_us\": %.1f, \"end_us\": %.1f}\n"
          s.id s.name s.parent s.req
          ((s.start -. t0) *. 1e6)
          ((s.stop -. t0) *. 1e6))
      (List.rev !spans);
    close_out oc
end

(* Closure: the share of the end-to-end request time each layer's self
   time accounts for.  [e2e_s] is the mean request time being explained;
   [names] the layer span names, [request] the root span name.
   With [~wire:true] the residual is the request time no replayed layer
   covers (socket I/O, event-core queueing, worker hand-off) and only a
   negative residual — layers that take longer than the request itself —
   is flagged; in-process, any gap over 10% is. *)
let closure_report ~wire ~workload ~e2e_s ~e2e_median_s ~requests ~request names =
  let totals = Trace.self_totals () in
  let per_req name = snd (totals name) /. float_of_int (max 1 requests) in
  let layers = List.map (fun n -> (n, per_req n)) (request :: names) in
  let covered = List.fold_left (fun a (_, t) -> a +. t) 0. layers in
  let residual = e2e_s -. covered in
  let lines =
    Printf.sprintf
      "closure %s: end-to-end median %.3f ms, mean %.3f ms over %d requests"
      workload (e2e_median_s *. 1e3) (e2e_s *. 1e3) requests
    :: List.map
         (fun (n, t) ->
           Printf.sprintf "  %-22s %9.1f us  %5.1f%%"
             (if n = request then n ^ " (self)" else n)
             (t *. 1e6)
             (100. *. ratio t e2e_s))
         layers
  in
  let flag =
    if (if wire then residual < -0.10 *. e2e_s
        else Float.abs residual > 0.10 *. e2e_s)
    then
      [ Printf.sprintf
          "  !! closure %s: replayed layers cover %.1f%% of the request time \
           (residual %.1f us)"
          workload (100. *. ratio covered e2e_s) (residual *. 1e6) ]
    else []
  in
  (residual, lines @ [ Printf.sprintf "  %-22s %9.1f us  %5.1f%%" "residual"
                         (residual *. 1e6) (100. *. ratio residual e2e_s) ]
             @ flag)

(* ---- Stats JSON ----------------------------------------------------- *)

(* The number after ["key": ] inside the object that follows
   ["section": ], or at top level when [section] is "". *)
let json_num ?(section = "") json key =
  let find_from s pat from =
    let n = String.length pat and m = String.length s in
    let rec go i =
      if i + n > m then raise Not_found
      else if String.sub s i n = pat then i + n
      else go (i + 1)
    in
    go from
  in
  let start =
    if section = "" then 0 else find_from json ("\"" ^ section ^ "\": {") 0
  in
  let i = find_from json ("\"" ^ key ^ "\": ") start in
  let j = ref i in
  while
    !j < String.length json
    && (match json.[!j] with '0' .. '9' | '.' | '-' | 'e' -> true | _ -> false)
  do
    incr j
  done;
  float_of_string (String.sub json i (!j - i))

type server_counters = {
  probes : float;
  page_reads : float;
  cache_hits : float;
  cache_misses : float;
  latency_ms_sum : float;
}

let server_counters json =
  {
    probes = json_num ~section:"matcher" json "probes";
    page_reads = json_num ~section:"store" json "page_reads";
    cache_hits = json_num ~section:"plan_cache" json "hits";
    cache_misses = json_num ~section:"plan_cache" json "misses";
    latency_ms_sum = json_num json "latency_ms_sum";
  }

let counters client = server_counters (Xserver.Client.stats client)

let counters_delta a b =
  {
    probes = b.probes -. a.probes;
    page_reads = b.page_reads -. a.page_reads;
    cache_hits = b.cache_hits -. a.cache_hits;
    cache_misses = b.cache_misses -. a.cache_misses;
    latency_ms_sum = b.latency_ms_sum -. a.latency_ms_sum;
  }

(* Compares a server-exported counter delta with the replay's count;
   a gap is reported by name, never hidden. *)
let cross_check name ~server ~replay =
  if server = replay then Printf.sprintf "cross-check %s: server %.0f = replay %.0f" name server replay
  else
    Printf.sprintf "cross-check %s: GAP server %.0f vs replay %.0f (%+.0f)" name
      server replay (server -. replay)

(* ---- inputs --------------------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] ranks drawn Zipf(s) over [ranks], by systematic sampling: each
   block of [tail_block] draws takes the rank at [tail_block] evenly
   spaced points of the cumulative distribution, shifted by one random
   offset, and is then shuffled.  Every block then asks nearly the same
   mix, so the block tails of [tail] compare like with like; the seed
   decides the order and which rare ranks a block reaches. *)
let zipf_stream ~s ~ranks rng n =
  let cdf = Array.make ranks 0. in
  let acc = ref 0. in
  for i = 0 to ranks - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  let rank u =
    let rec bs lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then bs (mid + 1) hi else bs lo mid
    in
    bs 0 (ranks - 1)
  in
  let block () =
    let off = Random.State.float rng 1. in
    let b =
      Array.init tail_block (fun j ->
          rank ((float_of_int j +. off) /. float_of_int tail_block *. !acc))
    in
    shuffle rng b;
    b
  in
  Array.sub (Array.concat (List.init ((n / tail_block) + 1) (fun _ -> block ()))) 0 n

(* [a] and [b] merged into one ranking with [b]'s items at every
   [every]-th rank (and after [a] runs out): a Zipf draw over the ranking
   then sends the same share of requests to [b] under every seed. *)
let interleave ~every a b =
  let na = Array.length a and nb = Array.length b in
  let ia = ref 0 and ib = ref 0 in
  Array.init (na + nb) (fun r ->
      if !ib < nb && ((r + 1) mod every = 0 || !ia >= na) then begin
        incr ib;
        b.(!ib - 1)
      end
      else begin
        incr ia;
        a.(!ia - 1)
      end)

let rec has_value (p : Xquery.Pattern.t) =
  (match p.test with Text _ -> true | _ -> false) || List.exists has_value p.children

let rec has_wild (p : Xquery.Pattern.t) =
  p.test = Star || p.axis = Descendant || List.exists has_wild p.children

(* Distinct renderable XPaths drawn by Query_gen from [docs]. *)
let distinct_xpaths ?(keep = fun _ -> true) ~seed ~opts ~want docs =
  let seen = Hashtbl.create (2 * want) in
  let out = ref [] in
  let rec go seed guard =
    if Hashtbl.length seen < want && guard < 40 then begin
      List.iter
        (fun p ->
          if Hashtbl.length seen < want then
            match if keep p then Xp.of_pattern p else None with
            | Some x when not (Hashtbl.mem seen x) ->
              Hashtbl.add seen x ();
              out := x :: !out
            | _ -> ())
        (Xdatagen.Query_gen.generate ~seed ~opts docs want);
      go (seed + 7919) (guard + 1)
    end
  in
  go seed 0;
  List.rev !out

(* ---- the per-layer catalogue ------------------------------------------ *)

(* Every traced run reports every name; a layer that is not on a
   workload's request path reports 0 there (see NOTES.md). *)
let layer_catalogue =
  [
    ("xmlcore.parse_us_per_doc", "us");
    ("xpath.parse_us", "us");
    ("compile.us_per_query", "us");
    ("compile.instantiations_per_query", "count");
    ("compile.sequences_per_query", "count");
    ("match.us_per_query", "us");
    ("match.probes_per_query", "count");
    ("match.candidates_per_query", "count");
    ("match.rejected_per_query", "count");
    ("match.matches_per_query", "count");
    ("match.docs_per_query", "count");
    ("match.docs_per_match", "ratio");
    ("match.minor_words_per_query", "words");
    ("match.dedupe_us_per_query", "us");
    ("build.s", "s");
    ("xindex.trie_nodes", "count");
    ("sequencing.avg_seq_len", "count");
    ("store.save_s", "s");
    ("store.load_s", "s");
    ("store.page_reads_per_query", "count");
    ("store.page_hits_per_query", "count");
    ("store.pool_hit_ratio", "ratio");
    ("store.snapshot_bytes", "bytes");
    ("succinct.compression_ratio", "ratio");
    ("protocol.decode_us", "us");
    ("protocol.encode_us", "us");
    ("protocol.bytes_in_per_req", "bytes");
    ("protocol.bytes_out_per_req", "bytes");
    ("server.plan_cache_hit_rate", "ratio");
    ("server.latency_ms_mean", "ms");
    ("server.probes_per_query", "count");
    ("server.page_reads_per_query", "count");
    ("server.residual_us", "us");
    ("xlog.insert_us", "us");
    ("xlog.query_us", "us");
    ("xlog.flushes_per_kdoc", "count");
    ("xlog.compactions_per_kdoc", "count");
    ("xlog.segments_at_query", "count");
    ("xlog.pending_at_query", "count");
    ("xlog.wal_bytes_per_input_byte", "ratio");
    ("xlog.bytes_written_per_input_byte", "ratio");
    ("ingest.insert_p50_ms", "ms");
    ("ingest.insert_tail_ms", "ms");
    ("ingest.insert_docs_per_s", "1/s");
    ("gc.major_per_kop", "count");
    ("trace.overhead_ratio", "ratio");
  ]

(* The catalogue filled from [values]; an unknown name is a bug here. *)
let layer_metrics values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n layer_catalogue) then
        invalid_arg ("unknown per-layer metric " ^ n))
    values;
  List.map
    (fun (n, u) -> m n u (Option.value (List.assoc_opt n values) ~default:0.))
    layer_catalogue

(* Index-shape and snapshot metrics of one built index, shared by every
   workload's traced run: build time, save and load of the snapshot
   format the workload serves ([format], opened [mode]), and the
   xseqcol1 / xseqcol2 size ratio. *)
let index_layer_metrics ?(format = Xstorage.Store.Col1)
    ?(mode = Xstorage.Store.Resident) ~dir ~build_s index =
  let col1 = Filename.concat dir "layers.xseq"
  and col2 = Filename.concat dir "layers.xseqz" in
  let served = if format = Xstorage.Store.Col1 then col1 else col2 in
  let (), save_s = time (fun () -> Xseq.save ~format index served) in
  let _, load_s = time (fun () -> Xseq.load ~mode served) in
  let other = if served = col1 then col2 else col1 in
  Xseq.save
    ~format:(if served = col1 then Xstorage.Store.Col2 else Xstorage.Store.Col1)
    index other;
  let b1 = file_bytes col1 and b2 = file_bytes col2 in
  let served_bytes = file_bytes served in
  Sys.remove col1;
  Sys.remove col2;
  [
    ("build.s", build_s);
    ("xindex.trie_nodes", float_of_int (Xseq.node_count index));
    ("sequencing.avg_seq_len", Xseq.average_sequence_length index);
    ("store.save_s", save_s);
    ("store.load_s", load_s);
    ("store.snapshot_bytes", float_of_int served_bytes);
    ("succinct.compression_ratio", ratio (float_of_int b1) (float_of_int b2));
  ]

(* ---- the wire ------------------------------------------------------- *)

(* A server on a Unix socket under the work directory, and one client. *)
let serve ?config ~name source =
  let sock = Filename.concat work_root (name ^ ".sock") in
  let addr = Xserver.Server.Unix_sock sock in
  let server = Xserver.Server.create ?config source in
  Xserver.Server.start server [ addr ];
  (server, Xserver.Client.connect addr)

let shutdown (server, client) =
  Xserver.Client.close client;
  Xserver.Server.stop server

(* One request through the codec, both directions, as the client and
   the server see it; [serve] answers the decoded request.  Returns the
   decoded response and the request/response frame sizes. *)
let codec req serve =
  let module P = Xserver.Protocol in
  let inb = Trace.span "protocol.encode" (fun () -> P.encode_request req) in
  let req' =
    match Trace.span "protocol.decode" (fun () -> P.decode_request inb) with
    | Ok r -> r
    | Error e -> failwith ("codec: request did not round-trip: " ^ e)
  in
  let resp = serve req' in
  let outb = Trace.span "protocol.encode" (fun () -> P.encode_response resp) in
  match Trace.span "protocol.decode" (fun () -> P.decode_response outb) with
  | Ok r -> (r, String.length inb, String.length outb)
  | Error e -> failwith ("codec: response did not round-trip: " ^ e)

(* A Query through [codec]; [answer] computes the ids from the XPath. *)
let codec_query ~generation xpath answer =
  let module P = Xserver.Protocol in
  match
    codec (P.Query { xpath; timeout_ms = 0 }) (function
      | P.Query { xpath; _ } -> P.Result { generation; ids = answer xpath }
      | _ -> failwith "codec: not a query")
  with
  | P.Result { ids; _ }, bin, bout -> (ids, bin, bout)
  | _ -> failwith "codec: not a result"
