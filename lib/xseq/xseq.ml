module Pattern = Xquery.Pattern
module Xpath = Xquery.Xpath_parser
module T = Xmlcore.Xml_tree
module Strategy = Sequencing.Strategy
module Encoder = Sequencing.Encoder
module Domain_pool = Xutil.Domain_pool
module Pager = Xstorage.Pager

type sequencing =
  | Depth_first of { canonical : bool }
  | Breadth_first of { canonical : bool }
  | Random of int
  | Probability
  | Probability_weighted of (Sequencing.Path.t -> float)
  | Custom of Strategy.t

type config = {
  sequencing : sequencing;
  value_mode : Encoder.value_mode;
  sample_fraction : float;
  sample_seed : int;
  bulk : bool;
  keep_documents : bool;
}

let default_config =
  {
    sequencing = Probability;
    value_mode = Encoder.Hashed;
    sample_fraction = 1.0;
    sample_seed = 42;
    bulk = true;
    keep_documents = true;
  }

type t = {
  labeled : Xindex.Labeled.t;
  strategy : Strategy.t;
  value_mode : Encoder.value_mode;
  docs : T.t array option;
  ndocs : int;
  total_seq_len : int;
  stats : Xschema.Stats.t option;
  built_config : config; (* for persistence: how the strategy was derived *)
  generation : int; (* process-unique stamp; see [generation] in the mli *)
}

(* Every index constructed in this process — built, loaded, or rebuilt by
   [Dynamic] — gets a distinct generation, so a prepared query can prove
   it belongs to the index it is run against.  The counter is atomic
   because [Dynamic] rebuilds may race with concurrent builds (e.g. a
   server hot-swapping snapshots while another domain builds). *)
let generation_counter = Atomic.make 1
let next_generation () = Atomic.fetch_and_add generation_counter 1

let resolve_strategy config docs =
  match config.sequencing with
  | Depth_first _ -> (Strategy.Depth_first, None)
  | Breadth_first _ -> (Strategy.Breadth_first, None)
  | Random seed -> (Strategy.Random seed, None)
  | Custom s -> (s, None)
  | Probability | Probability_weighted _ ->
    let stats =
      if config.sample_fraction >= 1.0 then
        Xschema.Stats.of_documents_array ~value_mode:config.value_mode docs
      else
        Xschema.Stats.sample ~value_mode:config.value_mode
          ~fraction:config.sample_fraction ~seed:config.sample_seed docs
    in
    let base = Xschema.Stats.priority stats in
    let prio =
      match config.sequencing with
      | Probability_weighted w -> fun p -> base p *. w p
      | _ -> base
    in
    (Strategy.Probability prio, Some stats)

let canonicalize config doc =
  match config.sequencing with
  | Depth_first { canonical = true } | Breadth_first { canonical = true } ->
    T.sort_by_tag doc
  | Depth_first { canonical = false }
  | Breadth_first { canonical = false }
  | Random _ | Probability | Probability_weighted _ | Custom _ -> doc

(* Runs [f] with the caller's pool when one is supplied, otherwise with a
   transient pool of [domains] workers (default 1 = inline, no domains
   spawned — the exact sequential code path). *)
let with_pool_opt ?domains ?pool f =
  match pool with
  | Some p -> f p
  | None ->
    let domains = match domains with Some d -> d | None -> 1 in
    Domain_pool.with_pool ~domains f

let build ?domains ?pool ?(config = default_config) docs =
  (* Deterministic phase discipline (DESIGN.md): the global designator and
     path intern tables are unsynchronised, so every phase that can intern
     runs sequentially first — in exactly the order the pure sequential
     build interns — and the parallel phase below performs only read-only
     lookups.  That makes the parallel build both safe and label-identical
     to the sequential one. *)
  (* Phase 1 (sequential, interns): probability statistics. *)
  let strategy, stats = resolve_strategy config docs in
  (* Phase 2 (sequential, interns): global identical-sibling flags, in
     document order.  Paths occurring twice in any document must be
     sequenced subtree-contiguously everywhere, or query sequences cannot
     align with data sequences (see Encoder.encode).  As a side effect
     this pass interns every designator and path the encoder will touch —
     [multiple_paths] and [encode] expand and flatten the same tree. *)
  let ident_set = Hashtbl.create 256 in
  Array.iter
    (fun doc ->
      List.iter
        (fun p -> Hashtbl.replace ident_set p ())
        (Encoder.multiple_paths ~value_mode:config.value_mode doc))
    docs;
  let ident p = Hashtbl.mem ident_set p in
  (* Phase 3 (sequential, interns): canonicalisation.  Tag-sorting
     interns whole-string value designators — new ones under the Text
     value mode, whose encoder only interns per-character designators —
     so it too must stay sequential and in document order. *)
  let canon =
    match config.sequencing with
    | Depth_first { canonical = true } | Breadth_first { canonical = true } ->
      Array.map (canonicalize config) docs
    | Depth_first _ | Breadth_first _ | Random _ | Probability
    | Probability_weighted _ | Custom _ ->
      docs
  in
  (* Phase 4 (parallel, read-only): encoding.  Pure per document — it
     reads the now-frozen intern tables, ident set and statistics. *)
  let seqs =
    with_pool_opt ?domains ?pool (fun p ->
        Domain_pool.map p
          (Encoder.encode ~value_mode:config.value_mode ~ident ~strategy)
          canon)
  in
  let total_seq_len = Array.fold_left (fun n s -> n + Array.length s) 0 seqs in
  (* Phase 5 (sequential): loading.  [bulk_load] sorts the sequences, so
     it is insertion-order-independent; the non-bulk path replays the
     sequential insertion order exactly. *)
  let trie = Xindex.Trie.create () in
  if config.bulk then
    Xindex.Trie.bulk_load trie (Array.mapi (fun i seq -> (seq, i)) seqs)
  else Array.iteri (fun i seq -> Xindex.Trie.insert trie seq ~doc:i) seqs;
  let labeled = Xindex.Labeled.of_trie trie in
  {
    labeled;
    strategy;
    value_mode = config.value_mode;
    docs = (if config.keep_documents then Some docs else None);
    ndocs = Array.length docs;
    total_seq_len;
    stats;
    built_config = config;
    generation = next_generation ();
  }

let query ?pager ?stats t pattern =
  match
    Xquery.Engine.query ?pager ?stats ~strategy:t.strategy
      ~value_mode:t.value_mode t.labeled pattern
  with
  | ids -> ids
  | exception Xquery.Instantiate.Too_many _ ->
    (* Pathological wildcard/expansion blow-up: degrade to an exact
       linear scan rather than failing, when the records are at hand. *)
    (match t.docs with
     | Some docs -> Xquery.Embedding.filter pattern docs
     | None -> raise (Xquery.Instantiate.Too_many 0))

let query_xpath ?pager ?stats t s = query ?pager ?stats t (Xpath.parse s)
let contains t pattern doc = List.mem doc (query t pattern)

(* --- batched execution ---------------------------------------------------- *)

type batch_io = {
  io_pages_touched : int;
  io_misses : int;
  io_accesses : int;
}

(* Contiguous ranges of [n] items split into at most [chunks] pieces. *)
let chunk_ranges n chunks =
  let chunks = max 1 (min n chunks) in
  Array.init chunks (fun c ->
      let lo = c * n / chunks and hi = (c + 1) * n / chunks in
      (lo, hi - lo))

let query_batch ?domains ?pool ?stats t patterns =
  let n = Array.length patterns in
  let chunked =
    with_pool_opt ?domains ?pool (fun p ->
        (* One worker-private stats record per chunk: the matcher's
           counters are unsynchronised, so concurrent queries must never
           share one (see Xquery.Matcher's thread-safety note). *)
        let ranges = chunk_ranges n (4 * Domain_pool.size p) in
        Domain_pool.run p
          (Array.map
             (fun (lo, len) () ->
               let s = Xquery.Matcher.create_stats () in
               let ids =
                 Array.init len (fun k -> query ~stats:s t patterns.(lo + k))
               in
               (ids, s))
             ranges))
  in
  (match stats with
   | Some into ->
     Array.iter
       (fun (_, s) -> Xquery.Matcher.merge_stats ~into s)
       chunked
   | None -> ());
  Array.concat (Array.to_list (Array.map fst chunked))

let query_batch_io ?domains ?pool ?stats ?page_size ?(buffer_pages = 0) t
    patterns =
  let n = Array.length patterns in
  let chunked =
    with_pool_opt ?domains ?pool (fun p ->
        (* Each worker owns a private pager; per-query counts are summed
           afterwards.  With the default [buffer_pages = 0] every page
           that a query touches is a miss, so the totals are independent
           of how queries were assigned to chunks. *)
        let ranges = chunk_ranges n (4 * Domain_pool.size p) in
        Domain_pool.run p
          (Array.map
             (fun (lo, len) () ->
               let pager = Pager.create ?page_size ~buffer_pages () in
               let s = Xquery.Matcher.create_stats () in
               let ids =
                 Array.init len (fun k ->
                     Pager.begin_query pager;
                     let ids = query ~pager ~stats:s t patterns.(lo + k) in
                     let io =
                       {
                         io_pages_touched = Pager.pages_touched pager;
                         io_misses = Pager.misses pager;
                         io_accesses = 0;
                       }
                     in
                     (ids, io))
               in
               (ids, s, Pager.total_accesses pager))
             ranges))
  in
  (match stats with
   | Some into ->
     Array.iter (fun (_, s, _) -> Xquery.Matcher.merge_stats ~into s) chunked
   | None -> ());
  let per_query =
    Array.concat (Array.to_list (Array.map (fun (ids, _, _) -> ids) chunked))
  in
  let io =
    Array.fold_left
      (fun acc (qs, _, accesses) ->
        Array.fold_left
          (fun acc (_, io) ->
            {
              io_pages_touched = acc.io_pages_touched + io.io_pages_touched;
              io_misses = acc.io_misses + io.io_misses;
              io_accesses = acc.io_accesses;
            })
          { acc with io_accesses = acc.io_accesses + accesses }
          qs)
      { io_pages_touched = 0; io_misses = 0; io_accesses = 0 }
      chunked
  in
  (Array.map fst per_query, io)

type prepared = {
  plans : Xquery.Query_seq.compiled list;
  prepared_gen : int; (* generation of the index this was compiled for *)
}

let prepare t pattern =
  {
    plans =
      Xquery.Engine.compile ~strategy:t.strategy ~value_mode:t.value_mode
        t.labeled pattern;
    prepared_gen = t.generation;
  }

exception Stale_plan

let run_prepared ?pager ?stats t prepared =
  (* Compiled sequences embed label ranges of one specific index; running
     them elsewhere would silently return garbage ids.  The generation
     stamp turns that into a checked error. *)
  if prepared.prepared_gen <> t.generation then raise Stale_plan;
  Xquery.Matcher.run_collect ?pager ?stats t.labeled prepared.plans

let explain t pattern =
  Xquery.Engine.explain ~strategy:t.strategy ~value_mode:t.value_mode t.labeled
    pattern

let document t i =
  match t.docs with
  | Some docs when i >= 0 && i < Array.length docs -> docs.(i)
  | Some _ -> invalid_arg "Xseq.document: unknown id"
  | None -> invalid_arg "Xseq.document: documents were not kept"

let doc_count t = t.ndocs
let node_count t = Xindex.Labeled.node_count t.labeled
let distinct_paths t = Xindex.Labeled.distinct_paths t.labeled
let size_bytes t = Xindex.Labeled.size_bytes t.labeled ~record_count:t.ndocs
let layout_bytes t = Xindex.Labeled.layout_bytes t.labeled
let strategy t = t.strategy
let value_mode t = t.value_mode
let labeled t = t.labeled
let generation t = t.generation

let average_sequence_length t =
  if t.ndocs = 0 then 0.
  else float_of_int t.total_seq_len /. float_of_int t.ndocs

let stats t = t.stats

(* --- persistence ---------------------------------------------------------- *)

module Store = Xstorage.Store

(* Snapshots are columnar {!Xstorage.Store} files: the labelled index as
   flat int-column regions (see Xindex.Labeled.add_to_store), the
   original records as a structural blob, and a small [xseq_meta] region
   recording how the strategy was derived.  Nothing is marshalled — every
   byte is decoded through bounds-checked readers, so a foreign or
   damaged file is rejected with a diagnostic, never interpreted. *)

let snapshot_version = 1

(* Documents serialise as a pre-order walk with explicit child counts:
   u8 kind (0 = element, 1 = value), u32 LE name/text length, bytes, and
   for elements a u32 LE child count.  Designators are stored as their
   source strings, never as process-specific interned ids. *)
let encode_docs docs =
  let b = Buffer.create 4096 in
  let add_str s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  let rec node = function
    | T.Element (d, cs) ->
      Buffer.add_uint8 b 0;
      add_str (Xmlcore.Designator.name d);
      Buffer.add_int32_le b (Int32.of_int (List.length cs));
      List.iter node cs
    | T.Value s ->
      Buffer.add_uint8 b 1;
      add_str s
  in
  Array.iter node docs;
  Buffer.contents b

let decode_docs blob ndocs =
  let corrupt () = invalid_arg "Xseq.load: corrupt document region" in
  let len = String.length blob in
  if ndocs < 0 || ndocs > len then corrupt ();
  let pos = ref 0 in
  let u8 () =
    if !pos >= len then corrupt ();
    let v = Char.code blob.[!pos] in
    incr pos;
    v
  in
  let u32 () =
    if !pos + 4 > len then corrupt ();
    let v = Int32.to_int (String.get_int32_le blob !pos) in
    pos := !pos + 4;
    if v < 0 || v > len then corrupt ();
    v
  in
  let str () =
    let n = u32 () in
    if !pos + n > len then corrupt ();
    let s = String.sub blob !pos n in
    pos := !pos + n;
    s
  in
  let rec node () =
    match u8 () with
    | 0 ->
      let name = str () in
      let n = u32 () in
      T.Element (Xmlcore.Designator.tag name, children n [])
    | 1 -> T.Value (str ())
    | _ -> corrupt ()
  and children n acc =
    (* Every child consumes at least one byte, so a lying count runs out
       of input and fails the bounds checks above. *)
    if n = 0 then List.rev acc else children (n - 1) (node () :: acc)
  in
  let docs = Array.init ndocs (fun _ -> node ()) in
  if !pos <> len then corrupt ();
  docs

let save ?(format = Store.Col1) t path =
  let docs =
    match t.docs with
    | Some docs -> docs
    | None ->
      invalid_arg "Xseq.save: index was built with keep_documents = false"
  in
  (* Only strategies that can be deterministically recomputed from the
     records survive a round trip. *)
  let seq_tag, seq_arg =
    match t.built_config.sequencing with
    | Depth_first { canonical } -> (0, Bool.to_int canonical)
    | Breadth_first { canonical } -> (1, Bool.to_int canonical)
    | Random seed -> (2, seed)
    | Probability -> (3, 0)
    | Probability_weighted _ | Custom _ ->
      invalid_arg "Xseq.save: custom strategies cannot be persisted"
  in
  let vm = match t.value_mode with Encoder.Hashed -> 0 | Encoder.Text -> 1 in
  (* The sampling fraction must survive bit-exactly, or the reloaded
     probability model could diverge from the stored labels. *)
  let bits = Int64.bits_of_float t.built_config.sample_fraction in
  let frac_lo = Int64.to_int (Int64.logand bits 0xFFFFFFFFL) in
  let frac_hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  let store = Store.memory () in
  Store.add_ints store "xseq_meta"
    (Store.heap
       [|
         snapshot_version;
         seq_tag;
         seq_arg;
         vm;
         frac_lo;
         frac_hi;
         t.built_config.sample_seed;
         t.total_seq_len;
         t.ndocs;
       |]);
  Store.add_blob store "docs" (encode_docs docs);
  Xindex.Labeled.add_to_store ~compact:(format = Store.Col2) t.labeled store;
  (* Compressed regions are small; 4 KiB alignment would waste a large
     fraction of the file (and of the buffer pool) on padding. *)
  let page_size = match format with Store.Col1 -> 4096 | Store.Col2 -> 1024 in
  Store.write ~page_size ~format store path

let load ?mode ?pool_pages ?verify path =
  let store = Store.open_file ?mode ?pool_pages ?verify path in
  let bad msg = invalid_arg ("Xseq.load: " ^ msg) in
  if not (Store.mem store "xseq_meta" && Store.mem store "docs") then
    bad "not an xseq index snapshot (missing xseq_meta/docs regions)";
  let meta = Store.to_array (Store.ints store "xseq_meta") in
  if Array.length meta <> 9 then bad "malformed xseq_meta region";
  if meta.(0) <> snapshot_version then
    bad (Printf.sprintf "unsupported snapshot version %d" meta.(0));
  let sequencing =
    match (meta.(1), meta.(2)) with
    | 0, c -> Depth_first { canonical = c <> 0 }
    | 1, c -> Breadth_first { canonical = c <> 0 }
    | 2, seed -> Random seed
    | 3, _ -> Probability
    | _ -> bad "unknown sequencing strategy tag"
  in
  let value_mode =
    match meta.(3) with
    | 0 -> Encoder.Hashed
    | 1 -> Encoder.Text
    | _ -> bad "unknown value mode"
  in
  let sample_fraction =
    Int64.float_of_bits
      (Int64.logor
         (Int64.logand (Int64.of_int meta.(4)) 0xFFFFFFFFL)
         (Int64.shift_left (Int64.of_int meta.(5)) 32))
  in
  (* Documents are decoded first: record parsing interns designators in
     exactly the order [build] would, before the index dictionary
     re-interns the paths. *)
  let docs = decode_docs (Store.blob store "docs") meta.(8) in
  let labeled = Xindex.Labeled.of_store store in
  let config =
    {
      default_config with
      sequencing;
      value_mode;
      sample_fraction;
      sample_seed = meta.(6);
    }
  in
  (* Recompute the strategy exactly as [build] derived it. *)
  let strategy, stats = resolve_strategy config docs in
  {
    labeled;
    strategy;
    value_mode;
    docs = Some docs;
    ndocs = Array.length docs;
    total_seq_len = meta.(7);
    stats;
    built_config = config;
    generation = next_generation ();
  }

let backing_store t = Xindex.Labeled.backing_store t.labeled

(* --- incremental indexing -------------------------------------------------- *)

module Dynamic = struct
  type dyn = {
    mutable base : t;
    mutable tail : T.t list; (* newest first; ids continue after base *)
    mutable tail_len : int;
    mutable tail_index : t option;
        (* memoised index over the current tail (ids are tail positions);
           invalidated by [add]/[flush], rebuilt lazily at query time once
           the tail is big enough for indexing to beat scanning *)
    threshold : int;
    dconfig : config;
    ddomains : int;
  }

  (* Below this many tail documents an exact scan is cheaper than
     building even a small index. *)
  let index_tail_from = 32

  let create ?(domains = 1) ?(config = default_config)
      ?(rebuild_threshold = 1024) docs =
    let config = { config with keep_documents = true } in
    {
      base = build ~domains ~config docs;
      tail = [];
      tail_len = 0;
      tail_index = None;
      threshold = max 1 rebuild_threshold;
      dconfig = config;
      ddomains = domains;
    }

  let all_docs d =
    let base_docs =
      match d.base.docs with Some a -> a | None -> assert false
    in
    Array.append base_docs (Array.of_list (List.rev d.tail))

  let flush d =
    if d.tail_len > 0 then begin
      d.base <- build ~domains:d.ddomains ~config:d.dconfig (all_docs d);
      d.tail <- [];
      d.tail_len <- 0;
      d.tail_index <- None
    end

  let add d doc =
    let id = d.base.ndocs + d.tail_len in
    d.tail <- doc :: d.tail;
    d.tail_len <- d.tail_len + 1;
    d.tail_index <- None;
    if d.tail_len >= d.threshold then flush d;
    id

  let query d pattern =
    let base_hits = query d.base pattern in
    let tail_hits =
      if d.tail_len = 0 then []
      else if d.tail_len < index_tail_from then begin
        (* Small tail: exact scan, no sequence re-encoding at all. *)
        let hits = ref [] in
        List.iteri
          (fun k doc ->
            if Xquery.Embedding.matches pattern doc then
              (* [tail] is newest-first: position k from the end. *)
              hits := (d.base.ndocs + d.tail_len - 1 - k) :: !hits)
          d.tail;
        List.sort Stdlib.compare !hits
      end
      else begin
        (* Big tail: index it once and reuse across queries, instead of
           re-encoding every tail document on every query. *)
        let ti =
          match d.tail_index with
          | Some ti -> ti
          | None ->
            let ti =
              build ~domains:d.ddomains ~config:d.dconfig
                (Array.of_list (List.rev d.tail))
            in
            d.tail_index <- Some ti;
            ti
        in
        List.map (fun i -> d.base.ndocs + i) (query ti pattern)
      end
    in
    base_hits @ tail_hits

  let query_xpath d s = query d (Xpath.parse s)
  let doc_count d = d.base.ndocs + d.tail_len
  let pending d = d.tail_len

  let snapshot d =
    flush d;
    d.base
end
