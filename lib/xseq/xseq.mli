(** xseq — sequence-based XML indexing with performance-oriented
    constraint sequencing (Wang & Meng, ICDE 2005).

    Quickstart:
    {[
      let docs = Array.map Xmlcore.Xml_parser.parse_string raw_documents in
      let index = Xseq.build docs in
      let ids = Xseq.query_xpath index "/site//item[location='US']" in
      ...
    ]}

    [build] sequences every document with the probability-based strategy
    [gbest] (estimated by sampling the documents themselves), bulk-loads
    the sequences into a labelled trie, and answers tree-pattern queries
    holistically through constraint subsequence matching — no structural
    joins, no per-document post-processing, no false alarms. *)

module Pattern = Xquery.Pattern
module Xpath = Xquery.Xpath_parser

type sequencing =
  | Depth_first of { canonical : bool }
      (** Pre-order.  With [canonical = true] (required for querying)
          documents are tag-sorted first; [false] is the paper-faithful
          document order used in the index-size experiments. *)
  | Breadth_first of { canonical : bool }
  | Random of int  (** seed; size experiments only — queries raise *)
  | Probability
      (** [gbest] with probabilities sampled from the indexed documents
          (the default). *)
  | Probability_weighted of (Sequencing.Path.t -> float)
      (** [gbest] with explicit weights [w(C)] (Eq. 6) multiplied into the
          sampled probabilities. *)
  | Custom of Sequencing.Strategy.t
      (** Caller-supplied strategy, used as-is for both documents and
          queries. *)

type config = {
  sequencing : sequencing;
  value_mode : Sequencing.Encoder.value_mode;
  sample_fraction : float;
      (** fraction of documents sampled for probability estimation
          (default 1.0) *)
  sample_seed : int;
  bulk : bool;  (** sort sequences before insertion (default true) *)
  keep_documents : bool;
      (** retain the parsed documents for retrieval / verification
          (default true) *)
}

val default_config : config

type t

val build :
  ?domains:int ->
  ?pool:Xutil.Domain_pool.t ->
  ?config:config ->
  Xmlcore.Xml_tree.t array ->
  t
(** Builds an index over the documents; ids are array indices.

    With [~domains:n] (or an existing [~pool]) the per-document encoding
    phase is chunked across [n] worker domains.  The result is {e
    label-identical} to the sequential build for every sequencing
    strategy: all interning phases (statistics, identical-sibling
    pre-pass, canonicalisation) run sequentially first, the parallel
    phase only reads, and the trie bulk load is insertion-order
    independent — see DESIGN.md, "Parallel construction".  The default
    [domains = 1] spawns no domains and is the sequential code path. *)

val query : ?pager:Xstorage.Pager.t -> ?stats:Xquery.Matcher.stats -> t -> Pattern.t -> int list
(** Ids of the documents containing the pattern, sorted.  Queries whose
    wildcard instantiation or isomorphism expansion would explode fall
    back to an exact linear scan of the kept documents (so answers are
    never wrong and never lost); with [keep_documents = false] such
    queries raise {!Xquery.Instantiate.Too_many} instead.
    @raise Xquery.Query_seq.Unsupported_strategy for a {!Random} index. *)

val query_xpath : ?pager:Xstorage.Pager.t -> ?stats:Xquery.Matcher.stats -> t -> string -> int list
(** Parses the XPath fragment and runs {!query}. *)

val contains : t -> Pattern.t -> int -> bool
(** Whether one particular document matches (via the index). *)

(** {1 Batched execution}

    Many queries against one frozen index, executed concurrently.  The
    labelled index is strictly read-only after construction and query
    compilation never writes the global intern tables (value lookups use
    {!Xmlcore.Designator.find_value}), so workers share [t] directly;
    each worker owns a private {!Xquery.Matcher.stats} record and
    {!Xstorage.Pager.t} which are merged once the batch completes. *)

val query_batch :
  ?domains:int ->
  ?pool:Xutil.Domain_pool.t ->
  ?stats:Xquery.Matcher.stats ->
  t ->
  Pattern.t array ->
  int list array
(** [query_batch ~domains t patterns] answers every pattern, with the
    patterns chunked across [domains] worker domains (default 1 =
    sequential; pass [~pool] to reuse a pool).  Result [i] is exactly
    [query t patterns.(i)] — same ids, same order, same fallback
    behaviour — for any number of domains.  When [stats] is supplied the
    per-worker counters are {!Xquery.Matcher.merge_stats}'d into it, so
    totals match a sequential run over the same patterns.
    @raise Xquery.Query_seq.Unsupported_strategy for a {!Random} index
    (the whole batch fails, like the equivalent sequential loop). *)

type batch_io = {
  io_pages_touched : int;  (** sum over queries of distinct pages touched *)
  io_misses : int;  (** sum over queries of buffer misses *)
  io_accesses : int;  (** entry-level accesses across the whole batch *)
}

val query_batch_io :
  ?domains:int ->
  ?pool:Xutil.Domain_pool.t ->
  ?stats:Xquery.Matcher.stats ->
  ?page_size:int ->
  ?buffer_pages:int ->
  t ->
  Pattern.t array ->
  int list array * batch_io
(** Like {!query_batch} but charges every probe to a per-worker
    {!Xstorage.Pager} and returns the summed I/O accounting.  With the
    default [buffer_pages = 0] each query's page count is independent of
    how queries were assigned to workers, so the totals are deterministic
    across domain counts; with a warm LRU ([buffer_pages > 0]) miss
    counts depend on the per-worker access interleaving and only
    [io_pages_touched] stays assignment-independent. *)

type prepared
(** A compiled query: wildcard instantiation and sequence expansion done
    once, reusable across executions (and what the benchmarks amortise).
    A prepared query is stamped with the {!generation} of the index it
    was compiled for. *)

val prepare : t -> Pattern.t -> prepared
(** Compiles the pattern against this index.
    @raise Xquery.Instantiate.Too_many when expansion explodes —
    {!query}'s scan fallback does not apply to prepared queries. *)

exception Stale_plan
(** A prepared plan was run against a structure other than the one it was
    compiled for: a different index, or a sharded store that has sealed,
    compacted or re-opened since.  Re-prepare and run again.  Raised only
    for that, so a caller can retry on it without also retrying a bug.
    ([Xlog.run_prepared] still signals a stale plan with
    [Invalid_argument]; see there.) *)

val run_prepared : ?pager:Xstorage.Pager.t -> ?stats:Xquery.Matcher.stats -> t -> prepared -> int list
(** Executes a prepared query.  The index must be the one it was prepared
    against: the compiled sequences embed that index's label ranges, so
    [run_prepared] checks the generation stamp instead of returning
    garbage ids.
    @raise Stale_plan on a mismatch, e.g. a plan prepared before a
    [Reload] hot swap or a {!load}. *)

val generation : t -> int
(** A process-unique stamp distinguishing this index from every other
    index constructed (built, loaded or rebuilt) in the same process.
    Monotonically increasing; never reused. *)

val next_generation : unit -> int
(** Allocates a stamp from the same process-wide sequence as index
    generations.  [Xlog] stamps its merged base+delta views with these,
    so one namespace covers every plan-cache key regardless of whether
    the plan was compiled against a frozen index or a live store. *)

val explain : t -> Pattern.t -> Xquery.Engine.explanation
(** Runs the query and reports the pipeline's work: wildcard
    instantiations, sequence expansions, matcher counters
    (see {!Xquery.Engine.explain}). *)

val document : t -> int -> Xmlcore.Xml_tree.t
(** The original document (requires [keep_documents]).
    @raise Invalid_argument otherwise or for an unknown id. *)

val doc_count : t -> int

val node_count : t -> int
(** Index trie nodes — the quantity plotted in Figure 14. *)

val distinct_paths : t -> int

val size_bytes : t -> int
(** The paper's [4n + cN] disk-size estimate (Section 6.2). *)

val layout_bytes : t -> int
(** Bytes of the simulated page layout (links + document table). *)

val strategy : t -> Sequencing.Strategy.t
val value_mode : t -> Sequencing.Encoder.value_mode
val labeled : t -> Xindex.Labeled.t
(** The underlying labelled index, for low-level experimentation. *)

val average_sequence_length : t -> float

val stats : t -> Xschema.Stats.t option
(** The sampled statistics (present for [Probability*] sequencing). *)

(** {1 Persistence}

    An index saves to a columnar {!Xstorage.Store} snapshot: the labelled
    trie as flat int-column regions, the original records as a structural
    blob, and a small metadata region recording how the probability model
    was derived (so the strategy is deterministically recomputed on
    load).  Nothing is marshalled — every region is checksummed and
    decoded through bounds-checked readers, so a corrupt, truncated or
    foreign file is rejected with a diagnostic naming the failure.

    A snapshot opened with [~mode:Paged] answers queries straight off
    disk: index columns stay in the file and are read page by page
    through the store's buffer pool. *)

val save : ?format:Xstorage.Store.file_format -> t -> string -> unit
(** [save t path] writes the index to [path] in the
    {!Xstorage.Store} file format.  [format] (default
    {!Xstorage.Store.Col1}) selects the container:
    {!Xstorage.Store.Col2} writes the compressed form — delta+varint
    label columns, LZ document blob, compact front-coded path
    dictionary — typically several times smaller and loadable by the
    same {!load} (which dispatches on the file's magic).
    @raise Invalid_argument for indexes built with [keep_documents =
    false] or with a [Custom]/[Probability_weighted] strategy (closures
    cannot be persisted). *)

val load :
  ?mode:Xstorage.Store.mode -> ?pool_pages:int -> ?verify:bool -> string -> t
(** [load path] restores a saved index; queries answer exactly as on the
    original.  [mode] (default [Resident]) materialises every column in
    memory (compressed snapshots stay compressed, decoding blocks on
    probe); [Paged] leaves the index columns on disk behind a buffer
    pool of [pool_pages] pages (default 256).  [verify] (default
    [true]) checks every region checksum up front.
    @raise Invalid_argument on a corrupt or incompatible file, naming
    the failing part (magic, version, checksum, region). *)

val backing_store : t -> Xstorage.Store.t option
(** The open snapshot behind an index restored with [~mode:Paged] —
    exposes buffer-pool statistics ({!Xstorage.Store.page_reads} /
    {!Xstorage.Store.page_hits}); [None] for in-memory indexes. *)

(** {1 Incremental indexing}

    {b Deprecated} in favour of the [Xlog] subsystem, which is this idea
    grown up: durable (write-ahead logged, crash-recoverable), with
    deletes (tombstones), delta {e segments} instead of one unindexed
    tail, and non-blocking background compaction instead of a blocking
    full rebuild.  [Dynamic] is kept as a volatile in-process
    accumulator for existing callers; new code should use
    [Xlog.open_]/[insert]/[query].

    The labelled index is rebuilt wholesale (labels are dense pre/post
    ranges), so {!Dynamic} batches insertions: new records accumulate in
    a tail, and once the tail exceeds a threshold the whole index is
    rebuilt — the classic base-plus-delta pattern.  A small tail is
    scanned exactly; a larger one is indexed once and the tail index
    memoised across queries (it used to be re-encoded per query).
    Results are always exact. *)

module Dynamic : sig
  type dyn

  val create :
    ?domains:int ->
    ?config:config ->
    ?rebuild_threshold:int ->
    Xmlcore.Xml_tree.t array ->
    dyn
  (** [rebuild_threshold] (default 1024) bounds the unindexed tail.
      [config.keep_documents] is forced on (rebuilds need the records).
      [domains] (default 1) is passed to every {!Xseq.build} the
      accumulator performs, including threshold-triggered rebuilds. *)

  val add : dyn -> Xmlcore.Xml_tree.t -> int
  (** Inserts a record and returns its id (ids are stable across
      rebuilds). *)

  val query : dyn -> Pattern.t -> int list
  val query_xpath : dyn -> string -> int list

  val doc_count : dyn -> int

  val pending : dyn -> int
  (** Records currently in the unindexed tail. *)

  val flush : dyn -> unit
  (** Forces a rebuild so that {!pending} becomes 0. *)

  val snapshot : dyn -> t
  (** The underlying index after a {!flush}. *)
end
