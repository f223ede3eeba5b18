(** Constraint subsequence matching over the labelled index
    (Section 4.2, Algorithm 1).

    The matcher walks a compiled query sequence down the trie: candidates
    for element [i] are the entries of its horizontal path link inside
    the (pre, post] range of the previously matched node, located by a
    finger search ({!Xutil.Binsearch.gallop_by}) that gallops forward
    from the level's last answer and searches cold only when the key
    moves backwards (a parent nested in the previous one).  The document
    table is located the same way.  A candidate whose range holds no
    entry of the next level's link is dead: the scan jumps past it and
    the dead candidates after it, to the outermost entry that contains
    the next level's first entry, or else to the first entry at or past
    it.  In {!Constraint} mode every candidate additionally passes the
    forward-prefix check — its nearest same-encoding-as-parent ancestor
    must be exactly the node matched to its pattern parent — which is the
    exact form of Definition 3's second criterion and subsumes the
    sibling-cover test (Definition 4, Theorem 3).  The check is skipped
    when the parent's entry has no same-encoding descendant, mirroring
    Algorithm 1's [ins] set.

    {!Naive} mode omits the check and reproduces the false alarms of
    Figure 4 (it is what the ViST baseline pairs with per-document
    verification).

    When a {!Xstorage.Pager} is supplied, every link-entry probe and
    document-table read is charged to the page layout.  An entry a
    search landed on is charged once: the scan, the next seek and the
    document span reuse its key instead of reading it again.

    {2 Thread-safety}

    The index itself is read-only and may be shared across domains, but a
    [stats] record and a {!Xstorage.Pager.t} are single-domain mutable
    accumulators: each concurrent worker must own a private instance and
    the owners' results can be combined afterwards with {!merge_stats}
    (resp. by summing the pager's per-query counters).  [Xseq.query_batch]
    follows exactly this per-worker-then-merge discipline. *)

type mode = Constraint | Naive

type stats = {
  mutable probes : int;
      (** link and document-table entries read (finger searches, skips,
          scans, prefix checks); always the sum of the four below *)
  mutable seek_probes : int;
      (** reads locating a candidate range or a dead-candidate skip *)
  mutable scan_probes : int;  (** reads advancing the candidate scan *)
  mutable prefix_probes : int;
      (** reads of the parent's link by the forward-prefix check *)
  mutable doc_probes : int;  (** document-table reads locating a result span *)
  mutable candidates : int;  (** range candidates considered *)
  mutable rejected : int;  (** candidates failing the forward-prefix check *)
  mutable matches : int;  (** complete query-sequence matches *)
}

val create_stats : unit -> stats

val probe_split : stats -> (string * int) list
(** [probe_split s] names the four parts of [s.probes], in a fixed
    order: [seek], [scan], [prefix], [doc].  Their sum is [s.probes]. *)

val merge_stats : into:stats -> stats -> unit
(** [merge_stats ~into s] adds every counter of [s] into [into].  Used to
    combine the private per-worker records of a batched run into one
    aggregate; [s] is left unchanged. *)

val run :
  ?mode:mode ->
  ?pager:Xstorage.Pager.t ->
  ?stats:stats ->
  Xindex.Labeled.t ->
  Query_seq.compiled ->
  on_doc:(int -> unit) ->
  unit
(** Calls [on_doc] for every matching document id; a document may be
    reported more than once across search branches — callers deduplicate
    (see {!run_collect}). *)

val run_collect :
  ?mode:mode ->
  ?pager:Xstorage.Pager.t ->
  ?stats:stats ->
  Xindex.Labeled.t ->
  Query_seq.compiled list ->
  int list
(** Union of matches over several compiled sequences, sorted,
    deduplicated. *)
