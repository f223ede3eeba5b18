(** The frozen, labelled index (Section 4.1, "Tree Labeling" and "Path
    Linking").

    Every trie node [n] is labelled with a pair [(n⊢, n⊣)]: its serial
    number in a depth-first traversal and the largest serial number among
    its descendants, so [x] is a descendant of [y] iff
    [x⊢ ∈ (y⊢, y⊣]].  For each distinct path encoding, a {e horizontal
    path link} holds the labels of all nodes with that encoding, in
    ascending serial order, ready for binary search (Figure 8/9).

    Additionally, each link entry stores the link position of its nearest
    same-encoding ancestor ([up]); this is what makes the sibling-cover /
    forward-prefix checks of Section 4.2 O(log) per candidate.

    {2 Columnar representation}

    The index is stored as flat columns (structure of arrays): per-node
    label columns, the concatenated link-entry columns ([l_pre] /
    [l_post] / [l_up] / [l_node], slot-major in deterministic path
    order), the sorted document table, and a small in-memory link
    directory of offsets into them.  Each column is an
    {!Xstorage.Store.column}, so one view serves three physical
    representations: heap [int array]s (the original pointer-rich
    backend, kept for A/B comparison), unboxed flat buffers, and pages
    of an open snapshot file read through the buffer pool.

    For I/O accounting, links and the document table are laid out on a
    {!Xstorage.Pager}-compatible byte layout (8-byte entries, page-aligned
    regions); the layout math is identical across backends. *)

module Path = Sequencing.Path

type t

type link
(** A horizontal path link. *)

type backend =
  | Heap_arrays  (** plain OCaml [int array] columns (the seed layout) *)
  | Columnar  (** unboxed flat buffers (structure of arrays) *)

val of_trie : ?backend:backend -> Trie.t -> t
(** Labels the trie (children visited in ascending path-id order, so the
    labelling is deterministic) and builds links and the document table.
    [backend] (default [Columnar]) picks the physical column
    representation; query answers are identical either way. *)

val remap : ?backend:backend -> t -> t
(** The same index over different physical columns (default [Columnar]).
    Used by the storage benchmarks and backend-equivalence tests. *)

val node_count : t -> int
(** Trie nodes excluding the virtual root (the paper's [N]). *)

val doc_count : t -> int

val root_pre : t -> int
(** Serial of the virtual root (0); its range spans the whole index. *)

val root_post : t -> int

val size_bytes : t -> record_count:int -> int
(** The paper's disk-size estimate [4n + cN] with [c = 8] (Section 6.2). *)

val link : t -> Path.t -> link option
(** The path link for an encoding; [None] if no node carries it. *)

val link_length : link -> int
val link_pre : link -> int -> int
val link_post : link -> int -> int

val link_up : link -> int -> int
(** Link position of the nearest same-encoding proper ancestor, or -1. *)

val link_base : link -> int
(** Byte offset of the link's region in the simulated layout. *)

val entry_bytes : int
(** Bytes per link/doc entry in the layout (8). *)

val link_floor : link -> int -> int
(** Largest position with [pre <= x], or -1. *)

val link_same_desc : link -> int -> bool
(** Whether the entry at this position has a same-encoding descendant —
    i.e. whether it "embeds identical siblings" in the sense of
    Algorithm 1.  Only then can a later match be sibling-covered, so the
    matcher skips the forward-prefix check otherwise. *)

val nearest_in_link : link -> int -> int
(** [nearest_in_link l pre] is the position of the deepest link entry
    whose range contains serial [pre] (the forward prefix of the node with
    that serial at this encoding's level), or -1.  Follows [up] pointers
    from the floor entry. *)

val docs_in_range : t -> lo:int -> hi:int -> f:(int -> unit) -> unit
(** Applies [f] to the id of every document whose sequence ends at a node
    with serial in [lo, hi].  Ids may repeat across calls but not within
    one call. *)

val doc_span : t -> lo:int -> hi:int -> int * int
(** [(first, last)] inclusive positions in the document table covered by
    the serial range — used for I/O accounting of the result fetch. *)

val doc_len : t -> int
(** Entries in the document table. *)

val doc_pre_at : t -> int -> int
(** End-node serial of document-table entry [i] (sorted ascending). *)

val doc_id_at : t -> int -> int
(** Document id of document-table entry [i]. *)

val docs_between : t -> first:int -> last:int -> f:(int -> unit) -> unit
(** Applies [f] to the doc id of every table position in
    [[first, last]] — the iteration half of {!docs_in_range}, for
    callers that located the span themselves (e.g. with instrumented
    probes). *)

val doc_table_base : t -> int
(** Byte offset of the document table region. *)

val layout_bytes : t -> int
(** Total bytes of the layout (links + doc table), page-aligned. *)

val pre_of_node : t -> int -> int
val post_of_node : t -> int -> int
val path_of_node : t -> int -> Path.t

val distinct_paths : t -> int
(** Number of horizontal links. *)

(** {1 Columnar snapshots}

    The index serialises to an {!Xstorage.Store} as a bag of named
    regions (label columns, link columns, link directory, document
    table, and a spelled-out path dictionary), so a snapshot written by
    {!Xstorage.Store.write} re-interns cleanly in any process — and, in
    paged mode, answers queries straight off disk. *)

val add_to_store : ?compact:bool -> t -> Xstorage.Store.t -> unit
(** Registers every index region with the store.  Region names are
    reserved; combine with other regions freely as long as names do not
    clash.  With [~compact:true] the path dictionary is written in its
    compact form — trie edges as (parent, designator id) pairs over a
    deduplicated, front-coded designator name table — the layout
    compressed (xseqcol2) snapshots use; {!of_store} reads either. *)

val of_store : Xstorage.Store.t -> t
(** Rebuilds the index view over the store's regions, re-interning the
    path dictionary into the current process.  Columns keep whatever
    backing the store has — resident buffers, disk pages behind the
    buffer pool, or compressed blocks decoded on probe — so opening a
    snapshot in paged mode yields an index that reads pages on demand.

    @raise Invalid_argument naming the inconsistency if the regions are
    missing, mis-sized, or internally contradictory.  Validation covers
    every cross-region invariant (sizes, dictionary parent order, id
    ranges, link-slice bounds), so a structurally valid file that passed
    checksums cannot produce out-of-bounds reads here. *)

val backing_store : t -> Xstorage.Store.t option
(** The open snapshot behind an index built by {!of_store}, for
    buffer-pool statistics; [None] for in-memory indexes. *)

type portable
(** A process-independent snapshot of the index: interned path ids are
    replaced by a self-contained path dictionary, so the snapshot can be
    marshalled and re-interned by {!of_portable} in a different process
    (where designator/path ids differ).  Superseded by the columnar
    snapshot for persistence; kept for structural fingerprinting in
    tests and benchmarks. *)

val to_portable : t -> portable

val of_portable : ?backend:backend -> portable -> t
(** Re-interns every path of the snapshot into the current process's
    tables and rebuilds the index.  [of_portable (to_portable t)] answers
    every query exactly as [t] does. *)

val path_multiple : t -> Path.t -> bool
(** Whether some indexed document contains the path at least twice
    (equivalently, whether some link entry has a same-encoding
    descendant).  This is the global identical-sibling trigger that query
    compilation must share with document encoding (see
    {!Sequencing.Encoder.encode}'s [ident]). *)
