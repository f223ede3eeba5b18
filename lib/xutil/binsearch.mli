(** Binary searches over sorted int arrays (ascending, duplicates allowed). *)

val lower_bound : int array -> len:int -> int -> int
(** [lower_bound a ~len x] is the smallest index [i < len] with
    [a.(i) >= x], or [len]. *)

val upper_bound : int array -> len:int -> int -> int
(** Smallest index [i < len] with [a.(i) > x], or [len]. *)

val floor_index : int array -> len:int -> int -> int
(** Largest index [i < len] with [a.(i) <= x], or [-1]. *)

(** {1 Accessor-generic variants}

    The same searches over any indexed int source — columnar flat buffers,
    paged columns — via a [get] function instead of a heap array. *)

val lower_bound_by : get:(int -> int) -> len:int -> int -> int
val upper_bound_by : get:(int -> int) -> len:int -> int -> int
val floor_index_by : get:(int -> int) -> len:int -> int -> int

val gallop_by : get:(int -> int) -> len:int -> from:int -> int -> int
(** [gallop_by ~get ~len ~from x] is the smallest index [i] with
    [from <= i < len] and [get i >= x], or [len]: a finger search for a
    cursor whose key only moves forward.  Over sorted values it is
    [max from (lower_bound_by ~get ~len x)], so with every index below
    [from] holding a value [< x] it equals {!lower_bound_by}.  With
    [from >= len] the answer is [len] and nothing is probed.

    Probes are [get] calls, at most [1 + 2 log2 (answer - from + 1)] of
    them, so an instrumented [get] charges exactly the entries read.
    [from = 0] is a plain binary search ([⌈log2 (len + 1)⌉] probes).  An
    answer [< len] has always been probed, so a caller that goes on to
    scan from it may reuse that read. *)
