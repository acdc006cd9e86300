(** Flat row-major matrix of bin indices (one byte per cell) — the storage
    of the cost-model hot path. Rows are contiguous [n_features]-byte
    runs inside one [Bytes.t], so tree fitting and batched prediction
    stream cache-contiguous data instead of chasing boxed
    [int array array] pointers. Bin indices must fit a byte; feature
    binning is clamped to at most 256 bins (see {!Features.of_problem}). *)

type t

val max_bin : int
(** Largest storable bin index (255). *)

val create : ?capacity:int -> n_features:int -> unit -> t
(** An empty matrix with room for [capacity] rows (grows on demand). *)

val n_features : t -> int
val n_rows : t -> int
val capacity : t -> int

val clear : t -> unit
(** Drop all rows (storage is retained for reuse). *)

val set_rows : t -> int -> unit
(** Set the logical row count (growing storage as needed); cell contents
    of newly exposed rows are unspecified until written with {!set}. Used
    to pre-size a batch that is then filled in parallel, row by row. *)

val get : t -> int -> int -> int
(** [get t row feat]: no bounds check beyond the backing buffer; callers
    stay within [n_rows] x [n_features] by construction. *)

val data : t -> Bytes.t
(** The raw row-major store (row [r] occupies bytes
    [r * n_features .. (r + 1) * n_features - 1]). For the library's own
    hot loops, which hoist the row base out of per-cell indexing; invalid
    beyond the current row count, and stale once storage grows. *)

val set : t -> int -> int -> int -> unit
(** @raise Invalid_argument when the value does not fit a byte. *)

val row : t -> int -> int array
(** Materialize one row as an [int array] (checkpointing / debug). *)

val blit_row : t -> int -> t -> int -> unit
(** [blit_row src r dst r'] copies one row across matrices of equal
    width. *)

val of_rows : ?n_features:int -> int array array -> t
(** Build from boxed rows (tests and the differential oracle bridge). *)
