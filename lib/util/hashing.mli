(** Stable hashing used to derive deterministic per-configuration jitter in
    the DLA performance models, seeds, fault draws and store checksums. *)

val fnv1a : string -> int64
(** 64-bit FNV-1a hash of a string; stable across runs and platforms.
    Allocates only its boxed result, whatever the string's length. Its
    values are fixed: store checksums on disk carry them, and task seeds,
    measurement jitter and fault draws derive from them. *)

val unit_float : string -> float
(** Deterministic value in [\[0, 1)] derived from the string. *)

val signed_unit : string -> float
(** Deterministic value in [\[-1, 1)] derived from the string. *)
