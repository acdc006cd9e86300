(** Schedule primitives (Table 1 of the paper).

    A primitive records a program transformation together with the names of
    the CSP variables holding its tunable parameters (split factors, unroll
    lengths, compute locations, ...). The constraint generation rules of
    the Space Generator pattern-match on this data — primitives are the
    common language between template generation and constraint
    generation. *)

type thread_axis = Block_x | Block_y | Thread_x | Thread_y | Vthread | Core

val thread_axis_to_string : thread_axis -> string

type t =
  | Split of { stage : string; loop : string; outer : string; inner : string; factor : string }
      (** [factor] is the CSP variable for the inner extent *)
  | Fuse of { stage : string; loops : string list; into : string }
  | Reorder of { stage : string; order : string list }
  | Cache_read of { tensor : string; scope : string; reader : string; new_stage : string }
  | Cache_write of { tensor : string; scope : string; new_stage : string }
  | Compute_at of { stage : string; parent : string; location : string }
      (** [location] is the CSP variable selecting the attach loop index *)
  | Bind of { stage : string; loop : string; axis : thread_axis }
  | Unroll of { stage : string; loop : string; length : string }
  | Vectorize of { stage : string; loop : string; length : string }
  | Tensorize of { stage : string; intrin : string; m : string; n : string; k : string }
      (** [m]/[n]/[k] are the CSP variables for the intrinsic shape *)
  | Storage_align of { stage : string; pad : string }
      (** shared-memory row padding to avoid bank conflicts *)
  | Parallel of { stage : string; loop : string }

val to_string : t -> string
