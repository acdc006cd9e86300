(** Schedule templates: the symbolic program structure produced by the
    Space Generator.

    A template fixes the stage/loop structure of the scheduled program —
    which cache stages exist, how each original iterator is split into a
    chain of loops, which loops are bound to hardware threads — while every
    loop extent, compute location, vector length etc. remains a CSP
    variable. A template together with one valid assignment instantiates to
    one {!Concrete} program. *)

module Op = Heron_tensor.Op

type annotation =
  | Plain
  | Unrolled of string  (** unroll length variable *)
  | Vectorized of string  (** vector length variable *)
  | Bound of Prim.thread_axis
  | Tensorized  (** consumed by the tensor intrinsic *)

type loop = {
  lname : string;
  extent_var : string;  (** CSP variable holding this loop's extent *)
  origin : string;  (** the original operator iterator this loop tiles *)
  kind : Op.iter_kind;
  ann : annotation;
}

type attach =
  | Root
  | At of { parent : string; location_var : string }
      (** attached under [parent] at the loop index given by the CSP
          variable [location_var] *)

type role = Load of string | Compute | Store

type stage = {
  sname : string;
  scope : string;  (** memory scope: "global", "shared", "wmma.a", ... *)
  loops : loop list;  (** outer to inner *)
  attach : attach;
  role : role;
  align_pad : string option;
      (** CSP variable for storage_align row padding, when applicable *)
}

type t = {
  op : Op.t;
  stages : stage list;  (** in instantiation order; parents precede children *)
  prims : Prim.t list;  (** the schedule template as primitive list *)
  intrin : string option;  (** tensor intrinsic name when tensorized *)
}

val find_stage : t -> string -> stage
val compute_stage : t -> stage
(** The unique stage with role [Compute]. @raise Invalid_argument if absent. *)

val to_string : t -> string
