(** Tensor compute descriptions.

    A compute is a single output tensor defined over a set of named
    iterators (spatial iterators index the output; reduction iterators are
    summed over), mirroring the declarative tensor-expression language of
    deep learning compilers such as TVM. Out-of-range accesses read zero
    (implicit padding), and accesses may carry divisibility guards, which is
    enough to express every operator evaluated in the paper, including
    transposed convolution. *)

type dtype = F16 | F32 | I8 | I32

val dtype_bytes : dtype -> int
val dtype_to_string : dtype -> string

type iter_kind = Spatial | Reduction

type iter = { iname : string; extent : int; kind : iter_kind }

type tensor = { tname : string; shape : int list; dt : dtype }

val numel : tensor -> int
val tensor_bytes : tensor -> int

type access = {
  src : tensor;
  idx : Expr.t list;  (** one index expression per tensor dimension *)
  guards : (Expr.t * int) list;
      (** each [(e, m)] requires [e mod m = 0], else the access reads zero *)
}

type body =
  | Contract of access * access  (** out\[spatial\] += a * b over reductions *)
  | Copy of access               (** out\[spatial\] = a *)
  | Scan of access
      (** out\[..., i\] = sum over j <= i of a\[..., j\] along the last
          spatial iterator *)

type post_op = Relu | Sigmoid | Scale of float
    (** fusable elementwise epilogues (applied by the Always-Inline rule) *)

val apply_post : post_op -> float -> float

type t = {
  cname : string;
  iters : iter list;
  inputs : tensor list;
  out : tensor;
  out_idx : Expr.t list;
  body : body;
  flops : float;  (** nominal floating-point operations (2 per MAC) *)
  post : post_op option;  (** fused elementwise epilogue, if any *)
}

val fuse_post : t -> post_op -> t
(** [fuse_post op p] fuses the elementwise epilogue [p] into [op] — the
    paper's Always-Inline rule: strictly inlinable consumers are computed
    in place, adding no stage and no intermediate tensor. *)

val spatial_iters : t -> iter list
val reduction_iters : t -> iter list
val find_iter : t -> string -> iter
val to_string : t -> string

(** {2 Operator constructors}

    These build the nine operators of the paper's evaluation. All shapes are
    in elements; convolutions use NCHW layout. *)

val gemm : ?dt:dtype -> m:int -> n:int -> k:int -> unit -> t
val bmm : ?dt:dtype -> b:int -> m:int -> n:int -> k:int -> unit -> t
val gemv : ?dt:dtype -> m:int -> k:int -> unit -> t

val conv1d :
  ?dt:dtype -> n:int -> ci:int -> l:int -> co:int -> kl:int -> stride:int -> pad:int -> unit -> t

val conv2d :
  ?dt:dtype ->
  ?dilation:int ->
  n:int -> ci:int -> h:int -> w:int -> co:int -> kh:int -> kw:int -> stride:int -> pad:int ->
  unit -> t

val conv3d :
  ?dt:dtype ->
  n:int -> ci:int -> d:int -> h:int -> w:int -> co:int -> kd:int -> kh:int -> kw:int ->
  stride:int -> pad:int -> unit -> t

val dilated2d :
  ?dt:dtype ->
  n:int -> ci:int -> h:int -> w:int -> co:int -> kh:int -> kw:int -> stride:int -> pad:int ->
  dilation:int -> unit -> t

val transposed2d :
  ?dt:dtype ->
  n:int -> ci:int -> h:int -> w:int -> co:int -> kh:int -> kw:int -> stride:int -> pad:int ->
  unit -> t

val scan : ?dt:dtype -> b:int -> l:int -> unit -> t

val conv_out_dim : in_dim:int -> kernel:int -> stride:int -> pad:int -> dilation:int -> int
(** Output extent of a convolution along one axis. *)
