(** Schedule generation rules (paper Tables 2 and 6, Algorithm 1 Step 1).

    For a tensorizable contraction the builders apply, in order: Rule S1
    (tensorize via the hardware intrinsic), Rule S2 (multi-level SPM cache
    stages, e.g. shared memory plus wmma fragments), Rule S3 (multi-scope
    SPM cache stages, e.g. separate input/weight buffers on VTA), and the
    general multi-level-tiling rule. Each emits stages, primitives and
    constraint facts into the {!Gen_ctx}.

    All builders operate on the implicit-GEMM operator produced by
    {!Heron_tensor.Gemm_view.derived_op} (iterators [b], [i], [j], [r]). *)

val tensorcore_contraction : Gen_ctx.t -> tensorize:bool -> unit
(** The five-stage TensorCore structure (paper Eq. 1): global -> shared ->
    fragments -> TensorCores -> shared -> global. With [tensorize:false]
    the same tiling runs on CUDA cores (the Ansor-style fallback). *)

val dlboost_contraction : Gen_ctx.t -> tensorize:bool -> unit
(** VNNI (1, 16, 4) int8 structure with L2/L1 cache staging, core-parallel
    outer tiling, and a packed-layout tunable. *)

val vta_contraction : Gen_ctx.t -> unit
(** VTA (1, 16, 16) structure with explicit input/weight/accumulator
    buffers and the write-timing loop-order constraint (C6). *)

val simple_spatial : Gen_ctx.t -> unit
(** Fallback for non-contraction operators (scan): block/thread tiling of
    the first spatial iterator, remaining loops kept whole. On VTA, which
    has no scalar path, the space it describes is empty. *)
