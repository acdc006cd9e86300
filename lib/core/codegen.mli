(** Pseudo-code generation: renders a concrete (scheduled) program as a
    readable kernel in the target's idiom — CUDA-with-wmma for TensorCore,
    AVX512-VNNI-flavored C for DL Boost, VTA runtime calls for VTA.

    The output is documentation-quality pseudo-code (the loop structure,
    memory staging, bindings, intrinsic calls and launch configuration of
    the generated program), not compilable source: the containers this
    reproduction runs in have no CUDA/VNNI toolchain to consume it. *)

module Concrete = Heron_sched.Concrete
module Descriptor = Heron_dla.Descriptor

val emit : Descriptor.t -> Concrete.t -> string
(** Full kernel rendering, including a launch-configuration header. *)
