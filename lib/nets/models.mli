(** Layer tables for the four evaluated networks (batch 16).

    Each network is a list of (multiplicity, operator): the distinct
    compute-heavy layers with how many times they occur. End-to-end network
    latency for a method is the multiplicity-weighted sum of its per-layer
    latencies (graph-level effects such as fusion are out of scope, as in
    the paper's per-backend comparison). *)

module Op = Heron_tensor.Op

type network = { net_name : string; layers : (int * Op.t) list }

val resnet50 : network
val vgg16 : network
val inception_v3 : network
val bert : network

val tiny : network
(** Two-task toy network (duplicate layers included) for tests and the
    [@nets-quick] gate. *)

val mini : network
(** Three-task, weight-skewed miniature: the default of [experiments nets],
    which [@bench-nets] runs with [--gate]. *)

val all : network list
(** The four evaluated networks ({!tiny}/{!mini} are test fixtures, not
    part of the paper suite). *)

val find : string -> network option
(** Case- and separator-insensitive lookup by name over {!all} plus
    {!tiny} and {!mini} (["resnet-50"], ["ResNet_50"] and ["resnet.50"]
    all resolve). *)

val total_flops : network -> float
