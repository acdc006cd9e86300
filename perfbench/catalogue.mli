(** Every metric the harness reports: the end-to-end metrics of an
    untraced run and the per-layer metrics of a traced run, with their
    units and directions. [BENCHMARK.json] lists the same names; the
    test suite checks that the two agree. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  layer : string;  (** repository module the metric belongs to; ["end-to-end"] for the totals *)
}

val end_to_end : metric list
val per_layer : metric list
val better_to_string : better -> string
