type better = Lower | Higher
type metric = { name : string; unit : string; better : better; layer : string }

let m layer name unit better = { name; unit; better; layer }
let e2e = m "end-to-end"

let end_to_end =
  [
    e2e "setup_s" "s" Lower;
    e2e "tune_s" "s" Lower;
    e2e "best_tflops_geomean" "TFLOPS" Higher;
    e2e "net_tflops" "TFLOPS" Higher;
    e2e "lookup_p50_ns" "ns" Lower;
    e2e "lookup_p99_ns" "ns" Lower;
    e2e "lookups_per_s" "1/s" Higher;
    e2e "hit_ratio" "ratio" Higher;
    e2e "peak_rss_mb" "MB" Lower;
  ]

let per_layer =
  [
    m "heron" "generator.generate_s" "s" Lower;
    m "heron" "space.variables" "count" Lower;
    m "heron" "space.constraints" "count" Lower;
    m "heron_csp" "solver.solve_calls" "count" Lower;
    m "heron_csp" "solver.nodes" "count" Lower;
    m "heron_csp" "solver.fails" "count" Lower;
    m "heron_csp" "solver.fail_ratio" "ratio" Lower;
    m "heron_csp" "solver.compile_cache_hit_ratio" "ratio" Higher;
    m "heron_csp" "solver.nodes_per_s" "1/s" Higher;
    m "heron_search" "cga.seed_population_s" "s" Lower;
    m "heron_search" "cga.evolve_s" "s" Lower;
    m "heron_search" "cga.rank_s" "s" Lower;
    m "heron_search" "cga.measure_s" "s" Lower;
    m "heron_search" "cga.model_s" "s" Lower;
    m "heron_search" "cga.iterations" "count" Lower;
    m "heron_search" "cga.offspring_accept_ratio" "ratio" Higher;
    m "heron_search" "env.cache_hit_ratio" "ratio" Higher;
    m "checkpoint" "tune.unspanned_s" "s" Lower;
    m "checkpoint" "checkpoint.save_ms" "ms" Lower;
    m "checkpoint" "checkpoint.bytes" "bytes" Lower;
    m "heron_cost" "costmodel.fit_s" "s" Lower;
    m "heron_cost" "costmodel.fit_calls" "count" Lower;
    m "heron_cost" "costmodel.predict_rows" "count" Lower;
    m "heron_dla" "measure.runs" "count" Lower;
    m "heron_dla" "measure.invalid" "count" Lower;
    m "heron_nets" "nets.rounds" "count" Lower;
    m "heron_nets" "nets.transfer_applied" "count" Higher;
    m "heron_serving" "serve.lookup_hit_p50_ns" "ns" Lower;
    m "heron_serving" "serve.lookup_miss_p50_ns" "ns" Lower;
    m "heron_serving" "serve.enqueue_p50_us" "us" Lower;
    m "heron_serving" "index.query_p50_ns" "ns" Lower;
    m "heron_serving" "store.load_s" "s" Lower;
    m "heron_serving" "serve.publish_s" "s" Lower;
    m "heron_serving" "serve.publishes" "count" Lower;
    m "heron_serving" "serve.enqueued" "count" Lower;
    m "heron_serving" "serve.deduped" "count" Lower;
    m "heron_serving" "serve.near_ratio" "ratio" Higher;
    m "heron_obs" "obs.overhead_ratio" "ratio" Lower;
  ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"
