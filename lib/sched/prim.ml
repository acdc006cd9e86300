type thread_axis = Block_x | Block_y | Thread_x | Thread_y | Vthread | Core

let thread_axis_to_string = function
  | Block_x -> "blockIdx.x"
  | Block_y -> "blockIdx.y"
  | Thread_x -> "threadIdx.x"
  | Thread_y -> "threadIdx.y"
  | Vthread -> "vthread"
  | Core -> "core"

type t =
  | Split of { stage : string; loop : string; outer : string; inner : string; factor : string }
  | Fuse of { stage : string; loops : string list; into : string }
  | Reorder of { stage : string; order : string list }
  | Cache_read of { tensor : string; scope : string; reader : string; new_stage : string }
  | Cache_write of { tensor : string; scope : string; new_stage : string }
  | Compute_at of { stage : string; parent : string; location : string }
  | Bind of { stage : string; loop : string; axis : thread_axis }
  | Unroll of { stage : string; loop : string; length : string }
  | Vectorize of { stage : string; loop : string; length : string }
  | Tensorize of { stage : string; intrin : string; m : string; n : string; k : string }
  | Storage_align of { stage : string; pad : string }
  | Parallel of { stage : string; loop : string }

let to_string = function
  | Split s ->
      Printf.sprintf "%s.split(%s -> %s, %s; factor=%s)" s.stage s.loop s.outer s.inner
        s.factor
  | Fuse f -> Printf.sprintf "%s.fuse([%s] -> %s)" f.stage (String.concat ", " f.loops) f.into
  | Reorder r -> Printf.sprintf "%s.reorder(%s)" r.stage (String.concat ", " r.order)
  | Cache_read c ->
      Printf.sprintf "cache_read(%s, %S) for %s -> %s" c.tensor c.scope c.reader c.new_stage
  | Cache_write c -> Printf.sprintf "cache_write(%s, %S) -> %s" c.tensor c.scope c.new_stage
  | Compute_at c -> Printf.sprintf "%s.compute_at(%s, loc=%s)" c.stage c.parent c.location
  | Bind b -> Printf.sprintf "%s.bind(%s, %s)" b.stage b.loop (thread_axis_to_string b.axis)
  | Unroll u -> Printf.sprintf "%s.unroll(%s, len=%s)" u.stage u.loop u.length
  | Vectorize v -> Printf.sprintf "%s.vectorize(%s, len=%s)" v.stage v.loop v.length
  | Tensorize t ->
      Printf.sprintf "%s.tensorize(%s; m=%s n=%s k=%s)" t.stage t.intrin t.m t.n t.k
  | Storage_align s -> Printf.sprintf "%s.storage_align(pad=%s)" s.stage s.pad
  | Parallel p -> Printf.sprintf "%s.parallel(%s)" p.stage p.loop
