(* Flat row-major matrix of bin indices: one byte per cell, [n_rows] rows
   of [n_features] columns in a single [Bytes.t]. This is the storage the
   whole cost-model hot path runs on — training windows, fit matrices and
   batch-prediction inputs — replacing the boxed [int array array] of the
   pre-overhaul engine. A row is [n_features] consecutive bytes, so tree
   fitting and batched prediction stream cache-line-contiguous data. *)

type t = {
  n_features : int;
  mutable data : Bytes.t;
  mutable n_rows : int;
}

let max_bin = 255

let create ?(capacity = 16) ~n_features () =
  if n_features <= 0 then invalid_arg "Fmat.create: n_features must be positive";
  { n_features; data = Bytes.create (max 1 (capacity * n_features)); n_rows = 0 }

let n_features t = t.n_features
let n_rows t = t.n_rows

let reserve t rows =
  let need = rows * t.n_features in
  if Bytes.length t.data < need then begin
    let cap = max need (2 * Bytes.length t.data) in
    let data = Bytes.create cap in
    Bytes.blit t.data 0 data 0 (t.n_rows * t.n_features);
    t.data <- data
  end

let set_rows t rows =
  if rows < 0 then invalid_arg "Fmat.set_rows: negative row count";
  reserve t rows;
  t.n_rows <- rows

(* Unsafe cell accessors: callers index within [0, n_rows) x [0, n_features)
   by construction (every call site loops over its own row range). *)
let get t row feat = Char.code (Bytes.unsafe_get t.data ((row * t.n_features) + feat))

let data t = t.data

let set t row feat v =
  if v < 0 || v > max_bin then invalid_arg "Fmat.set: bin index out of byte range";
  Bytes.unsafe_set t.data ((row * t.n_features) + feat) (Char.unsafe_chr v)

let push_row t bins =
  if Array.length bins <> t.n_features then invalid_arg "Fmat.push_row: width mismatch";
  reserve t (t.n_rows + 1);
  let r = t.n_rows in
  t.n_rows <- r + 1;
  Array.iteri (fun f v -> set t r f v) bins

let row t r = Array.init t.n_features (fun f -> get t r f)

let blit_row src r dst r' =
  if src.n_features <> dst.n_features then invalid_arg "Fmat.blit_row: width mismatch";
  Bytes.blit src.data (r * src.n_features) dst.data (r' * dst.n_features) src.n_features

let of_rows ?n_features rows =
  let nf =
    match n_features with
    | Some nf -> nf
    | None ->
        if Array.length rows = 0 then invalid_arg "Fmat.of_rows: empty and no ~n_features"
        else Array.length rows.(0)
  in
  let t = create ~capacity:(max 1 (Array.length rows)) ~n_features:nf () in
  Array.iter (fun r -> push_row t r) rows;
  t
