(* Lint the promoted benchmark reports (the root BENCH_*.json files).

   Each report embeds the verdicts it was gated on — identity booleans,
   "gates" objects, speedups. This linter re-reads the promoted artifacts
   and fails @ci unless each one parses, carries its required sections,
   and asserts only green verdicts: a stale or hand-edited report with a
   false gate cannot sit at the repository root claiming it passed.

   Checks per file:
   - parses as a JSON object with a "workload" object;
   - file-specific required top-level sections are present;
   - every field anywhere whose name contains "identical", and every
     field of a "gates" object, is literally [true];
   - every field named "speedup" is a finite, strictly positive number. *)

module Json = Heron_obs.Json

let errors = ref []
let err file fmt = Printf.ksprintf (fun s -> errors := (file ^ ": " ^ s) :: !errors) fmt

(* Required top-level sections by basename; unknown BENCH files get the
   generic checks only. *)
let required = function
  | "BENCH_serve.json" -> [ "workload"; "traffic"; "gates" ]
  | "BENCH_nets.json" -> [ "workload"; "gradient"; "round_robin"; "transfer"; "gates" ]
  | _ -> [ "workload" ]

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rec walk file path (j : Json.t) =
  match j with
  | Json.Obj fields ->
      List.iter
        (fun (k, v) ->
          let p = if path = "" then k else path ^ "." ^ k in
          (if contains_sub ~sub:"identical" k then
             match v with
             | Json.Bool true -> ()
             | _ -> err file "%s: identity verdict is not true" p);
          (if k = "gates" then
             match v with
             | Json.Obj gs ->
                 List.iter
                   (fun (gk, gv) ->
                     if gv <> Json.Bool true then err file "%s.%s: gate is not true" p gk)
                   gs
             | _ -> err file "%s: \"gates\" is not an object" p);
          (if k = "speedup" then
             match v with
             | Json.Int i -> if i <= 0 then err file "%s: speedup %d not positive" p i
             | Json.Float f ->
                 if not (Float.is_finite f) || f <= 0.0 then
                   err file "%s: speedup %g not finite-positive" p f
             | _ -> err file "%s: speedup is not a number" p);
          walk file p v)
        fields
  | Json.List l -> List.iteri (fun i v -> walk file (Printf.sprintf "%s[%d]" path i) v) l
  | Json.Float f -> if not (Float.is_finite f) then err file "%s: non-finite number" path
  | _ -> ()

let lint_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e ->
      err file "unreadable: %s" e;
      0
  | raw -> (
      match Json.parse raw with
      | Error e ->
          err file "parse error: %s" e;
          0
      | Ok j ->
          (match j with
          | Json.Obj fields ->
              let base = Filename.basename file in
              List.iter
                (fun k ->
                  match List.assoc_opt k fields with
                  | Some (Json.Obj _) | Some (Json.List _) -> ()
                  | Some _ -> err file "required section %S is not an object or array" k
                  | None -> err file "required section %S missing" k)
                (required base)
          | _ -> err file "top level is not an object");
          walk file "" j;
          1)

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "bench_lint: no BENCH_*.json files given";
    exit 2
  end;
  let n = List.fold_left (fun acc f -> acc + lint_file f) 0 files in
  match List.rev !errors with
  | [] -> Printf.printf "bench_lint: %d report(s) OK\n" n
  | es ->
      List.iter prerr_endline es;
      Printf.eprintf "bench_lint: %d problem(s) in %d report(s)\n" (List.length es)
        (List.length files);
      exit 1
