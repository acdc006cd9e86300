module M = Map.Make (String)

type t = int M.t

let empty = M.empty
let of_list l = List.fold_left (fun m (k, v) -> M.add k v m) M.empty l

let of_values names values =
  let m = ref M.empty in
  for i = Array.length names - 1 downto 0 do
    m := M.add names.(i) values.(i) !m
  done;
  !m
let bindings = M.bindings
let get t k = M.find k t
let find_opt t k = M.find_opt k t
let set t k v = M.add k v t
let mem t k = M.mem k t
let cardinal = M.cardinal
let equal = M.equal Int.equal
let fold f t acc = M.fold f t acc

let key t =
  bindings t |> List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) |> String.concat ";"

let to_string = key

let of_key s =
  if String.length s = 0 then Ok empty
  else
    let parts = String.split_on_char ';' s in
    let rec build m = function
      | [] -> Ok m
      | part :: rest -> (
          match String.index_opt part '=' with
          | None -> Error (Printf.sprintf "binding %S has no '='" part)
          | Some i -> (
              let v = String.sub part 0 i in
              let x = String.sub part (i + 1) (String.length part - i - 1) in
              if v = "" then Error (Printf.sprintf "binding %S has an empty variable" part)
              else
                match int_of_string_opt x with
                | None -> Error (Printf.sprintf "binding %S has a non-integer value" part)
                | Some x -> build (M.add v x m) rest))
    in
    match build M.empty parts with
    | Error _ as e -> e
    | Ok m ->
        (* Only canonical renderings round-trip: [key] sorts bindings and
           never repeats a variable, so a reordered or duplicated key is a
           corrupt input, not an alternate spelling. *)
        if String.equal (key m) s then Ok m
        else Error "not in canonical key form (sorted, no duplicate variables)"
