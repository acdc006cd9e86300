module Trace = Heron_obs.Trace

type span = { name : string; count : int; incl_ns : int; self_ns : int; durs_ns : int list }
type t = { spans : span list; counters : (string * int) list }

let empty name = { name; count = 0; incl_ns = 0; self_ns = 0; durs_ns = [] }

let of_events events =
  match Trace.nesting_errors events with
  | e :: _ -> Error e
  | [] ->
      let opened = Hashtbl.create 256 in
      let child_ns = Hashtbl.create 256 in
      let closed = ref [] in
      List.iter
        (fun e ->
          match (e.Trace.ev, Trace.int_field "id" e) with
          | "span_begin", Some id ->
              Hashtbl.replace opened id
                (Option.value ~default:"" (Trace.string_field "span" e), Trace.int_field "parent" e)
          | "span_end", Some id -> (
              match (Hashtbl.find_opt opened id, Trace.int_field "dur_ns" e) with
              | Some (name, parent), Some dur ->
                  closed := (id, name, dur) :: !closed;
                  Option.iter
                    (fun p ->
                      let sum = Option.value ~default:0 (Hashtbl.find_opt child_ns p) in
                      Hashtbl.replace child_ns p (sum + dur))
                    parent
              | _ -> ())
          | _ -> ())
        events;
      let by_name = Hashtbl.create 32 in
      List.iter
        (fun (id, name, dur) ->
          let s = Option.value ~default:(empty name) (Hashtbl.find_opt by_name name) in
          let children = Option.value ~default:0 (Hashtbl.find_opt child_ns id) in
          Hashtbl.replace by_name name
            {
              s with
              count = s.count + 1;
              incl_ns = s.incl_ns + dur;
              self_ns = s.self_ns + dur - children;
              durs_ns = dur :: s.durs_ns;
            })
        !closed;
      let spans = Hashtbl.fold (fun _ s acc -> s :: acc) by_name [] in
      Ok
        {
          spans = List.sort (fun a b -> String.compare a.name b.name) spans;
          counters = Trace.counters events;
        }

let read path = Result.bind (Trace.read_file path) of_events
let spans t = t.spans

let span t name =
  match List.find_opt (fun s -> s.name = name) t.spans with Some s -> s | None -> empty name

let counter t name = Option.value ~default:0 (List.assoc_opt name t.counters)
