module Op = Heron_tensor.Op

type annotation =
  | Plain
  | Unrolled of string
  | Vectorized of string
  | Bound of Prim.thread_axis
  | Tensorized

type loop = {
  lname : string;
  extent_var : string;
  origin : string;
  kind : Op.iter_kind;
  ann : annotation;
}

type attach = Root | At of { parent : string; location_var : string }

type role = Load of string | Compute | Store

type stage = {
  sname : string;
  scope : string;
  loops : loop list;
  attach : attach;
  role : role;
  align_pad : string option;
}

type t = {
  op : Op.t;
  stages : stage list;
  prims : Prim.t list;
  intrin : string option;
}

let find_stage t name =
  match List.find_opt (fun s -> s.sname = name) t.stages with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Template.find_stage: no stage %s" name)

let compute_stage t =
  match List.find_opt (fun s -> s.role = Compute) t.stages with
  | Some s -> s
  | None -> invalid_arg "Template.compute_stage: template has no compute stage"

let annotation_to_string = function
  | Plain -> ""
  | Unrolled v -> Printf.sprintf " [unroll %s]" v
  | Vectorized v -> Printf.sprintf " [vectorize %s]" v
  | Bound ax -> Printf.sprintf " [%s]" (Prim.thread_axis_to_string ax)
  | Tensorized -> " [tensorized]"

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "template of %s\n" (Op.to_string t.op));
  List.iter
    (fun s ->
      let attach =
        match s.attach with
        | Root -> "root"
        | At { parent; location_var } -> Printf.sprintf "at %s[%s]" parent location_var
      in
      Buffer.add_string buf
        (Printf.sprintf "  stage %s (%s, %s, %s)\n" s.sname s.scope
           (match s.role with Load tn -> "load " ^ tn | Compute -> "compute" | Store -> "store")
           attach);
      List.iter
        (fun l ->
          Buffer.add_string buf
            (Printf.sprintf "    %s <- %s (origin %s%s)%s\n" l.lname l.extent_var l.origin
               (if l.kind = Op.Reduction then ", reduce" else "")
               (annotation_to_string l.ann)))
        s.loops)
    t.stages;
  Buffer.contents buf
