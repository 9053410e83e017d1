(* BENCHMARK.json: the workloads and the metrics every result is
   reported under, with units, directions and regression bounds. *)

type metric = { name : string; unit_ : string; lower_is_better : bool; bound : float option }

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let load path =
  let j = Jsonr.file path in
  let metric m =
    {
      name = Jsonr.to_string (Jsonr.field "name" m);
      unit_ = Jsonr.to_string (Jsonr.field "unit" m);
      lower_is_better = Jsonr.to_string (Jsonr.field "better" m) = "lower";
      bound = Option.map Jsonr.to_float (Jsonr.field_opt "bound" m);
    }
  in
  let metrics k = List.map metric (Jsonr.to_list (Jsonr.field k j)) in
  {
    workloads =
      List.map
        (fun w -> Jsonr.to_string (Jsonr.field "name" w))
        (Jsonr.to_list (Jsonr.field "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

let find t name =
  List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)
