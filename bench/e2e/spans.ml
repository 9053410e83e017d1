(* Traced rounds: spans recorded from the benchmark's own code, around
   its calls into each layer, into a bench-owned [Trace.sink].  The
   sink is never installed, so the library's internal spans stay off
   and untraced code pays nothing.

   Every span carries its op id, its own id and its parent's id (-1 for
   an op's root span, which is always named "op").  A layer's self time
   is its span's duration minus the time its child spans cover; the
   root's self time is the benchmark glue between layer calls. *)

type t = { sink : Trace.sink; origin : float; mutable next_id : int }

let now = Unix.gettimeofday
let create () = { sink = Trace.make (); origin = now (); next_id = 0 }

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add ?(track = "bench") t ~op ~id ~parent name t0 t1 =
  Trace.add_span t.sink name ~track
    ~ts_us:((t0 -. t.origin) *. 1e6)
    ~dur_us:((t1 -. t0) *. 1e6)
    ~args:[ ("op", Trace.Int op); ("id", Trace.Int id); ("parent", Trace.Int parent) ]

(* [f ()] as a child span of [parent] when tracing, bare otherwise. *)
let stage tr ~op ~parent name f =
  match tr with
  | None -> f ()
  | Some t ->
      let t0 = now () in
      let v = f () in
      add t ~op ~id:(fresh t) ~parent name t0 (now ());
      v

type span = { name : string; op : int; id : int; parent : int; dur_ms : float }

let spans t =
  List.filter_map
    (function
      | Trace.Span { name; dur_us; args; _ } -> (
          let int k =
            match List.assoc_opt k args with Some (Trace.Int i) -> Some i | _ -> None
          in
          match (int "op", int "id", int "parent") with
          | Some op, Some id, Some parent ->
              Some { name; op; id; parent; dur_ms = dur_us /. 1e3 }
          | _ -> None)
      | Trace.Counter _ -> None)
    (Trace.events t.sink)

type layer = { l_total_ms : float; l_self_ms : float; l_count : int }

(* Per span name: total and self time, and how many spans. *)
let layers t =
  let ss = spans t in
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (s.dur_ms +. Option.value (Hashtbl.find_opt child_ms s.parent) ~default:0.))
    ss;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.dur_ms -. Option.value (Hashtbl.find_opt child_ms s.id) ~default:0. in
      let l =
        Option.value (Hashtbl.find_opt acc s.name)
          ~default:{ l_total_ms = 0.; l_self_ms = 0.; l_count = 0 }
      in
      Hashtbl.replace acc s.name
        {
          l_total_ms = l.l_total_ms +. s.dur_ms;
          l_self_ms = l.l_self_ms +. self;
          l_count = l.l_count + 1;
        })
    ss;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* The spans of the first [max_ops] ops as a Chrome trace. *)
let write_chrome t ~max_ops path =
  let out = Trace.make () in
  List.iter
    (function
      | Trace.Span { name; track; cat; ts_us; dur_us; args } ->
          let keep =
            match List.assoc_opt "op" args with
            | Some (Trace.Int op) -> op < max_ops
            | _ -> true
          in
          if keep then Trace.add_span out name ~track ~cat ~args ~ts_us ~dur_us
      | Trace.Counter _ -> ())
    (Trace.events t.sink);
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Trace.to_chrome out))
