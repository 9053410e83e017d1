type arg =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type event =
  | Span of {
      name : string;
      track : string;
      cat : string;
      ts_us : float;
      dur_us : float;
      args : (string * arg) list;
    }
  | Counter of { name : string; track : string; ts_us : float; value : float }

type sink = {
  mutable rev_events : event list;
  t0 : float; (* wall-clock origin, seconds *)
  mutable gpu_cursor_us : float;
}

let now () = Unix.gettimeofday ()
let make () = { rev_events = []; t0 = now (); gpu_cursor_us = 0.0 }
let events s = List.rev s.rev_events

let add_span ?(track = "compiler") ?(cat = "") ?(args = []) s name ~ts_us
    ~dur_us =
  s.rev_events <- Span { name; track; cat; ts_us; dur_us; args } :: s.rev_events

let add_counter ?(track = "compiler") s name ~ts_us ~value =
  s.rev_events <- Counter { name; track; ts_us; value } :: s.rev_events

(* ------------------------- ambient sinks --------------------------- *)

let sinks : sink list ref = ref []
let install s = sinks := s :: !sinks
let uninstall () = match !sinks with [] -> () | _ :: rest -> sinks := rest
let active () = !sinks <> []
let installed () = !sinks

let with_sink s f =
  install s;
  Fun.protect ~finally:uninstall f

let emit_span ?track ?cat ?args name ~ts_us ~dur_us =
  List.iter (fun s -> add_span ?track ?cat ?args s name ~ts_us ~dur_us) !sinks

let timed ?track ?(cat = "pass") ?(args = []) name f =
  if !sinks = [] then f ()
  else begin
    let start = now () in
    let finish () =
      let stop = now () in
      List.iter
        (fun s ->
          add_span ?track ~cat ~args s name
            ~ts_us:((start -. s.t0) *. 1e6)
            ~dur_us:((stop -. start) *. 1e6))
        !sinks
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let gpu_cursor s = s.gpu_cursor_us
let advance_gpu s d = s.gpu_cursor_us <- s.gpu_cursor_us +. d

(* --------------------------- renderers ----------------------------- *)

let arg_to_text = function
  | Int i -> string_of_int i
  | Float f -> Jsonw.float_string f
  | String s -> s
  | Bool b -> string_of_bool b

let to_text s =
  let buf = Buffer.create 512 in
  List.iter
    (fun e ->
      match e with
      | Span { name; track; cat; ts_us; dur_us; args } ->
          Buffer.add_string buf
            (Printf.sprintf "[%-8s] %12.1f +%10.1f us  %s%s%s\n" track ts_us
               dur_us name
               (if cat = "" then "" else " (" ^ cat ^ ")")
               (if args = [] then ""
                else
                  "  "
                  ^ String.concat " "
                      (List.map
                         (fun (k, v) -> k ^ "=" ^ arg_to_text v)
                         args)))
      | Counter { name; track; ts_us; value } ->
          Buffer.add_string buf
            (Printf.sprintf "[%-8s] %12.1f counter %s = %s\n" track ts_us name
               (Jsonw.float_string value)))
    (events s);
  Buffer.contents buf

let arg_to_json = function
  | Int i -> Jsonw.Int i
  | Float f -> Jsonw.Float f
  | String s -> Jsonw.String s
  | Bool b -> Jsonw.Bool b

let event_to_json = function
  | Span { name; track; cat; ts_us; dur_us; args } ->
      Jsonw.Obj
        ([ ("type", Jsonw.String "span");
           ("track", Jsonw.String track);
           ("cat", Jsonw.String cat);
           ("name", Jsonw.String name);
           ("ts_us", Jsonw.Float ts_us);
           ("dur_us", Jsonw.Float dur_us) ]
        @
        if args = [] then []
        else
          [ ("args", Jsonw.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) args))
          ])
  | Counter { name; track; ts_us; value } ->
      Jsonw.Obj
        [ ("type", Jsonw.String "counter");
          ("track", Jsonw.String track);
          ("name", Jsonw.String name);
          ("ts_us", Jsonw.Float ts_us);
          ("value", Jsonw.Float value) ]

let to_jsonv s =
  Jsonw.Obj [ ("events", Jsonw.List (List.map event_to_json (events s))) ]

let to_json s = Jsonw.to_string (to_jsonv s)

(* Chrome trace-event format.  Tracks become named threads of pid 1 via
   thread_name metadata events; tids are assigned in order of first
   appearance so output is a pure function of the event list. *)
let to_chrome s =
  let evs = events s in
  let tids = ref [] in
  let tid_of track =
    match List.assoc_opt track !tids with
    | Some t -> t
    | None ->
        let t = List.length !tids + 1 in
        tids := !tids @ [ (track, t) ];
        t
  in
  List.iter
    (fun e ->
      ignore
        (tid_of (match e with Span { track; _ } -> track | Counter { track; _ } -> track)))
    evs;
  let metadata =
    List.map
      (fun (track, tid) ->
        Jsonw.Obj
          [ ("ph", Jsonw.String "M");
            ("pid", Jsonw.Int 1);
            ("tid", Jsonw.Int tid);
            ("name", Jsonw.String "thread_name");
            ("args", Jsonw.Obj [ ("name", Jsonw.String track) ]) ])
      !tids
  in
  let body =
    List.map
      (fun e ->
        match e with
        | Span { name; track; cat; ts_us; dur_us; args } ->
            Jsonw.Obj
              ([ ("ph", Jsonw.String "X");
                 ("pid", Jsonw.Int 1);
                 ("tid", Jsonw.Int (tid_of track));
                 ("name", Jsonw.String name);
                 ("cat", Jsonw.String (if cat = "" then "default" else cat));
                 ("ts", Jsonw.Float ts_us);
                 ("dur", Jsonw.Float dur_us) ]
              @
              if args = [] then []
              else
                [ ( "args",
                    Jsonw.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) args)
                  ) ])
        | Counter { name; track; ts_us; value } ->
            Jsonw.Obj
              [ ("ph", Jsonw.String "C");
                ("pid", Jsonw.Int 1);
                ("tid", Jsonw.Int (tid_of track));
                ("name", Jsonw.String name);
                ("ts", Jsonw.Float ts_us);
                ("args", Jsonw.Obj [ ("value", Jsonw.Float value) ]) ])
      evs
  in
  Jsonw.to_string
    (Jsonw.Obj
       [ ("displayTimeUnit", Jsonw.String "ms");
         ("traceEvents", Jsonw.List (metadata @ body)) ])
