(** Trace collection: timestamped spans and counters from the compiler
    and the simulated device, with text / JSON / Chrome-trace
    renderers.

    A {!sink} is an in-memory event collector.  Producers never talk to
    a sink directly: they call {!timed} / {!emit_span} /
    {!emit_counter}, which write to every {e installed} sink and cost
    one list check when none is installed — the same zero-cost-ambient
    pattern as {!Verify_hook}.  {!Pipeline.compile} and [Executor.simulate]
    accept a [?trace] sink and install it for the duration of the call.

    Two time bases share one trace, on separate tracks:

    - track ["compiler"]: wall-clock spans of compiler passes
      (microseconds since the sink was created);
    - track ["gpu"]: the {e simulated} kernel timeline from [Engine]
      (microseconds of simulated device time; the sink keeps a cursor
      so consecutive runs append rather than overlap).

    Renderers are pure functions of the collected events, so golden
    tests drive them with hand-made sinks holding fixed timestamps. *)

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

type sink

val make : unit -> sink
(** A fresh empty sink; its wall-clock origin is the moment of
    creation. *)

val events : sink -> event list
(** Collected events, in emission order. *)

val add_span :
  ?track:string ->
  ?cat:string ->
  ?args:(string * arg) list ->
  sink ->
  string ->
  ts_us:float ->
  dur_us:float ->
  unit
(** Append a span with explicit timestamps (track defaults to
    ["compiler"], category to [""]).  Used by render."golden" tests and
    by producers that manage their own clock. *)

val add_counter :
  ?track:string -> sink -> string -> ts_us:float -> value:float -> unit

(* ------------------------- ambient sinks --------------------------- *)

val install : sink -> unit
(** Process-wide registration; every subsequent {!timed} /
    {!emit_span} / {!emit_counter} writes into it (stacked on top of
    any sink already installed). *)

val uninstall : unit -> unit
(** Remove the most recently installed sink (no-op when none). *)

val active : unit -> bool
(** True when at least one sink is installed — producers with
    non-trivial event preparation should check this first. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s], runs [f], and uninstalls it again
    (also on exception). *)

val timed :
  ?track:string ->
  ?cat:string ->
  ?args:(string * arg) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [timed name f] runs [f], recording a wall-clock span on every
    installed sink ([track] defaults to ["compiler"]; the reference
    executor uses ["vm"]).  When no sink is installed this is just
    [f ()]. *)

val emit_span :
  ?track:string ->
  ?cat:string ->
  ?args:(string * arg) list ->
  string ->
  ts_us:float ->
  dur_us:float ->
  unit
(** Append a span (with producer-supplied timestamps) to every
    installed sink. *)

val emit_counter : ?track:string -> string -> ts_us:float -> value:float -> unit

val gpu_cursor : sink -> float
(** Current end of the sink's simulated-GPU timeline (µs). *)

val advance_gpu : sink -> float -> unit
(** Move the simulated-GPU cursor forward by a duration (µs). *)

val installed : unit -> sink list
(** The installed sinks, most recent first (for producers that need
    per-sink state such as {!gpu_cursor}). *)

(* --------------------------- renderers ----------------------------- *)

val to_text : sink -> string
(** Human-readable event listing. *)

val to_jsonv : sink -> Jsonw.t
(** The trace as a JSON value, for embedding in larger documents. *)

val to_json : sink -> string
(** The trace's own JSON schema:
    [{"events":[{"type":"span",...},...]}] with stable field order. *)

val to_chrome : sink -> string
(** Chrome trace-event format (the JSON object form with a
    ["traceEvents"] array), loadable in [chrome://tracing] and
    Perfetto.  Tracks map to named threads of one process. *)
