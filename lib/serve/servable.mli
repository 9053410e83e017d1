(** Workloads recast for serving: a whole-sequence program as a
    per-tick {e step program} over a shared batch dimension, derived
    from the program's own left fold.  {!of_program} accepts a body
    [X.map { |params| AGG }] — the [map] is the request axis — with
    [AGG] either (S1) [SEQ.scanl|foldl|reduce(seed) { |h, tok..| CELL }]
    or (S2) [D.scanl|foldl|reduce(SEQ) { |ss, d..| ss.scanl(seed) { |st, tok..| CELL } }]
    with [D] shared, whose step swaps the scans and carries one state
    per layer.  A seeded [reduce] is a left fold.  An S1 fold may be
    bound, [let x = FOLD in FINISH]: FINISH, over [x] and the shared
    inputs, is the response.  [SEQ] zips map parameters and inputs; an
    input it reads is token data, owned by each request.  A map
    parameter the cell reads but [SEQ] does not zip is a per-request
    constant, carried in every token.

    The step takes one of two layouts, chosen from the cell alone.
    {e Widened}: every per-request leaf is a [[1,C]] row and the cell
    is row-independent (DESIGN.md, "Serving"), so slot [i] is row [i]
    of one [[W,C]] tensor per leaf.  {e Per slot}: otherwise, the cell
    maps over [[W]] lists of each request's own leaves.  Either way a
    batched run is bitwise the solo run of every slot.  Nothing is
    recognized by its name.

    A servable is stateful: widened, [sv_env] and [sv_demux] fill
    buffers the servable keeps per width (at most {!width_limit}
    widths), and hand them out again on the next tick at that width.
    One scheduler at a time may use a servable. *)

type t = {
  sv_name : string;
  sv_seq_len : int;  (** default tokens per request, from the program *)
  sv_shared : (string * Fractal.t) list;
      (** weight inputs, identical for every request and width *)
  sv_new_request : Rng.t -> len:int -> Fractal.t * Fractal.t array;
      (** (initial carried state, tokens) for a fresh request *)
  sv_pad : Fractal.t * Fractal.t;
      (** (state, token) occupying empty slots: a fresh request's state
          and zero tokens, finite so a pad never poisons the batch *)
  sv_step : int -> Expr.program;  (** the step program at a width *)
  sv_env :
    width:int -> (Fractal.t * Fractal.t) array -> (string * Fractal.t) list;
      (** executor inputs from [width] per-slot (state, token) rows.
          Widened: the rows blitted into the width's own [[W,C]]
          inputs, returned in the same env list every time and valid
          until the next [sv_env] at that width; allocates nothing
          once the width is buffered.  Per slot: the slots' own
          leaves. *)
  sv_demux : width:int -> (string * Fractal.t) list -> Fractal.t array;
      (** per-slot new state out of one executor run, which may be the
          executor's borrowed outputs: demux never keeps them.
          Widened: the rows blitted into the width's own per-slot
          states, the same array every time and overwritten by the
          next [sv_demux] at that width (copy a state to keep it);
          allocates nothing once the width is buffered.  Per slot:
          fresh copies of each slot's leaves. *)
  sv_reserve : width:int -> unit;
      (** allocate the width's buffers now (widened; nothing per
          slot), as {!Session.prepared} does next to the width's
          executable, so the first tick at the width allocates
          nothing *)
  sv_finish : Fractal.t -> Fractal.t;
      (** the response: a pure function of the final carried state
          (FINISH, when the program binds one) *)
}

val width_limit : int
(** Most widths whose buffers a servable keeps (a {!Bounded_cache});
    a width evicted and asked for again gets fresh buffers. *)

val of_program : Expr.program -> (t, string) result
(** Derive the servable of a type-checked program at the dimensions it
    declares.  Never raises: an underivable program is an [Error]
    naming the rule that failed. *)

val reference : Expr.program -> Fractal.t array -> Fractal.t
(** The reference interpreter's response to a request's tokens:
    [Interp.run_program] on the program declared at batch 1 and the
    request's length, tokens in slot 0, shared inputs as
    {!of_program}'s, taken at the last token.
    @raise Invalid_argument when {!of_program} is an [Error]. *)

val rows : Expr.program -> (string * Fractal.t) list -> Fractal.t array array
(** The tokens of each batch row of the program's inputs, to serve the
    rows as requests.  @raise Invalid_argument as {!reference}. *)

val builtin : string -> t option
(** The servable of a {!builtin_program}. *)

val builtin_program : string -> Expr.program option
(** Serving-sized [.ft] sources of the builtin workloads: [ftc serve NAME]
    and the serve benchmark need no file. *)

val builtin_names : string list
