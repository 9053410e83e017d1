(* A generation-counted job board that spins first and blocks second.
   The submitter writes one loop's state into the pool record (body,
   range, chunking; no allocation), bumps [gen] and runs its own share;
   every worker that sees the new generation claims chunks through the
   atomic [cursor] until none are left, then decrements [pending].
   [gen], [pending], [cursor] and [failure] are atomics: the release of
   the [gen] bump makes the loop state visible to the workers, and the
   last [pending] decrement makes the workers' writes visible to the
   submitter.

   Waiting on either side spins on its atomic for about [spin_ns] with
   [Domain.cpu_relax], then blocks on a condition, so an idle pool
   costs no CPU.  The spin/block handoff is a Dekker pair of atomics
   under sequential consistency: a worker announces itself in
   [sleepers] before its last look at [gen], and the submitter reads
   [sleepers] after bumping [gen], so at least one of them sees the
   other and no wake-up is lost; [blocked] and [pending] pair up the
   same way for the submitter's wait.  A pool with more domains than
   the host recommends never spins: a spinning domain would take the
   core the domain it waits for needs. *)

type t = {
  nworkers : int; (* spawned domains; size = nworkers + 1 *)
  spins : int; (* cpu_relax rounds before blocking; 0 when oversubscribed *)
  m : Mutex.t; (* guards the two conditions only *)
  submit_m : Mutex.t; (* serializes whole loops across submitter domains *)
  work_cv : Condition.t;
  done_cv : Condition.t;
  gen : int Atomic.t; (* bumped once per published loop *)
  pending : int Atomic.t; (* workers still inside the current loop *)
  stop : bool Atomic.t;
  sleepers : int Atomic.t; (* workers blocked (or about to) on work_cv *)
  blocked : bool Atomic.t; (* the submitter is blocked on done_cv *)
  (* The current loop, written by the submitter under [submit_m] before
     it bumps [gen]: [body w i] for [lo <= i < hi] in [nchunks] chunks
     of [chunk] indices, claimed through [cursor]; the first exception
     lands in [failure]. *)
  mutable body : int -> int -> unit;
  mutable lo : int;
  mutable hi : int;
  mutable chunk : int;
  mutable nchunks : int;
  cursor : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable workers : unit Domain.t list;
}

(* Loops issued from inside a worker run inline: a worker blocking on
   its own pool would deadlock it. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* How long a waiting domain spins before it blocks: loops issued
   every few microseconds (wavefront fronts, sharded phases) never
   meet a futex.  Much longer spins show up as CPU time beyond wall
   time in whatever runs on the caller right after a loop. *)
let spin_ns = 10_000.

(* The spin count that lasts [spin_ns]: one spin round is a
   [cpu_relax] plus an atomic read, timed once per pool. *)
let calibrate_spins () =
  let rounds = 4096 and probe = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    Domain.cpu_relax ();
    ignore (Atomic.get probe)
  done;
  let round_ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int rounds in
  Stdlib.max 1 (int_of_float (spin_ns /. Float.max round_ns 1.))

let no_body _ _ = ()

(* Run chunks of the current loop until the cursor passes the last
   one.  After a failure the remaining chunks are claimed and
   skipped, so the loop still quiesces. *)
let rec claim pool w =
  let c = Atomic.fetch_and_add pool.cursor 1 in
  if c < pool.nchunks then begin
    (match Atomic.get pool.failure with
    | Some _ -> ()
    | None -> (
        let clo = pool.lo + (c * pool.chunk) in
        let chi = Stdlib.min pool.hi (clo + pool.chunk) and f = pool.body in
        try
          for i = clo to chi - 1 do
            f w i
          done
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set pool.failure None (Some (e, bt)))));
    claim pool w
  end

let idle pool my_gen =
  Atomic.get pool.gen = my_gen && not (Atomic.get pool.stop)

(* Wait for a generation other than [my_gen] (or for [stop]) and
   return the current one. *)
let await_job pool my_gen =
  let spins = ref pool.spins in
  while !spins > 0 && idle pool my_gen do
    Domain.cpu_relax ();
    decr spins
  done;
  if idle pool my_gen then begin
    Mutex.lock pool.m;
    Atomic.incr pool.sleepers;
    while idle pool my_gen do
      Condition.wait pool.work_cv pool.m
    done;
    Atomic.decr pool.sleepers;
    Mutex.unlock pool.m
  end;
  Atomic.get pool.gen

(* A new generation is always run, even when [stop] is also set, so a
   published loop never waits on a worker that left. *)
let worker_loop ix pool =
  Domain.DLS.set in_worker_key true;
  let rec loop my_gen =
    let g = await_job pool my_gen in
    if g <> my_gen then begin
      claim pool ix;
      if Atomic.fetch_and_add pool.pending (-1) = 1 && Atomic.get pool.blocked
      then begin
        Mutex.lock pool.m;
        Condition.broadcast pool.done_cv;
        Mutex.unlock pool.m
      end;
      loop g
    end
  in
  loop 0

let create ~domains =
  let n = Stdlib.max 1 domains in
  let pool =
    {
      nworkers = n - 1;
      spins =
        (if n = 1 || n > Domain.recommended_domain_count () then 0
         else calibrate_spins ());
      m = Mutex.create ();
      submit_m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      gen = Atomic.make 0;
      pending = Atomic.make 0;
      stop = Atomic.make false;
      sleepers = Atomic.make 0;
      blocked = Atomic.make false;
      body = no_body;
      lo = 0;
      hi = 0;
      chunk = 1;
      nchunks = 0;
      cursor = Atomic.make 0;
      failure = Atomic.make None;
      workers = [];
    }
  in
  pool.workers <-
    List.init pool.nworkers (fun i ->
        Domain.spawn (fun () -> worker_loop (i + 1) pool));
  pool

let size pool = pool.nworkers + 1

(* Taking [submit_m] waits out a loop in flight, so the workers are all
   idle when they see [stop], and no loop can be published between a
   submitter's look at [stop] and its [gen] bump. *)
let shutdown pool =
  Mutex.lock pool.submit_m;
  let ws = pool.workers in
  pool.workers <- [];
  Atomic.set pool.stop true;
  Mutex.lock pool.m;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.m;
  Mutex.unlock pool.submit_m;
  List.iter Domain.join ws

(* The submitter's wait for the workers to check out of the loop. *)
let await_workers pool =
  let spins = ref pool.spins in
  while !spins > 0 && Atomic.get pool.pending > 0 do
    Domain.cpu_relax ();
    decr spins
  done;
  if Atomic.get pool.pending > 0 then begin
    Mutex.lock pool.m;
    Atomic.set pool.blocked true;
    while Atomic.get pool.pending > 0 do
      Condition.wait pool.done_cv pool.m
    done;
    Atomic.set pool.blocked false;
    Mutex.unlock pool.m
  end

(* Publish [f] over [nchunks] chunks of [chunk] indices from [lo], run
   the caller's share and wait for quiescence; the first exception is
   re-raised, with its backtrace, after the loop quiesces.

   Concurrent submitters (several client domains driving loops on one
   pool, the serving layer's pattern) serialize on [submit_m]: the
   board holds one loop at a time, so waiting submitters see
   backpressure, never corruption.  While the caller runs its own share
   it is marked as a worker so loops issued from inside the body run
   inline instead of self-deadlocking on [submit_m].  Nothing here
   allocates unless a body raises. *)
let fork_join pool f ~lo ~hi ~chunk ~nchunks =
  Mutex.lock pool.submit_m;
  if Atomic.get pool.stop then begin
    Mutex.unlock pool.submit_m;
    for i = lo to hi - 1 do
      f 0 i
    done
  end
  else begin
    pool.body <- f;
    pool.lo <- lo;
    pool.hi <- hi;
    pool.chunk <- chunk;
    pool.nchunks <- nchunks;
    Atomic.set pool.cursor 0;
    Atomic.set pool.failure None;
    Atomic.set pool.pending pool.nworkers;
    Atomic.incr pool.gen;
    if Atomic.get pool.sleepers > 0 then begin
      Mutex.lock pool.m;
      Condition.broadcast pool.work_cv;
      Mutex.unlock pool.m
    end;
    Domain.DLS.set in_worker_key true;
    claim pool 0;
    Domain.DLS.set in_worker_key false;
    await_workers pool;
    let failure = Atomic.get pool.failure in
    (* drop the body so the pool does not keep what it captured alive *)
    pool.body <- no_body;
    Mutex.unlock pool.submit_m;
    match failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let chunk_size ~default = function
  | Some c when c >= 1 -> c
  | Some _ -> invalid_arg "Domain_pool: chunk must be >= 1"
  | None -> default

(* The body also receives the index of the domain running it — the
   compiled engine uses it to pick per-worker scratch buffers.  The
   inline path (trivial pool, single chunk, issued from a worker)
   passes 0; that path is what makes `domains=1` a strict no-op
   passthrough. *)
let parallel_for_workers ?chunk pool ~lo ~hi f =
  let n = hi - lo in
  if n <= 0 then ()
  else if pool.nworkers = 0 || n = 1 || Domain.DLS.get in_worker_key then
    for i = lo to hi - 1 do
      f 0 i
    done
  else begin
    let chunk = chunk_size ~default:(Stdlib.max 1 (n / (size pool * 4))) chunk in
    let nchunks = (n + chunk - 1) / chunk in
    if nchunks = 1 then
      for i = lo to hi - 1 do
        f 0 i
      done
    else fork_join pool f ~lo ~hi ~chunk ~nchunks
  end

let parallel_for ?chunk pool ~lo ~hi f =
  parallel_for_workers ?chunk pool ~lo ~hi (fun _ i -> f i)

let map_array pool f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    (* Seed the result with the first element (computed inline) so no
       dummy value is ever observable. *)
    let out = Array.make n (f a.(0)) in
    parallel_for pool ~lo:1 ~hi:n (fun i -> out.(i) <- f a.(i));
    out
  end

(* ------------------------ the pool registry ------------------------ *)

let default_num_domains () =
  match Sys.getenv_opt "FT_NUM_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let override : int option ref = ref None
let set_num_domains n = override := n

let num_domains () =
  match !override with Some n -> Stdlib.max 1 n | None -> default_num_domains ()

(* Not a cache: evicting a pool would stop it under its holders, and
   there is one entry per domain count asked for. *)
let registry : (int * t) list ref = ref []
let registry_m = Mutex.create ()

let sized n =
  let n = Stdlib.max 1 n in
  Mutex.protect registry_m (fun () ->
      match List.assoc_opt n !registry with
      | Some p -> p
      | None ->
          let p = create ~domains:n in
          registry := (n, p) :: !registry;
          p)

let get () = sized (num_domains ())

let reset () =
  let pools =
    Mutex.protect registry_m (fun () ->
        let ps = !registry in
        registry := [];
        ps)
  in
  List.iter (fun (_, p) -> shutdown p) pools
