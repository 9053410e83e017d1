(* A generation-counted job board: the caller publishes one closure,
   bumps the generation and wakes every worker; each worker runs the
   closure to completion (the closure itself hands out chunks through
   an atomic counter, so the board never sees individual indices).
   Mutex + condition give the necessary happens-before edges: writes
   made inside a loop body are visible to the caller once the last
   worker checks in. *)

type t = {
  nworkers : int; (* spawned domains; size = nworkers + 1 *)
  m : Mutex.t;
  submit_m : Mutex.t; (* serializes whole loops across submitter domains *)
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable gen : int;
  mutable job : (unit -> unit) option;
  mutable pending : int; (* workers still inside the current job *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Loops issued from inside a worker run inline: a worker blocking on
   its own pool would deadlock it. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Each spawned worker carries its 1-based index in the pool that owns
   it; the calling domain is index 0.  A domain belongs to at most one
   pool, so one key suffices, and loops that run inline (trivial pool,
   single index, nested issue) always report index 0. *)
let worker_ix_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let worker_loop ix pool =
  Domain.DLS.set in_worker_key true;
  Domain.DLS.set worker_ix_key ix;
  let my_gen = ref 0 in
  let rec loop () =
    Mutex.lock pool.m;
    while pool.gen = !my_gen && not pool.stop do
      Condition.wait pool.work_cv pool.m
    done;
    if pool.stop then Mutex.unlock pool.m
    else begin
      my_gen := pool.gen;
      let job = pool.job in
      Mutex.unlock pool.m;
      (match job with Some f -> f () | None -> ());
      Mutex.lock pool.m;
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.broadcast pool.done_cv;
      Mutex.unlock pool.m;
      loop ()
    end
  in
  loop ()

let create ~domains =
  let n = Stdlib.max 1 domains in
  let pool =
    {
      nworkers = n - 1;
      m = Mutex.create ();
      submit_m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      gen = 0;
      job = None;
      pending = 0;
      stop = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init pool.nworkers (fun i ->
        Domain.spawn (fun () -> worker_loop (i + 1) pool));
  pool

let size pool = pool.nworkers + 1

let shutdown pool =
  Mutex.lock pool.m;
  let ws = pool.workers in
  pool.stop <- true;
  pool.workers <- [];
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.m;
  List.iter Domain.join ws

(* Run [job] on every domain of the pool (caller included) and wait
   until all of them return.  [job] must be idempotent with respect to
   concurrent execution — in practice it is always a chunk-claiming
   loop over an atomic counter.

   Concurrent submitters (several client domains driving loops on one
   pool, the serving layer's pattern) serialize on [submit_m]: the job
   board holds one job at a time, and without the lock a second
   submitter would overwrite [job]/[pending] while the first loop's
   workers are still draining it.  Waiting submitters therefore see
   backpressure, never corruption.  While the caller runs its own share
   it is marked as a worker so loops issued from inside the job body
   run inline instead of self-deadlocking on [submit_m]. *)
let run_job pool job =
  Mutex.lock pool.submit_m;
  Mutex.lock pool.m;
  if pool.stop || pool.nworkers = 0 then begin
    Mutex.unlock pool.m;
    Mutex.unlock pool.submit_m;
    job ()
  end
  else begin
    pool.job <- Some job;
    pool.gen <- pool.gen + 1;
    pool.pending <- pool.nworkers;
    Condition.broadcast pool.work_cv;
    Mutex.unlock pool.m;
    Domain.DLS.set in_worker_key true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_worker_key false)
      job;
    Mutex.lock pool.m;
    while pool.pending > 0 do
      Condition.wait pool.done_cv pool.m
    done;
    pool.job <- None;
    Mutex.unlock pool.m;
    Mutex.unlock pool.submit_m
  end

(* [run_chunk c clo chi] over the [nchunks] chunks of [chunk] indices
   from [lo], claimed through an atomic cursor — inline on a trivial
   pool, for one chunk, or from inside a worker.  The first exception
   is re-raised, with its backtrace, once the loop quiesces. *)
let run_chunks pool ~lo ~chunk ~nchunks run_chunk =
  if pool.nworkers = 0 || nchunks = 1 || Domain.DLS.get in_worker_key then
    for c = 0 to nchunks - 1 do
      run_chunk c (lo + (c * chunk)) (lo + ((c + 1) * chunk))
    done
  else begin
    let next = Atomic.make 0 and exn_slot = Atomic.make None in
    run_job pool (fun () ->
        let continue = ref true in
        while !continue do
          let c = Atomic.fetch_and_add next 1 in
          if c >= nchunks then continue := false
          else if Atomic.get exn_slot = None then begin
            let clo = lo + (c * chunk) in
            try run_chunk c clo (clo + chunk)
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set exn_slot None (Some (e, bt)))
          end
        done);
    match Atomic.get exn_slot with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let chunk_size ~default = function
  | Some c when c >= 1 -> c
  | Some _ -> invalid_arg "Domain_pool: chunk must be >= 1"
  | None -> default

(* The body also receives the index of the domain running it — the
   compiled engine uses it to pick per-worker scratch buffers.  The
   inline path (trivial pool, single iteration, issued from a worker)
   passes 0 and performs no allocation at all; that path is what makes
   `domains=1` a strict no-op passthrough. *)
let parallel_for_workers ?chunk pool ~lo ~hi f =
  let n = hi - lo in
  if n <= 0 then ()
  else if size pool = 1 || n = 1 || Domain.DLS.get in_worker_key then
    for i = lo to hi - 1 do
      f 0 i
    done
  else begin
    let chunk = chunk_size ~default:(Stdlib.max 1 (n / (size pool * 4))) chunk in
    run_chunks pool ~lo ~chunk ~nchunks:((n + chunk - 1) / chunk)
      (fun _ clo chi ->
        let w = Domain.DLS.get worker_ix_key in
        for i = clo to Stdlib.min hi chi - 1 do
          f w i
        done)
  end

let parallel_for ?chunk pool ~lo ~hi f =
  parallel_for_workers ?chunk pool ~lo ~hi (fun _ i -> f i)

(* The default reduce chunk is a pure function of the range length so
   that the chunk partials — and therefore the float association — are
   identical at every domain count. *)
let map_reduce ?chunk pool ~lo ~hi ~map ~combine ~init =
  let n = hi - lo in
  if n <= 0 then init
  else begin
    let chunk = chunk_size ~default:(Stdlib.max 1 ((n + 63) / 64)) chunk in
    let nchunks = (n + chunk - 1) / chunk in
    let partials = Array.make nchunks init in
    let fold_chunk c clo chi =
      let acc = ref init in
      for i = clo to Stdlib.min hi chi - 1 do
        acc := combine !acc (map i)
      done;
      partials.(c) <- !acc
    in
    run_chunks pool ~lo ~chunk ~nchunks fold_chunk;
    Array.fold_left combine init partials
  end

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
