(* One table behind one mutex.  Recency is a stamp per slot from a
   per-cache clock, so touching a slot is O(1). *)

type 'v slot = { value : 'v; mutable used : int }

type ('k, 'v) t = {
  limit : int;
  mu : Mutex.t;
  table : ('k, 'v slot) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ~limit =
  if limit < 1 then invalid_arg "Bounded_cache.create: limit must be >= 1";
  { limit; mu = Mutex.create (); table = Hashtbl.create (Stdlib.min limit 64);
    clock = 0; hits = 0; misses = 0; evictions = 0 }

let locked t f = Mutex.protect t.mu f

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions;
        entries = Hashtbl.length t.table })

let clear (t : (_, _) t) =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)

let keys t = locked t (fun () -> Hashtbl.fold (fun k _ ks -> k :: ks) t.table [])

(* The most (or least) recently used slot whose entry satisfies [p]. *)
let pick t ~newest p =
  Hashtbl.fold
    (fun k s best ->
      if not (p k s.value) then best
      else
        match best with
        | Some (_, b) when b.used > s.used = newest -> best
        | _ -> Some (k, s))
    t.table None

(* Count a lookup; a hit becomes the most recently used. *)
let lookup (t : (_, _) t) k =
  match Hashtbl.find_opt t.table k with
  | Some s ->
      t.hits <- t.hits + 1;
      t.clock <- t.clock + 1;
      s.used <- t.clock;
      Some s.value
  | None ->
      t.misses <- t.misses + 1;
      None

let find t k = locked t (fun () -> lookup t k)

let put t k v =
  locked t (fun () ->
      if Hashtbl.length t.table >= t.limit && not (Hashtbl.mem t.table k) then
        Option.iter
          (fun (old, _) ->
            Hashtbl.remove t.table old;
            t.evictions <- t.evictions + 1)
          (pick t ~newest:false (fun _ _ -> true));
      t.clock <- t.clock + 1;
      Hashtbl.replace t.table k { value = v; used = t.clock })

let find_or_add t k make =
  match find t k with
  | Some v -> v
  | None ->
      let v = make () in
      put t k v;
      v

let peek t k =
  locked t (fun () -> Option.map (fun s -> s.value) (Hashtbl.find_opt t.table k))

let peek_where t p =
  locked t (fun () -> Option.map (fun (_, s) -> s.value) (pick t ~newest:true p))

let take t k =
  locked t (fun () ->
      let v = lookup t k in
      Hashtbl.remove t.table k;
      v)

let take_where t p =
  locked t (fun () ->
      Option.map
        (fun (k, s) ->
          t.hits <- t.hits + 1;
          Hashtbl.remove t.table k;
          s.value)
        (pick t ~newest:true p))
