(* Per-lane counters, each padded to its own lines, and a
   spin-then-block wait.  The handoff is the Dekker pair of
   Domain_pool's job board: a waiter counts itself in [sleepers]
   before its last look at the counters, and [publish] reads
   [sleepers] after its store, so under sequential consistency at
   least one of them sees the other; the waiter re-checks and waits
   under [m], and the wake-up broadcasts under [m]. *)

type t = {
  counters : int Atomic.t array;
  sleepers : int Atomic.t;
  m : Mutex.t;
  cv : Condition.t;
}

(* Words per counter block: two 64-byte lines, since the adjacent-line
   prefetcher moves lines in pairs (as [Compiled.line_pad]). *)
let line_words = 16

(* An [int Atomic.t] alone on its lines.  [Atomic.make] allocates a
   one-field block, which the allocator packs next to other small
   blocks, another lane's counter among them.  An atomic is field 0 of
   its block, so a block of [line_words] fields whose first field
   holds the value is the same atomic with its own lines behind it
   (the layout OCaml 5.2's [Atomic.make_contended] gives). *)
let padded_atomic v : int Atomic.t =
  let b = Obj.new_block 0 line_words in
  for i = 0 to line_words - 1 do
    Obj.set_field b i (Obj.repr 0)
  done;
  Obj.set_field b 0 (Obj.repr (v : int));
  Obj.obj b

let create n =
  {
    counters = Array.init (Stdlib.max 0 n) (fun _ -> padded_atomic (-1));
    sleepers = padded_atomic 0;
    m = Mutex.create ();
    cv = Condition.create ();
  }

let reset t = Array.iter (fun c -> Atomic.set c (-1)) t.counters
let get t i = Atomic.get (Array.unsafe_get t.counters i)

let wake t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.m;
    Condition.broadcast t.cv;
    Mutex.unlock t.m
  end

let publish t i v =
  Atomic.set t.counters.(i) v;
  wake t

let await t ~spins ready x i =
  let s = ref spins in
  while !s > 0 && not (ready x i) do
    Domain.cpu_relax ();
    decr s
  done;
  if not (ready x i) then begin
    Mutex.lock t.m;
    Atomic.incr t.sleepers;
    while not (ready x i) do
      Condition.wait t.cv t.m
    done;
    Atomic.decr t.sleepers;
    Mutex.unlock t.m
  end
