type ineq = { coeffs : int array; const : int }

type t = { dim : int; cs : ineq list }

let unit_ineq dim k v = { coeffs = Array.init dim (fun i -> if i = k then v else 0); const = 0 }

let rect ~lo ~hi =
  let dim = Array.length lo in
  if Array.length hi <> dim then invalid_arg "Domain.rect: length mismatch";
  let cs = ref [] in
  for k = dim - 1 downto 0 do
    (* t_k >= lo_k  and  t_k <= hi_k - 1 *)
    cs := { (unit_ineq dim k 1) with const = -lo.(k) } :: !cs;
    cs := { (unit_ineq dim k (-1)) with const = hi.(k) - 1 } :: !cs
  done;
  { dim; cs = !cs }

let of_extents e = rect ~lo:(Array.make (Array.length e) 0) ~hi:e

let add_constraint d ineq =
  if Array.length ineq.coeffs <> d.dim then
    invalid_arg "Domain.add_constraint: arity mismatch";
  { d with cs = ineq :: d.cs }

let eval_ineq c t =
  let acc = ref c.const in
  for i = 0 to Array.length c.coeffs - 1 do
    acc := !acc + (c.coeffs.(i) * t.(i))
  done;
  !acc

let mem d t =
  Array.length t = d.dim && List.for_all (fun c -> eval_ineq c t >= 0) d.cs

(* Fourier-Motzkin: for each (upper, lower) pair of constraints on
   variable k, emit the combined constraint that cancels k.  Constraints
   not mentioning k survive unchanged. *)
let eliminate d k =
  if k < 0 || k >= d.dim then invalid_arg "Domain.eliminate: bad variable";
  let mentions, rest = List.partition (fun c -> c.coeffs.(k) <> 0) d.cs in
  let pos = List.filter (fun c -> c.coeffs.(k) > 0) mentions
  and neg = List.filter (fun c -> c.coeffs.(k) < 0) mentions in
  let combined =
    List.concat_map
      (fun p ->
        List.map
          (fun n ->
            let a = p.coeffs.(k) and b = -n.coeffs.(k) in
            (* b*p + a*n cancels variable k *)
            {
              coeffs =
                Array.init d.dim (fun i ->
                    (b * p.coeffs.(i)) + (a * n.coeffs.(i)));
              const = (b * p.const) + (a * n.const);
            })
          neg)
      pos
  in
  { d with cs = rest @ combined }

(* Range of variable [k] under [projected] (the system with variables
   [k+1..] eliminated) once variables [0..k-1] are fixed to [outer]. *)
let projected_bounds projected k ~outer =
  let lo = ref None and hi = ref None and feasible = ref true in
  List.iter
    (fun c ->
      let a = c.coeffs.(k) in
      let fixed = ref c.const in
      for i = 0 to k - 1 do
        fixed := !fixed + (c.coeffs.(i) * outer.(i))
      done;
      if a > 0 then begin
        (* a*t_k + fixed >= 0  =>  t_k >= ceil(-fixed / a) *)
        let b =
          if !fixed >= 0 then - (!fixed / a)
          else (- !fixed + a - 1) / a
        in
        match !lo with
        | None -> lo := Some b
        | Some cur -> lo := Some (max cur b)
      end
      else if a < 0 then begin
        (* t_k <= floor(fixed / -a) *)
        let a' = -a in
        let b =
          if !fixed >= 0 then !fixed / a'
          else - ((- !fixed + a' - 1) / a')
        in
        match !hi with
        | None -> hi := Some b
        | Some cur -> hi := Some (min cur b)
      end
      else if !fixed < 0 then feasible := false)
    projected.cs;
  if not !feasible then None
  else
    match (!lo, !hi) with
    | Some a, Some b when a <= b -> Some (a, b)
    | Some _, Some _ -> None
    | _ ->
        invalid_arg
          (Printf.sprintf "Domain.bounds: variable %d is unbounded" k)

let bounds d k ~outer =
  if Array.length outer < k then invalid_arg "Domain.bounds: missing outer values";
  let projected = ref d in
  for j = d.dim - 1 downto k + 1 do
    projected := eliminate !projected j
  done;
  projected_bounds !projected k ~outer

(* [f point] for every integer point, lexicographic.  [point] is one
   buffer the walk overwrites: [f] copies what it keeps.  Each depth's
   projection is eliminated once per walk, innermost first, so depth
   [k] reads the same system {!bounds} derives for it.  The innermost
   depth reads [d] itself, so every value its range admits satisfies
   every constraint: a completed point needs no membership test. *)
let walk d f =
  let point = Array.make d.dim 0 in
  let levels = Array.make d.dim d in
  for k = d.dim - 2 downto 0 do
    levels.(k) <- eliminate levels.(k + 1) (k + 1)
  done;
  let rec go k =
    if k = d.dim then f point
    else
      match projected_bounds levels.(k) k ~outer:point with
      | None -> ()
      | Some (lo, hi) ->
          for v = lo to hi do
            point.(k) <- v;
            go (k + 1)
          done
  in
  go 0

let extend d extents =
  let extra = Array.length extents in
  let dim = d.dim + extra in
  let widen c = { c with coeffs = Array.append c.coeffs (Array.make extra 0) } in
  let cs = ref (List.map widen d.cs) in
  Array.iteri
    (fun k e ->
      let col = d.dim + k in
      cs := { (unit_ineq dim col 1) with const = 0 } :: !cs;
      cs := { (unit_ineq dim col (-1)) with const = e - 1 } :: !cs)
    extents;
  { dim; cs = !cs }

let unit_bounds d =
  let lo = Array.make d.dim min_int and hi = Array.make d.dim max_int in
  let box = ref true in
  List.iter
    (fun c ->
      (* the one variable the constraint mentions, or -1 *)
      let k = ref (-1) and nz = ref 0 in
      Array.iteri
        (fun i a ->
          if a <> 0 then begin
            incr nz;
            k := i
          end)
        c.coeffs;
      if !nz <> 1 then box := false
      else
        match c.coeffs.(!k) with
        | 1 -> lo.(!k) <- Stdlib.max lo.(!k) (-c.const)
        | -1 -> hi.(!k) <- Stdlib.min hi.(!k) c.const
        | _ -> box := false)
    d.cs;
  (lo, hi, !box)

let rect_extents d =
  let lo, hi, box = unit_bounds d in
  if
    box
    && Array.for_all (fun v -> v <> min_int) lo
    && Array.for_all (fun v -> v <> max_int) hi
  then Some (Array.init d.dim (fun k -> (lo.(k), hi.(k) + 1)))
  else None

let box_volume ext =
  Array.fold_left (fun acc (lo, hi) -> acc * Stdlib.max 0 (hi - lo)) 1 ext

(* A box's points by nested loops over its extents, built from the
   last point back so the list comes out lexicographic unreversed. *)
let box_points ext =
  if Array.exists (fun (lo, hi) -> hi <= lo) ext then []
  else begin
    let dim = Array.length ext in
    let point = Array.map (fun (_, hi) -> hi - 1) ext in
    let out = ref [] in
    let k = ref 0 in
    while !k >= 0 do
      out := Array.copy point :: !out;
      (* step the odometer back: innermost digits at their low end wrap *)
      k := dim - 1;
      while !k >= 0 && point.(!k) = fst ext.(!k) do
        point.(!k) <- snd ext.(!k) - 1;
        decr k
      done;
      if !k >= 0 then point.(!k) <- point.(!k) - 1
    done;
    !out
  end

let enumerate d =
  if d.dim = 0 then [ [||] ]
  else
    match rect_extents d with
    | Some ext -> box_points ext
    | None ->
        let out = ref [] in
        walk d (fun p -> out := Array.copy p :: !out);
        List.rev !out

let card d =
  if d.dim = 0 then 1
  else
    match rect_extents d with
    | Some ext -> box_volume ext
    | None ->
        let n = ref 0 in
        walk d (fun _ -> incr n);
        !n

exception Nonempty

let is_empty d =
  d.dim > 0
  &&
  match rect_extents d with
  | Some ext -> Array.exists (fun (lo, hi) -> hi <= lo) ext
  | None -> (
      match walk d (fun _ -> raise Nonempty) with
      | () -> true
      | exception Nonempty -> false)

(* t = M j, so each constraint c·t + k >= 0 becomes (c·M)·j + k >= 0. *)
let preimage m d =
  let cs =
    List.map
      (fun c ->
        let coeffs =
          Array.init d.dim (fun j ->
              let acc = ref 0 in
              Array.iteri (fun i a -> acc := !acc + (a * m.(i).(j))) c.coeffs;
              !acc)
        in
        { c with coeffs })
      d.cs
  in
  { d with cs }

let transform tm d =
  match Linalg.inverse_unimodular tm with
  | inv -> preimage inv d
  | exception Invalid_argument _ ->
      invalid_arg "Domain.transform: matrix is not unimodular"

let translate d o =
  if Array.length o <> d.dim then invalid_arg "Domain.translate: arity mismatch";
  let cs =
    List.map
      (fun c ->
        let shift = ref 0 in
        for i = 0 to d.dim - 1 do
          shift := !shift + (c.coeffs.(i) * o.(i))
        done;
        { c with const = c.const - !shift })
      d.cs
  in
  { d with cs }

let pp fmt d =
  Format.fprintf fmt "@[<v>dim=%d@ " d.dim;
  List.iter
    (fun c ->
      let first = ref true in
      List.iteri
        (fun i a ->
          if a <> 0 then begin
            if !first then begin
              if a < 0 then Format.fprintf fmt "-";
              first := false
            end
            else Format.fprintf fmt (if a < 0 then " - " else " + ");
            if abs a <> 1 then Format.fprintf fmt "%d*" (abs a);
            Format.fprintf fmt "t%d" i
          end)
        (Array.to_list c.coeffs);
      if !first then Format.fprintf fmt "0";
      if c.const <> 0 then
        Format.fprintf fmt (if c.const > 0 then " + %d" else " - %d")
          (abs c.const);
      Format.fprintf fmt " >= 0@ ")
    d.cs;
  Format.fprintf fmt "@]"
