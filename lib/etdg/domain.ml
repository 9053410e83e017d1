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

(* Bounds of variable k given fixed outer variables, after eliminating
   all inner variables. *)
let bounds d k ~outer =
  if Array.length outer < k then invalid_arg "Domain.bounds: missing outer values";
  let projected = ref d in
  for j = d.dim - 1 downto k + 1 do
    projected := eliminate !projected j
  done;
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
    (!projected).cs;
  if not !feasible then None
  else
    match (!lo, !hi) with
    | Some a, Some b when a <= b -> Some (a, b)
    | Some _, Some _ -> None
    | _ ->
        invalid_arg
          (Printf.sprintf "Domain.bounds: variable %d is unbounded" k)

(* [f point] for every integer point, lexicographic.  [point] is one
   buffer the walk overwrites: [f] copies what it keeps. *)
let walk d f =
  let point = Array.make d.dim 0 in
  let rec go k =
    if k = d.dim then begin
      if mem d point then f point
    end
    else
      match bounds d k ~outer:point with
      | None -> ()
      | Some (lo, hi) ->
          for v = lo to hi do
            point.(k) <- v;
            go (k + 1)
          done
  in
  go 0

let enumerate d =
  if d.dim = 0 then [ [||] ]
  else begin
    let out = ref [] in
    walk d (fun p -> out := Array.copy p :: !out);
    List.rev !out
  end

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

let rect_extents d =
  let lo = Array.make d.dim None and hi = Array.make d.dim None in
  let box = ref true in
  List.iter
    (fun c ->
      let nz =
        Array.to_list c.coeffs
        |> List.mapi (fun k a -> (k, a))
        |> List.filter (fun (_, a) -> a <> 0)
      in
      match nz with
      | [ (k, 1) ] ->
          lo.(k) <-
            Some
              (match lo.(k) with
              | None -> -c.const
              | Some cur -> Stdlib.max cur (-c.const))
      | [ (k, -1) ] ->
          hi.(k) <-
            Some
              (match hi.(k) with
              | None -> c.const + 1
              | Some cur -> Stdlib.min cur (c.const + 1))
      | _ -> box := false)
    d.cs;
  if not !box then None
  else
    let out = Array.make d.dim (0, 0) in
    let ok = ref true in
    for k = 0 to d.dim - 1 do
      match (lo.(k), hi.(k)) with
      | Some a, Some b -> out.(k) <- (a, b)
      | _ -> ok := false
    done;
    if !ok then Some out else None

let box_volume ext =
  Array.fold_left (fun acc (lo, hi) -> acc * Stdlib.max 0 (hi - lo)) 1 ext

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
  match walk d (fun _ -> raise Nonempty) with
  | () -> true
  | exception Nonempty -> false

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
