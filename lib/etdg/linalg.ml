module Q = struct
  type t = { num : int; den : int }

  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

  let make num den =
    if den = 0 then raise Division_by_zero;
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    let g = gcd num den in
    if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

  let of_int n = { num = n; den = 1 }
  let zero = of_int 0
  let one = of_int 1
  let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
  let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
  let mul a b = make (a.num * b.num) (a.den * b.den)

  let div a b =
    if b.num = 0 then raise Division_by_zero;
    make (a.num * b.den) (a.den * b.num)

  let neg a = { a with num = -a.num }
  let equal a b = a.num = b.num && a.den = b.den
  let is_zero a = a.num = 0
  let sign a = compare a.num 0
  let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)

  let to_int a =
    if a.den <> 1 then
      invalid_arg (Printf.sprintf "Q.to_int: %d/%d not integral" a.num a.den);
    a.num

  let is_integral a = a.den = 1
  let num a = a.num
  let den a = a.den

  let to_string a =
    if a.den = 1 then string_of_int a.num
    else Printf.sprintf "%d/%d" a.num a.den
end

let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))

let dims m = (Array.length m, if Array.length m = 0 then 0 else Array.length m.(0))

let matmul a b =
  let ra, ca = dims a and rb, cb = dims b in
  if ca <> rb then invalid_arg "Linalg.matmul: dimension mismatch";
  Array.init ra (fun i ->
      Array.init cb (fun j ->
          let acc = ref 0 in
          for k = 0 to ca - 1 do
            acc := !acc + (a.(i).(k) * b.(k).(j))
          done;
          !acc))

let mat_vec m v =
  let r, c = dims m in
  if c <> Array.length v then invalid_arg "Linalg.mat_vec: dimension mismatch";
  Array.init r (fun i ->
      let acc = ref 0 in
      for j = 0 to c - 1 do
        acc := !acc + (m.(i).(j) * v.(j))
      done;
      !acc)

let vec_add a b =
  if Array.length a <> Array.length b then
    invalid_arg "Linalg.vec_add: length mismatch";
  Array.init (Array.length a) (fun i -> a.(i) + b.(i))

let to_q m = Array.map (Array.map Q.of_int) m

(* Gaussian elimination over Q; returns (reduced matrix, pivot columns,
   permutation sign). *)
let row_echelon (m : Q.t array array) =
  let rows = Array.length m in
  let cols = if rows = 0 then 0 else Array.length m.(0) in
  let a = Array.map Array.copy m in
  let pivots = ref [] in
  let sign = ref 1 in
  let r = ref 0 in
  let col = ref 0 in
  while !r < rows && !col < cols do
    (* find a pivot row *)
    let piv = ref (-1) in
    (try
       for i = !r to rows - 1 do
         if not (Q.is_zero a.(i).(!col)) then begin
           piv := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !piv < 0 then incr col
    else begin
      if !piv <> !r then begin
        let tmp = a.(!piv) in
        a.(!piv) <- a.(!r);
        a.(!r) <- tmp;
        sign := - !sign
      end;
      pivots := (!r, !col) :: !pivots;
      let pv = a.(!r).(!col) in
      for i = !r + 1 to rows - 1 do
        if not (Q.is_zero a.(i).(!col)) then begin
          let f = Q.div a.(i).(!col) pv in
          for j = !col to cols - 1 do
            a.(i).(j) <- Q.sub a.(i).(j) (Q.mul f a.(!r).(j))
          done
        end
      done;
      incr r;
      incr col
    end
  done;
  (a, List.rev !pivots, !sign)

let determinant m =
  let r, c = dims m in
  if r <> c then invalid_arg "Linalg.determinant: non-square matrix";
  if r = 0 then Q.one
  else
    let a, pivots, sign = row_echelon (to_q m) in
    if List.length pivots < r then Q.zero
    else
      let d = ref (Q.of_int sign) in
      for i = 0 to r - 1 do
        d := Q.mul !d a.(i).(i)
      done;
      !d

let is_unimodular m =
  let r, c = dims m in
  r = c
  &&
  let d = determinant m in
  Q.equal d Q.one || Q.equal d (Q.neg Q.one)

let inverse m =
  let r, c = dims m in
  if r <> c then invalid_arg "Linalg.inverse: non-square matrix";
  let n = r in
  (* Gauss-Jordan on [m | I]. *)
  let a =
    Array.init n (fun i ->
        Array.init (2 * n) (fun j ->
            if j < n then Q.of_int m.(i).(j)
            else if j - n = i then Q.one
            else Q.zero))
  in
  let ok = ref true in
  for col = 0 to n - 1 do
    if !ok then begin
      let piv = ref (-1) in
      (try
         for i = col to n - 1 do
           if not (Q.is_zero a.(i).(col)) then begin
             piv := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !piv < 0 then ok := false
      else begin
        if !piv <> col then begin
          let tmp = a.(!piv) in
          a.(!piv) <- a.(col);
          a.(col) <- tmp
        end;
        let pv = a.(col).(col) in
        for j = 0 to (2 * n) - 1 do
          a.(col).(j) <- Q.div a.(col).(j) pv
        done;
        for i = 0 to n - 1 do
          if i <> col && not (Q.is_zero a.(i).(col)) then begin
            let f = a.(i).(col) in
            for j = 0 to (2 * n) - 1 do
              a.(i).(j) <- Q.sub a.(i).(j) (Q.mul f a.(col).(j))
            done
          end
        done
      end
    end
  done;
  if not !ok then None
  else Some (Array.init n (fun i -> Array.init n (fun j -> a.(i).(j + n))))

let inverse_unimodular m =
  if not (is_unimodular m) then
    invalid_arg "Linalg.inverse_unimodular: matrix is not unimodular";
  match inverse m with
  | None -> invalid_arg "Linalg.inverse_unimodular: singular matrix"
  | Some inv ->
      Array.map
        (Array.map (fun q ->
             if not (Q.is_integral q) then
               invalid_arg "Linalg.inverse_unimodular: non-integer inverse";
             Q.to_int q))
        inv

let rank m =
  let _, pivots, _ = row_echelon (to_q m) in
  List.length pivots

(* Solve M x = 0 by back substitution from the echelon form: free
   variables (non-pivot columns) each generate one basis vector. *)
let null_space m =
  let _, c = dims m in
  let a, pivots, _ = row_echelon (to_q m) in
  let pivot_cols = List.map snd pivots in
  let free_cols =
    List.filter (fun j -> not (List.mem j pivot_cols)) (List.init c Fun.id)
  in
  let basis =
    List.map
      (fun free ->
        let x = Array.make c Q.zero in
        x.(free) <- Q.one;
        (* walk pivots bottom-up, solving each pivot variable *)
        List.iter
          (fun (r, pc) ->
            let acc = ref Q.zero in
            for j = pc + 1 to c - 1 do
              acc := Q.add !acc (Q.mul a.(r).(j) x.(j))
            done;
            x.(pc) <- Q.neg (Q.div !acc a.(r).(pc)))
          (List.rev pivots);
        (* scale to integers *)
        let lcm =
          Array.fold_left
            (fun acc q ->
              let d = Q.den q in
              acc * d / (let rec g a b = if b = 0 then a else g b (a mod b) in
                         g acc d))
            1 x
        in
        Array.map (fun q -> Q.to_int (Q.mul q (Q.of_int lcm))) x)
      free_cols
  in
  Array.of_list basis

let pp_mat fmt m =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun row ->
      Format.fprintf fmt "[";
      Array.iteri
        (fun j v ->
          if j > 0 then Format.fprintf fmt " ";
          Format.fprintf fmt "%2d" v)
        row;
      Format.fprintf fmt "]@ ")
    m;
  Format.fprintf fmt "@]"
