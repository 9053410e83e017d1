(* Order statistics for per-round values.  Latency percentiles are
   [Metrics.percentile_of], the serving layer's nearest-rank rule. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Interpolated median (the mean of the two middle values for an even
   count), so a median of round values is not biased toward either. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles by Python's [statistics.quantiles(v, n=4)] (the default
   'exclusive' method), the rule the spread of a metric is judged by. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then (median a, median a)
  else
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Relative spread: interquartile distance over the median. *)
let spread a =
  let q1, q3 = quartiles a in
  let m = median a in
  if m = 0. then 0. else Float.abs (q3 -. q1) /. Float.abs m
