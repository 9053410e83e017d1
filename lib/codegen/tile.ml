let base_tile = 16
let default_tile = 128

let ceil_div a b = (a + b - 1) / b

(* Effective tile side for a problem dimension: tiles never exceed the
   dimension they tile (edge tiles clamp), and a non-positive request
   means "whole dimension". *)
let eff t d =
  let d = Stdlib.max 1 d in
  if t <= 0 then d else Stdlib.min t d

(* The dimension rounded up to whole (effective) tiles: what a tiled
   kernel actually stages, edge tiles included. *)
let padded d t =
  let e = eff t d in
  ceil_div (Stdlib.max 1 d) e * e

let gemm_l1_bytes ?(tile_m = default_tile) ?(tile_n = default_tile) ~m ~n ~k () =
  (* Each of the ceil(m/tm)*ceil(n/tn) output tiles streams a tm×k
     strip of A and a k×tn strip of B through shared memory, plus
     writes its tm×tn result.  Partial edge tiles still stage whole
     (clamped) tiles, so strips are counted padded: for shapes the
     tile sides divide exactly this reduces to blocks·m·k / blocks·k·n
     as before. *)
  let em = eff tile_m m and en = eff tile_n n in
  let blocks_m = ceil_div m em and blocks_n = ceil_div n en in
  let a_bytes = float_of_int (blocks_n * blocks_m * em * k * 4) in
  let b_bytes = float_of_int (blocks_m * blocks_n * en * k * 4) in
  let out_bytes = float_of_int (m * n * 4) in
  a_bytes +. b_bytes +. out_bytes

let gemm_tasks ?(tile_m = default_tile) ?(tile_n = default_tile) ~m ~n () =
  ceil_div m (eff tile_m m) * ceil_div n (eff tile_n n)

let elementwise_l1_bytes touched = 2.0 *. touched

(* ------------------------- tile configurations --------------------- *)

type tiles = { t_m : int; t_n : int; t_k : int }

type config = { cfg_tiles : (string * tiles) list }

let default_config = { cfg_tiles = [] }

let is_default c = c = default_config

let tiles_for c name = List.assoc_opt name c.cfg_tiles

let tiles_to_string t = Printf.sprintf "%dx%dx%d" t.t_m t.t_n t.t_k

let config_to_string c =
  if c.cfg_tiles = [] then "default"
  else
    String.concat ","
      (List.map
         (fun (b, t) -> Printf.sprintf "%s=%s" b (tiles_to_string t))
         c.cfg_tiles)

let aligned t = t > 0 && t mod base_tile = 0

let smem_bytes t =
  4 * ((t.t_m * t.t_k) + (t.t_k * t.t_n) + (t.t_m * t.t_n))

let valid_tiles ?(smem_limit = 192 * 1024) ?m ?n ?k t =
  let clamp side dim = match dim with None -> side | Some d -> eff side d in
  aligned t.t_m && aligned t.t_n && aligned t.t_k
  && smem_bytes
       { t_m = clamp t.t_m m; t_n = clamp t.t_n n; t_k = clamp t.t_k k }
     <= smem_limit

let gemm_tile_l1_bytes t ~m ~n ~k =
  let em = eff t.t_m m and en = eff t.t_n n in
  let bm = ceil_div m em and bn = ceil_div n en in
  let pm = bm * em and pn = bn * en in
  let pk = padded k t.t_k in
  (* result tiles round-trip shared memory once; each output tile
     additionally streams its padded tm×k strip of A and k×tn strip of
     B, so operands re-stage once per tile row / column *)
  float_of_int (4 * ((pm * pn) + (pk * ((bn * pm) + (bm * pn)))))

let gemm_tile_tasks t ~m ~n =
  ceil_div m (eff t.t_m m) * ceil_div n (eff t.t_n n)
