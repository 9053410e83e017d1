(* The tunable-parameter space of a compiled plan.

   A knob space is extracted from the default-config plan: every
   kernel that carries a per-cell matmul becomes a tile site (one
   [Tile.tiles] choice per block, or none).  Tile sites are the only
   axes; nothing here reaches the CPU engine.  A point in the space is
   a mixed-radix index vector; index 0 on every axis is "untiled", so
   the all-zeros point always decodes to the configuration the
   compiler uses when no tuning has happened. *)

type gemm_site = { g_block : string; g_m : int; g_n : int; g_k : int }

type space = {
  s_sites : gemm_site list;
  s_tiles : Tile.tiles list;
  s_smem_limit : int;
}

type candidate = Tile.config

(* The tile menu: every base-tile-aligned shape in a small power-of-two
   lattice.  Alignment is guaranteed by construction; the shared-memory
   capacity constraint is *not* pre-filtered here — it depends on the
   site's dimensions (tiles are clamped to the problem before staging),
   so it is checked per-point by [valid_point]. *)
let tile_menu =
  List.concat_map
    (fun tm ->
      List.concat_map
        (fun tn ->
          List.map
            (fun tk -> { Tile.t_m = tm; t_n = tn; t_k = tk })
            [ 16; 32; 64 ])
        [ 16; 32; 64; 128; 256 ])
    [ 16; 32; 64; 128; 256 ]

let site_of_kernel (ks : Plan.kernel_spec) =
  match ks.Plan.ks_gemm with
  | None -> None
  | Some (m, n, k) ->
      Some { g_block = Profile.block_of_kernel ks.Plan.ks_name;
             g_m = m; g_n = n; g_k = k }

let of_plan ?(device = Device.a100) (p : Plan.t) =
  let sites =
    List.fold_left
      (fun acc ks ->
        match site_of_kernel ks with
        | Some s when not (List.exists (fun s' -> s'.g_block = s.g_block) acc)
          ->
            s :: acc
        | _ -> acc)
      [] p.Plan.kernels
    |> List.rev
  in
  {
    s_sites = sites;
    s_tiles = tile_menu;
    s_smem_limit = device.Device.l1_bytes_per_sm;
  }

(* ------------------------- point encoding ------------------------- *)

(* One axis per gemm site: 0 = untiled, i = s_tiles[i-1]. *)
let axes sp =
  let site_axis = List.length sp.s_tiles + 1 in
  Array.of_list (List.map (fun _ -> site_axis) sp.s_sites)

let default_point sp = Array.make (Array.length (axes sp)) 0

let cardinality sp = Array.fold_left (fun a n -> a * n) 1 (axes sp)

let site_tiles sp pt i =
  let v = pt.(i) in
  if v = 0 then None else Some (List.nth sp.s_tiles (v - 1))

let decode sp pt =
  let cfg_tiles =
    List.concat
      (List.mapi
         (fun i s ->
           match site_tiles sp pt i with
           | None -> []
           | Some t -> [ (s.g_block, t) ])
         sp.s_sites)
  in
  { Tile.cfg_tiles }

(* A point is valid when every selected tile, clamped to its site's
   dimensions, fits the device's shared memory, and every side is
   base-tile aligned (guaranteed for menu tiles, checked anyway so
   hand-made candidates go through the same gate). *)
let valid_point sp pt =
  List.for_all Fun.id
    (List.mapi
       (fun i s ->
         match site_tiles sp pt i with
         | None -> true
         | Some t ->
             Tile.valid_tiles ~smem_limit:sp.s_smem_limit ~m:s.g_m ~n:s.g_n
               ~k:s.g_k t)
       sp.s_sites)

let valid sp (c : candidate) =
  List.for_all
    (fun (name, t) ->
      match List.find_opt (fun s -> s.g_block = name) sp.s_sites with
      | None -> false
      | Some s ->
          Tile.valid_tiles ~smem_limit:sp.s_smem_limit ~m:s.g_m ~n:s.g_n
            ~k:s.g_k t)
    c.Tile.cfg_tiles

let point_key pt = String.concat "," (List.map string_of_int (Array.to_list pt))

let to_string = Tile.config_to_string
