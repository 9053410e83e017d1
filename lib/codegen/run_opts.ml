type shadow = Shadow_off | Shadow_env | Shadow_on

type t = {
  order : Vm.order;
  domains : int option;
  chunk : int option;
  shadow : shadow;
  arena : bool;
  fuse : bool;
}

let default =
  {
    order = Vm.Wavefront;
    domains = None;
    chunk = None;
    shadow = Shadow_env;
    arena = true;
    fuse = true;
  }

let to_string o =
  Printf.sprintf
    "order=%s domains=%s chunk=%s shadow=%s arena=%b fuse=%b"
    (match o.order with
    | Vm.Sequential -> "sequential"
    | Vm.Wavefront -> "wavefront"
    | Vm.Reverse -> "reverse")
    (match o.domains with Some d -> string_of_int d | None -> "auto")
    (match o.chunk with Some c -> string_of_int c | None -> "auto")
    (match o.shadow with
    | Shadow_off -> "off"
    | Shadow_env -> "env"
    | Shadow_on -> "on")
    o.arena o.fuse

let with_tile (tile : Tile.config) o =
  { o with chunk = Some tile.Tile.cfg_vm_chunk; fuse = tile.Tile.cfg_fuse }
