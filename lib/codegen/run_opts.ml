type shadow = Shadow_off | Shadow_env | Shadow_on

type t = {
  order : Vm.order;
  domains : int option;
  chunk : int option;
  race_guard : bool;
  shadow : shadow;
  arena : bool;
  fuse : bool;
  pack : Tensor.pack_blocking option;
}

let default =
  {
    order = Vm.Wavefront;
    domains = None;
    chunk = None;
    race_guard = true;
    shadow = Shadow_env;
    arena = true;
    fuse = true;
    pack = None;
  }

let to_string o =
  Printf.sprintf
    "order=%s domains=%s chunk=%s race_guard=%b shadow=%s arena=%b fuse=%b \
     pack=%s"
    (match o.order with
    | Vm.Sequential -> "sequential"
    | Vm.Wavefront -> "wavefront"
    | Vm.Reverse -> "reverse")
    (match o.domains with Some d -> string_of_int d | None -> "auto")
    (match o.chunk with Some c -> string_of_int c | None -> "auto")
    o.race_guard
    (match o.shadow with
    | Shadow_off -> "off"
    | Shadow_env -> "env"
    | Shadow_on -> "on")
    o.arena o.fuse
    (match o.pack with
    | Some { Tensor.mc; kc; nc } -> Printf.sprintf "%d/%d/%d" mc kc nc
    | None -> "default")
