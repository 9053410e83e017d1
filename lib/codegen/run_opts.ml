type shadow = Shadow_off | Shadow_env | Shadow_on

type t = {
  order : Vm.order;
  domains : int option;
  shadow : shadow;
  arena : bool;
  fuse : bool;
}

let default =
  {
    order = Vm.Wavefront;
    domains = None;
    shadow = Shadow_env;
    arena = true;
    fuse = true;
  }

let to_string o =
  Printf.sprintf
    "order=%s domains=%s shadow=%s arena=%b fuse=%b"
    (match o.order with
    | Vm.Sequential -> "sequential"
    | Vm.Wavefront -> "wavefront"
    | Vm.Reverse -> "reverse")
    (match o.domains with Some d -> string_of_int d | None -> "auto")
    (match o.shadow with
    | Shadow_off -> "off"
    | Shadow_env -> "env"
    | Shadow_on -> "on")
    o.arena o.fuse
