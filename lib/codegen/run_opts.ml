type shadow = Shadow_off | Shadow_env | Shadow_on

type t = {
  order : Vm.order;
  domains : int option;
  shadow : shadow;
  fuse : bool;
}

let default =
  { order = Vm.Wavefront; domains = None; shadow = Shadow_env; fuse = true }
