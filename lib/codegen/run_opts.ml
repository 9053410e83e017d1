type t = {
  order : Vm.order;
  domains : int option;
  fuse : bool;
}

let default = { order = Vm.Wavefront; domains = None; fuse = true }
