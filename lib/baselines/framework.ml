type t = {
  fw_name : string;
  host_us : float;
  fuse_elementwise : bool;
  fuse_cell : bool;
  wavefront : bool;
  tensor_core : bool;
}

let pytorch =
  { fw_name = "PyTorch"; host_us = 12.0; fuse_elementwise = false;
    fuse_cell = false; wavefront = false; tensor_core = true }

let pytorch_jit =
  { fw_name = "PyTorch JIT"; host_us = 6.0; fuse_elementwise = true;
    fuse_cell = false; wavefront = false; tensor_core = true }

let tensorflow =
  { fw_name = "TensorFlow"; host_us = 16.0; fuse_elementwise = false;
    fuse_cell = false; wavefront = false; tensor_core = true }

let tvm =
  { fw_name = "TVM"; host_us = 3.0; fuse_elementwise = true;
    fuse_cell = false; wavefront = false; tensor_core = true }

let triton =
  { fw_name = "Triton"; host_us = 5.0; fuse_elementwise = true;
    fuse_cell = true; wavefront = false; tensor_core = true }

(* cuDNN's persistent-RNN kernels implement the handcrafted wavefront
   of Appleyard et al. in plain FP32 SIMT code — the whole network is
   one operator, but it predates tensor-core cell kernels. *)
let cudnn =
  { fw_name = "cuDNN"; host_us = 2.0; fuse_elementwise = true;
    fuse_cell = true; wavefront = true; tensor_core = false }

let fractaltensor =
  { fw_name = "FractalTensor"; host_us = 1.0; fuse_elementwise = true;
    fuse_cell = true; wavefront = true; tensor_core = true }
