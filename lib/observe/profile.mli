(** Profile reports: a per-kernel / per-ETDG-block breakdown of a
    simulated run, with roofline-style utilization against device
    peaks.

    [Engine.metrics] is a single aggregate; a profile attributes it.
    Every kernel instance of a run contributes a {!sample}; the report
    groups instances by kernel name and by originating ETDG block
    (wavefront steps [foo.wave17] fold into block [foo]), and relates
    achieved FLOP/s and DRAM bandwidth to the device's peaks, so a
    regression is visible as "block X dropped from 61% to 12% of peak
    bandwidth" rather than a bare end-to-end number.

    The module is deliberately dependency-free: callers ([Executor.profile])
    translate simulator types into plain floats.  All derived numbers
    are computed here so text and JSON renderings always agree. *)

type sample = {
  s_name : string;  (** kernel name as launched (e.g. ["blk.wave3"]) *)
  s_time_us : float;  (** total time incl. launch/host overhead *)
  s_flops : float;
  s_dram_bytes : float;
  s_l2_bytes : float;
  s_l1_bytes : float;
  s_tasks : int;
  s_peak_gflops : float;
      (** applicable compute peak (tensor-core or FP32), GFLOP/s *)
  s_bound : string;
      (** dominant roofline term: ["compute"], ["dram"], ["l2"],
          ["l1"] or ["launch"] *)
}

type row = {
  r_name : string;
  r_launches : int;  (** instances folded into this row *)
  r_time_ms : float;
  r_flops : float;
  r_dram_gb : float;
  r_l2_gb : float;
  r_l1_gb : float;
  r_compute_pct : float;  (** achieved FLOP/s over applicable peak, % *)
  r_dram_pct : float;  (** achieved DRAM bandwidth over peak, % *)
  r_bound : string;  (** bound of the most expensive instance *)
}

type t = {
  p_plan : string;
  p_device : string;
  p_peak_gflops : float;  (** device FP32 peak, GFLOP/s *)
  p_peak_dram_gbs : float;
  p_time_ms : float;
  p_dram_gb : float;
  p_l2_gb : float;
  p_l1_gb : float;
  p_flops : float;
  p_kernels : int;
  p_by_kernel : row list;  (** one row per kernel name, launch order *)
  p_by_block : row list;  (** one row per ETDG block, launch order *)
}

val block_of_kernel : string -> string
(** Strip a trailing [".wave<digits>"] suffix: the originating block. *)

val make :
  plan:string ->
  device:string ->
  peak_gflops:float ->
  peak_dram_gbs:float ->
  sample list ->
  t
(** Build a report from the run's kernel instances (in launch order). *)

val to_text : t -> string

val to_jsonv : t -> Jsonw.t
(** The report as a JSON value, for embedding in larger documents. *)

val to_json : t -> string
(** One JSON object; stable field order, suitable for golden tests. *)
