(** Pool-level execution summary for one batch (or a sequence of batches).

    Under parallel execution a batch has two meaningful times: the sum of
    per-job solver times (comparable with the paper's per-cell runtime
    columns, Table 2) and the batch wall clock (what the operator waits
    for).  Both are carried here so reports can state each explicitly. *)

type t = {
  workers : int;  (** pool size the batch ran on *)
  tasks : int;  (** jobs executed *)
  wall_seconds : float;  (** submission-to-last-completion wall clock *)
  cpu_seconds : float;
      (** sum of per-job thread-CPU times ({!Rip_numerics.Cpu_clock}) *)
  utilization : float;
      (** [cpu / (wall * workers)]: 1.0 means every worker was busy for
          the whole batch; 0.0 for an empty batch *)
}

val make :
  workers:int -> tasks:int -> wall_seconds:float -> cpu_seconds:float -> t
(** Computes {!field-utilization}; guards the [wall = 0] corner. *)

val merge : t -> t -> t
(** Summary of two batches run back to back: walls and cpu add, tasks
    add, workers take the max, utilization is recomputed. *)

val pp : t Fmt.t
