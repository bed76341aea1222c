type t = {
  workers : int;
  tasks : int;
  wall_seconds : float;
  cpu_seconds : float;
  utilization : float;
}

let make ~workers ~tasks ~wall_seconds ~cpu_seconds =
  let utilization =
    if wall_seconds > 0.0 && workers > 0 then
      cpu_seconds /. (wall_seconds *. float_of_int workers)
    else 0.0
  in
  { workers; tasks; wall_seconds; cpu_seconds; utilization }

let merge a b =
  make
    ~workers:(Stdlib.max a.workers b.workers)
    ~tasks:(a.tasks + b.tasks)
    ~wall_seconds:(a.wall_seconds +. b.wall_seconds)
    ~cpu_seconds:(a.cpu_seconds +. b.cpu_seconds)

let pp ppf t =
  Fmt.pf ppf
    "%d tasks on %d workers: wall %.3fs, cpu %.3fs, utilization %.0f%%"
    t.tasks t.workers t.wall_seconds t.cpu_seconds (100.0 *. t.utilization)
