module Cpu_clock = Rip_numerics.Cpu_clock

let default_jobs = Pool.default_jobs

(* A runner executes one task: [Inline] at once in the calling thread,
   [Pooled] on whichever worker domain takes it off the queue. *)
type runner = Inline | Pooled of Pool.t

let runner_size = function Inline -> 1 | Pooled pool -> Pool.size pool

let submit runner task =
  match runner with Inline -> task () | Pooled pool -> Pool.submit pool task

(* Run one batch: submit every element as a task that writes its slot, wait
   on a batch-local condvar until all slots are in, then re-raise the
   earliest failure if any.  Slots make the reduction order equal to the
   submission order by construction.  On the inline runner every task has
   finished by the time [submit] returns, so the count is already 0 when
   the wait loop starts and the caller never blocks. *)
let map_on runner f input =
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let failures = Array.make n None in
    let remaining = ref n in
    let mutex = Mutex.create () in
    let finished = Condition.create () in
    Array.iteri
      (fun i x ->
        submit runner (fun () ->
            (match f x with
            | result -> results.(i) <- Some result
            | exception exn ->
                failures.(i) <- Some (exn, Printexc.get_raw_backtrace ()));
            Mutex.lock mutex;
            decr remaining;
            if !remaining = 0 then Condition.signal finished;
            Mutex.unlock mutex))
      input;
    Mutex.lock mutex;
    while !remaining > 0 do
      Condition.wait finished mutex
    done;
    Mutex.unlock mutex;
    Array.iter
      (function
        | Some (exn, backtrace) -> Printexc.raise_with_backtrace exn backtrace
        | None -> ())
      failures;
    Array.map
      (function Some result -> result | None -> assert false)
      results
  end

(* Per-element times come from the worker's own CPU clock
   (CLOCK_THREAD_CPUTIME_ID), so they stay comparable whatever the pool
   size: time a domain spends descheduled behind its siblings is not
   charged to the job it happens to be holding. *)
let timed_map_on runner f input =
  (* When a global tracer is installed ([Rip_obs.Trace.set_global]) the
     batch leaves one "engine:batch" span on the submitting thread and
     one "engine:job" span per element on whichever worker ran it; with
     no tracer both hooks are nops.  The tracer is fetched once per
     batch, not per job. *)
  let tracer = Rip_obs.Trace.global () in
  let finish_batch =
    Rip_obs.Trace.begin_opt tracer ~cat:"engine"
      ~args:
        [
          ("tasks", string_of_int (Array.length input));
          ("workers", string_of_int (runner_size runner));
        ]
      "engine:batch"
  in
  let started = Unix.gettimeofday () in
  let timed =
    map_on runner
      (fun x ->
        Rip_obs.Trace.span tracer ~cat:"engine" "engine:job" @@ fun () ->
        let t0 = Cpu_clock.thread_seconds () in
        let result = f x in
        (result, Cpu_clock.thread_seconds () -. t0))
      input
  in
  let wall_seconds = Unix.gettimeofday () -. started in
  finish_batch ();
  let cpu_seconds =
    Array.fold_left (fun acc (_, seconds) -> acc +. seconds) 0.0 timed
  in
  ( timed,
    Telemetry.make ~workers:(runner_size runner) ~tasks:(Array.length input)
      ~wall_seconds ~cpu_seconds )

(* Effective pool size: the request (or the machine default), floored at
   one and capped at [cap] tasks — a batch never spawns more domains than
   it has work for. *)
let resolve_jobs ?cap jobs =
  let requested =
    match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs ()
  in
  match cap with
  | Some cap -> Stdlib.min requested (Stdlib.max 1 cap)
  | None -> requested

let with_runner jobs f =
  if jobs <= 1 then f Inline
  else Pool.with_pool ~jobs (fun pool -> f (Pooled pool))

let timed_map ?jobs f input =
  with_runner
    (resolve_jobs ~cap:(Array.length input) jobs)
    (fun runner -> timed_map_on runner f input)

(* --- Long-lived pool handles -------------------------------------------- *)

(* A handle keeps one runner alive across many batches: a service that
   solves requests as they arrive must not pay domain spawn/join per
   request the way [timed_map] and [map_suite] do per batch. *)
type handle = { runner : runner; mutable closed : bool }

let create_handle ?jobs () =
  let jobs = resolve_jobs jobs in
  let runner = if jobs <= 1 then Inline else Pooled (Pool.create ~jobs ()) in
  { runner; closed = false }

let map_on_handle handle f input =
  if handle.closed then invalid_arg "Rip_engine.Engine: handle is shut down";
  map_on handle.runner f input

let shutdown_handle handle =
  if not handle.closed then begin
    handle.closed <- true;
    match handle.runner with
    | Inline -> ()
    | Pooled pool -> Pool.shutdown pool
  end

let map_suite ?jobs ~prepare ~targets ~cell inputs =
  (* No cap here: the cell phase usually holds far more tasks than there
     are inputs, so the requested size is sized for it. *)
  with_runner (resolve_jobs jobs) (fun runner ->
      let input = Array.of_list inputs in
      let prepared, prepare_telemetry =
        timed_map_on runner prepare input
      in
      let contexts = Array.map fst prepared in
      let keys = Array.map (fun ctx -> Array.of_list (targets ctx)) contexts in
      let flattened =
        Array.concat
          (Array.to_list
             (Array.mapi
                (fun i ks -> Array.map (fun k -> (i, k)) ks)
                keys))
      in
      let cells, cell_telemetry =
        timed_map_on runner
          (fun (i, k) -> cell contexts.(i) k)
          flattened
      in
      (* Regroup the flat cell array per input, preserving target order. *)
      let grouped = Array.map (fun _ -> ref []) contexts in
      Array.iteri
        (fun flat_index (input_index, _) ->
          let cell_result, _seconds = cells.(flat_index) in
          grouped.(input_index) := cell_result :: !(grouped.(input_index)))
        flattened;
      ( Array.to_list
          (Array.mapi
             (fun i ctx -> (ctx, List.rev !(grouped.(i))))
             contexts),
        Telemetry.merge prepare_telemetry cell_telemetry ))
