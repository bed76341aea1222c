(* rip_routerd: the sharded-cluster front end.

     rip_routerd --socket /tmp/rip_router.sock --shards 4
     rip_routerd --port 7178 --shards 2 --shard-jobs 2
     rip_routerd --socket r.sock --attach s0=/tmp/a.sock --attach s1=/tmp/b.sock

   Owns the listening socket, spawns and supervises N rip_serviced
   shard processes on Unix sockets (or attaches to externally-managed
   ones with --attach) and routes SOLVE requests by consistent-hashing
   the net's canonical digest, sending a key to its second-choice shard
   when that one has fewer forwards outstanding; the shards' own BUSY
   and DEGRADED (overload) answers are the only admission (see
   DESIGN.md §6d).  Speaks the same line protocol as rip_serviced, so
   every existing client — rip_loadgen included — works unchanged
   against a cluster. *)

module Router = Rip_router.Router
module Frontend = Rip_service.Frontend
module Supervisor = Rip_router.Supervisor
module Trace = Rip_obs.Trace
module Wide_event = Rip_obs.Wide_event

let process = Rip_tech.Process.default_180nm

let rec ensure_dir dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A PATH ending in '/' (or naming an existing directory) means "put the
   router's file inside": the same convention rip_serviced uses, so one
   --trace-out directory can collect the whole cluster's dumps. *)
let sink ~default_name path =
  let is_dir =
    (Sys.file_exists path && Sys.is_directory path)
    || (String.length path > 0 && path.[String.length path - 1] = '/')
  in
  if is_dir then begin
    ensure_dir path;
    Filename.concat path default_name
  end
  else begin
    ensure_dir (Filename.dirname path);
    path
  end

let parse_attach spec =
  match String.index_opt spec '=' with
  | Some i when i > 0 && i < String.length spec - 1 ->
      Ok
        (String.sub spec 0 i,
         String.sub spec (i + 1) (String.length spec - i - 1))
  | _ -> Error (Printf.sprintf "bad --attach %S (want ID=SOCKET)" spec)

let shard_socket ~dir index = Filename.concat dir (Printf.sprintf "shard-%d.sock" index)

let default_serviced_exe () =
  (* Sibling of the router binary in _build/…/bin; overridable for
     installs that relocate the daemons. *)
  match Sys.getenv_opt "RIP_SERVICED" with
  | Some exe -> exe
  | None -> Filename.concat (Filename.dirname Sys.executable_name) "rip_serviced.exe"

let rec parse_attach_all = function
  | [] -> Ok []
  | spec :: rest ->
      Result.bind (parse_attach spec) (fun pair ->
          Result.map (fun pairs -> pair :: pairs) (parse_attach_all rest))

let serve socket_path port host shards shard_dir shard_jobs shard_args attach
    pool_size poll_interval restart_backoff trace_out
    wide_events wide_sample_ratio wide_latency_threshold_ms =
  match parse_attach_all attach with
  | Error e ->
      Printf.eprintf "rip_routerd: %s\n" e;
      2
  | Ok attached ->

      if shards < 0 then begin
        prerr_endline "rip_routerd: --shards must not be negative";
        2
      end
      else if shards = 0 && attached = [] then begin
        prerr_endline
          "rip_routerd: need at least one shard (--shards N or --attach)";
        2
      end
      else begin
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let exe = default_serviced_exe () in
        let dir =
          match shard_dir with
          | Some d -> d
          | None -> Filename.get_temp_dir_name ()
        in
        let jobs_args =
          match shard_jobs with
          | Some j -> [ "--jobs"; string_of_int j ]
          | None -> []
        in
        let children =
          List.init shards (fun i ->
              Supervisor.spawn ~restart_backoff ~exe
                ~extra_args:(jobs_args @ shard_args)
                ~id:(Printf.sprintf "s%d" i)
                ~socket:(shard_socket ~dir i) ())
        in
        let not_ready =
          List.filter_map
            (fun child ->
              match Supervisor.wait_ready child with
              | Ok () -> None
              | Error e -> Some e)
            children
        in
        if not_ready <> [] then begin
          List.iter (Printf.eprintf "rip_routerd: %s\n") not_ready;
          List.iter Supervisor.terminate children;
          1
        end
        else begin
          let specs =
            List.map
              (fun child ->
                {
                  Router.id = Supervisor.id child;
                  socket = Supervisor.socket child;
                  weight = 1;
                })
              children
            @ List.map
                (fun (id, socket) -> { Router.id; socket; weight = 1 })
                attached
          in
          let tracer =
            match trace_out with
            | None -> None
            | Some _ -> Some (Trace.create ~scope:"router" ~pid:(Unix.getpid ()) ())
          in
          let spool =
            match wide_events with
            | None -> None
            | Some path ->
                let sampler =
                  {
                    Wide_event.latency_threshold =
                      wide_latency_threshold_ms /. 1000.0;
                    sample_ratio = wide_sample_ratio;
                  }
                in
                Some
                  (Wide_event.create ~sampler
                     (sink ~default_name:"wide-router.jsonl" path))
          in
          let config =
            {
              Router.default_config with
              pool_size;
              poll_interval;
              tracer;
              spool;
            }
          in
          let router = Router.create ~config ~shards:specs process in
          let stop _ = Router.request_shutdown router in
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
          (* Restart dead children (after their backoff) until shutdown;
             the router's poller re-admits them to the ring once they
             answer HEALTH again. *)
          let supervisor_thread =
            Thread.create
              (fun () ->
                let rec watch () =
                  if not (Router.stopping router) then begin
                    List.iter
                      (fun child -> ignore (Supervisor.restart_if_due child))
                      children;
                    Thread.delay 0.2;
                    watch ()
                  end
                in
                watch ())
              ()
          in
          let listen_fd, endpoint =
            match port with
            | Some port ->
                (Frontend.listen_tcp ~host ~port, Printf.sprintf "%s:%d" host port)
            | None -> (Frontend.listen_unix socket_path, socket_path)
          in
          Printf.printf
            "rip_routerd: listening on %s (%d shards: %s; pool %d, poll \
             %.2fs)\n\
             %!"
            endpoint (List.length specs)
            (String.concat ", "
               (List.map (fun (s : Router.shard_spec) -> s.id) specs))
            pool_size poll_interval;
          Router.run router listen_fd;
          Thread.join supervisor_thread;
          (match (tracer, trace_out) with
          | Some tr, Some out ->
              let path = sink ~default_name:"trace-router.json" out in
              Trace.dump_to_file tr path;
              Printf.printf "rip_routerd: wrote %d trace spans to %s\n%!"
                (Trace.span_count tr) path
          | _ -> ());
          (match spool with
          | Some spool ->
              Printf.printf
                "rip_routerd: wide events: %d written, %d sampled out (%s)\n%!"
                (Wide_event.written spool)
                (Wide_event.sampled_out spool)
                (Wide_event.path spool);
              Wide_event.close spool
          | None -> ());
          List.iter
            (Supervisor.terminate ~log:(fun line ->
                 Printf.printf "rip_routerd: %s\n%!" line))
            children;
          (if port = None && Sys.file_exists socket_path then
             try Unix.unlink socket_path with Unix.Unix_error _ -> ());
          Printf.printf "rip_routerd: shut down\n%!";
          0
        end
      end

open Cmdliner

let socket_path =
  Arg.(
    value
    & opt string "rip_routerd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on (ignored with --port).")

let port =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP instead of a Unix socket.")

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Bind address for --port.")

let shards =
  Arg.(
    value & opt int 2
    & info [ "shards" ] ~docv:"N"
        ~doc:"rip_serviced shard processes to spawn and supervise (ids s0, \
              s1, ...).  May be 0 when --attach provides the shards.")

let shard_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "shard-dir" ] ~docv:"DIR"
        ~doc:"Directory for spawned shards' Unix sockets (default: the \
              temp directory).")

let shard_jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard-jobs" ] ~docv:"N"
        ~doc:"Worker domains per spawned shard (rip_serviced --jobs).")

let shard_args =
  Arg.(
    value & opt_all string []
    & info [ "shard-arg" ] ~docv:"ARG"
        ~doc:"Extra argument passed through to every spawned rip_serviced \
              (repeatable), e.g. --shard-arg=--cache-capacity \
              --shard-arg=1024.")

let attach =
  Arg.(
    value & opt_all string []
    & info [ "attach" ] ~docv:"ID=SOCKET"
        ~doc:"Route to an externally-managed rip_serviced at $(docv) \
              instead of (or in addition to) spawned shards (repeatable).")

let pool_size =
  Arg.(
    value & opt int Rip_router.Router.default_config.pool_size
    & info [ "pool-size" ] ~docv:"N"
        ~doc:"Connections kept open per shard.")

let poll_interval =
  Arg.(
    value & opt float Rip_router.Router.default_config.poll_interval
    & info [ "poll-interval" ] ~docv:"SECONDS"
        ~doc:"Liveness tick: how often every shard is polled with HEALTH.  \
              A poll unanswered after four ticks is missed; a shard \
              missing two in a row leaves the hash ring, and its next \
              answer re-adds it.")

let restart_backoff =
  Arg.(
    value & opt float 1.0
    & info [ "restart-backoff" ] ~docv:"SECONDS"
        ~doc:"Minimum dead time before a crashed spawned shard is \
              restarted.  Large values keep a killed shard down — useful \
              for observing graceful degradation.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Record the router's ingress and per-forward trace spans and \
              write them as Chrome-trace JSON to $(docv) at shutdown.  \
              Forwarded frames carry a TRACE header parented on the forward \
              span, so shards run with --trace-out produce dumps that \
              rip_trace merge joins into one cross-process timeline.  A \
              $(docv) ending in '/' (or naming a directory) writes \
              trace-router.json inside it.  Off by default.")

let wide_events =
  Arg.(
    value
    & opt (some string) None
    & info [ "wide-events" ] ~docv:"FILE"
        ~doc:"Emit one structured wide-event JSON line per routed SOLVE \
              (target shard, outcome, failover/spill involvement, \
              deadline slack) to this bounded spool, \
              tail-sampled like rip_serviced's.  A $(docv) ending in '/' \
              writes wide-router.jsonl inside it.  Query offline with \
              rip_trace query.")

let wide_sample_ratio =
  Arg.(
    value
    & opt float Rip_obs.Wide_event.default_sampler.sample_ratio
    & info [ "wide-sample-ratio" ] ~docv:"R"
        ~doc:"Fraction of uninteresting (fast, successful) wide events kept \
              by the tail sampler, in [0,1]; 1 keeps everything.")

let wide_latency_threshold_ms =
  Arg.(
    value
    & opt float
        (Rip_obs.Wide_event.default_sampler.latency_threshold *. 1000.0)
    & info [ "wide-latency-threshold-ms" ] ~docv:"MS"
        ~doc:"Requests at least this slow are always kept by the tail \
              sampler, whatever their outcome.")

let main =
  Cmd.v
    (Cmd.info "rip_routerd" ~version:"1.0.0"
       ~doc:"Sharded solve-cluster front end: consistent-hash routing over \
             supervised rip_serviced shards, two-choice load spilling and \
             shard-side admission")
    Term.(
      const serve $ socket_path $ port $ host $ shards $ shard_dir
      $ shard_jobs $ shard_args $ attach $ pool_size $ poll_interval
      $ restart_backoff $ trace_out $ wide_events
      $ wide_sample_ratio $ wide_latency_threshold_ms)

let () = exit (Cmd.eval' main)
