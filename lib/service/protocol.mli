(** The line-oriented wire protocol of [rip_serviced].

    Frames are newline-terminated ASCII lines; multi-line frames end with
    a line that is exactly [END].  Floats are rendered with [%.17g], so a
    parse/print round trip is exact.  A trailing [\r] on any line is
    stripped, which keeps interactive [socat]/[telnet] sessions usable.

    Each float is rendered at most once on its way through.  A SOLVE
    value keeps its net's text ([net_text]) and an answer value keeps
    its body bytes ({!type:answer}): both are made once — where the
    frame is built ({!val:solve}, {!val:answer}) or kept as read where
    it is parsed — and {!print_request}/{!print_response} join them to a
    header without re-rendering the net or the solution.  So a router
    relaying a shard's answer sends the shard's bytes.

    Requests:
    {v
    PING
    METRICS
    HEALTH
    SHUTDOWN
    SOLVE <budget-seconds> [DEADLINE <milliseconds>] [TRACE <trace-id> <parent-span-id> <flags>]
    <net body in the Rip_net.Net_io file format>
    END
    v}

    The optional [DEADLINE] header bounds how long the client is willing
    to wait for this solve, measured from admission on the server's
    monotonic clock.  Past the deadline the server answers [TIMEOUT]
    (nothing started yet) or degrades to its analytic fallback tier and
    answers [DEGRADED] (see below); it never keeps solving.

    The optional [TRACE] header propagates a distributed-trace context:
    a 32-hex-digit trace id, the 16-hex-digit span id of the caller's
    span (all zeros for a root), and a decimal flags byte (bit 0 =
    sampled).  The two headers may appear in either order.  TRACE is
    best-effort observability: a malformed, truncated, duplicated or
    otherwise invalid TRACE header degrades the request to untraced and
    the solve proceeds normally — a bad DEADLINE is still a protocol
    error, because deadlines affect correctness.

    The net body must not contain a line equal to [END] (bodies produced
    by {!Rip_net.Net_io.to_string} never do).

    Responses:
    {v
    PONG
    BYE
    BUSY
    TIMEOUT
    TOOBIG
    ERROR <kind> <one-line message>
    RESULT <fresh|cached>
    repeater <position-um> <width-u>     (zero or more)
    width <total-width-u>
    delay <seconds>
    power <watts>
    END
    DEGRADED <deadline|overload|worker-lost>
    <same solution body as RESULT>
    END
    METRICS
    <Prometheus text exposition lines>
    END
    HEALTHY <shard-id> <in-flight> <queue-depth> <high-water>
    v}

    [HEALTH] is the cheap liveness-and-load probe a router polls every
    tick: one line out, one line back, no END framing on either side.  The shard id is the server's configured identity (one
    token of [[A-Za-z0-9._-]]); the three integers are the current
    admission gauges.

    The [METRICS] body is the server registry's Prometheus text
    exposition ({!Rip_obs.Metrics.render}): counters, gauges, and the
    queue-wait / solve-latency histograms — every counter the server
    keeps.  A Prometheus line never equals [END], so the framing is
    unambiguous.

    [TIMEOUT] answers a SOLVE whose deadline had already expired at
    admission.  [TOOBIG] answers a request frame exceeding the server's
    frame-size bound; the connection is closed after it (framing is
    lost).  [DEGRADED] carries a best-effort solution from the analytic
    fallback tier with the reason the full solve was skipped or
    abandoned; its delay may exceed the budget, but the solution is
    always legal (forbidden zones, width range).

    The body of a [RESULT] frame is deterministic — it carries no
    timestamps or runtimes — so a cache hit replays the cached solve
    byte for byte, except for the [fresh]/[cached] marker on the header
    line.  Per-request timing is aggregated server-side and surfaced
    through [METRICS]. *)

(** {1 Frame types} *)

type error_kind =
  | Protocol_error  (** the request could not be parsed *)
  | Infeasible_budget  (** {!Rip_core.Rip.Infeasible_budget} *)
  | Invalid_net  (** {!Rip_core.Rip.Invalid_net} *)
  | Internal_error  (** {!Rip_core.Rip.Internal} or a server bug *)

type solution = {
  repeaters : (float * float) list;  (** (position um, width u), ordered *)
  total_width : float;  (** u *)
  delay : float;  (** seconds *)
  power_watts : float;
}

type answer = private {
  solution : solution;
  body : string;
      (** the newline-terminated body lines of the frame (those between
          the header and [END]): {!solution_body} of [solution] when the
          answer was made by {!val:answer}, the lines as read when it was
          parsed *)
}
(** A RESULT or DEGRADED payload: the solution and its wire bytes, so
    serving, caching and relaying an answer render nothing. *)

type served = Fresh | Cached

type degrade_reason =
  | Deadline_exceeded
      (** the deadline fired mid-solve; the DP was cancelled *)
  | Overload
      (** the admission queue crossed its high-water mark; the full
          solve was never attempted *)
  | Worker_lost  (** the worker running the solve died mid-solve *)

type health = {
  health_shard_id : string;
  health_in_flight : int;  (** admitted SOLVEs right now *)
  health_queue_depth : int;  (** the server's admission bound *)
  health_high_water : int;  (** its static load-shed mark *)
}

type solve = private {
  budget : float;
  deadline_ms : float option;  (** wall-time budget for the request *)
  trace : Rip_obs.Trace.context option;
      (** distributed-trace context from the TRACE header, when one was
          present and valid *)
  net : Rip_net.Net.t;
  net_text : string;
      (** the body lines {!print_request} sends, newline-terminated: the
          lines [net] was parsed from, comments cut and blank lines
          dropped, or {!Rip_net.Net_io.to_string} of [net] when built by
          {!val:solve}.  It parses to [net]: the record is private, so
          the two are made together and cannot be set apart. *)
}

type request = Ping | Metrics | Health | Shutdown | Solve of solve

type response =
  | Pong
  | Bye
  | Busy
  | Timeout
  | Toobig
  | Error_frame of { kind : error_kind; message : string }
  | Result of { served : served; answer : answer }
  | Degraded of { reason : degrade_reason; answer : answer }
  | Metrics_frame of string
      (** the Prometheus text body, newline-terminated lines *)
  | Health_frame of health

(** {1 Printing} *)

val valid_shard_id : string -> bool
(** One non-empty token over [[A-Za-z0-9._-]] — what fits on the
    single-line [HEALTHY] frame. *)

val solve :
  ?deadline_ms:float -> ?trace:Rip_obs.Trace.context -> budget:float ->
  Rip_net.Net.t -> request
(** A SOLVE frame for [net], its text rendered once here. *)

val with_trace : solve -> Rip_obs.Trace.context option -> solve
(** The same SOLVE under another trace context: the one field a relay
    changes. *)

val print_request : request -> string
(** The frame's wire form, newline-terminated.  A SOLVE renders its
    header (budget, DEADLINE, TRACE) and sends [net_text] as it is. *)

val print_response : response -> string
(** The frame's wire form, newline-terminated.  The message of an
    [Error_frame] is flattened to one line; an answer's body is sent as
    it is. *)

val solution_body : solution -> string
(** The deterministic body of a [RESULT] frame (the lines between the
    header and [END]) — what "byte-identical cached replay" promises. *)

val answer : solution -> answer
(** The answer carrying {!solution_body} of the solution: the one place
    a solution is rendered. *)

val answer_of_body : string -> (answer, string) result
(** Parse a body as {!solution_body} renders it, through the RESULT
    grammar, keeping the bytes as given — the journal replay path, so a
    replayed answer is exactly what a RESULT parser would accept.
    [Error] on a body that does not end in a newline or does not
    parse. *)

(** {1 Parsing} *)

type reader = unit -> string option
(** Yields the next line (without its terminator) or [None] at end of
    stream. *)

val reader_of_lines : string list -> reader
(** An in-memory reader, for tests. *)

val input_request : reader -> (request option, string) result
(** Read one request frame; [Ok None] on a clean end of stream before any
    line of a frame, [Error] on garbage or a truncated frame. *)

val input_response : reader -> (response option, string) result
(** Read one response frame, same conventions. *)

(** {1 Equality (tests)} *)

val request_equal : request -> request -> bool
val response_equal : response -> response -> bool

val error_kind_to_string : error_kind -> string
val degrade_reason_to_string : degrade_reason -> string

val outcome_of_response : response -> string * string
(** The wide-event [(outcome, degrade_reason)] of a SOLVE answer:
    ["fresh"]/["cached"]/["timeout"]/["busy"] with an empty reason,
    ["degraded"] with its reason's wire name, ["error"] for anything
    else. *)

val outcomes : string list
(** Every outcome {!outcome_of_response} can yield. *)

val one_line : string -> string
(** Newlines collapsed to ["; "] — error messages must fit one frame
    line. *)
