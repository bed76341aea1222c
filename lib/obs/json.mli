(** A minimal zero-dependency JSON reader/writer for the observability
    artifacts this repo itself produces and consumes — Chrome-trace
    dumps ({!Trace_merge}) and wide-event spool lines ({!Wide_event}).

    Deliberately not a general JSON library: [\uXXXX] escapes above
    U+00FF decode to ['?'] (the repo never emits them), and NaN prints
    as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes:
    ['"'], ['\\'] and control characters escaped, every other byte
    as is. *)

val to_string : t -> string
(** Compact (single-line) rendering; integers print as integers, other
    floats at full [%.17g] precision so a parse/print cycle
    round-trips. *)

val parse : string -> (t, string) result
(** Strict parse of one JSON value (leading/trailing whitespace
    allowed); a number without ['.'/'e'] that fits an OCaml int parses
    as {!Int}, everything else numeric as {!Float}. *)

val member : string -> t -> t option
(** Field of an {!Obj} ([None] on anything else or a missing key). *)

val string_value : t -> string option
val int_value : t -> int option
(** {!Int}, or an integral {!Float} within int range. *)

val float_value : t -> float option
(** {!Float}, or an {!Int} widened. *)

val bool_value : t -> bool option
val list_value : t -> t list option
