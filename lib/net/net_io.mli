(** Plain-text net files.

    The format is line-oriented; [#] starts a comment.  Lengths are um,
    resistance Ohm/um, capacitance fF/um (converted to F internally), pin
    widths in u:

    {v
    net clk_spine
    driver 120
    receiver 60
    segment 1800 0.075 0.118 metal4
    segment 2200 0.045 0.134 metal5
    zone 1500 2600
    v}

    Order of [segment] lines is routing order; [zone] lines may appear
    anywhere.  [driver]/[receiver]/at least one [segment] are mandatory. *)

val parse_lines : string list -> (Net.t, string) result
(** Parse a body already split into lines (without their ['\n']).
    Errors carry a 1-based line number. *)

val parse_string : string -> (Net.t, string) result
(** [parse_lines] over the body split at ['\n']. *)

val parse_file : string -> (Net.t, string) result
(** Read and parse a file; I/O failures become [Error]. *)

val to_string : Net.t -> string
(** Render in the file format; [parse_string (to_string n)] equals [n] up
    to float formatting (round-trip is exact for values printed with
    [%.17g], which this uses). *)

val write_file : string -> Net.t -> unit
(** @raise Sys_error on I/O failure. *)
