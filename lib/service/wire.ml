(* Byte-level socket I/O shared by the server and the client.

   Writes loop over short counts and retry EINTR, so a large SOLVE body
   crossing the socket buffer (or a signal landing mid-write) cannot
   silently truncate a frame.  Reads go through a bounded line reader
   that enforces a per-frame byte budget *before* buffering, so a
   malicious or broken peer streaming an endless line (or an endless
   body with no END) is rejected with {!Frame_too_big} instead of
   growing the heap without limit — [input_line] has no such bound. *)

exception Frame_too_big

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | written -> write_all fd s (off + written) (len - written)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send fd s = write_all fd s 0 (String.length s)

let rec read_retry fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf off len

type reader = {
  fd : Unix.file_descr;
  max_frame_bytes : int;
  chunk : Bytes.t;
  mutable pending : string;  (* bytes received, not yet returned as lines *)
  mutable frame_bytes : int;  (* bytes consumed since the last new_frame *)
  mutable eof : bool;
}

let default_max_frame_bytes = 1 lsl 20

let create ?(max_frame_bytes = default_max_frame_bytes) fd =
  if max_frame_bytes < 1 then
    invalid_arg "Wire.create: max_frame_bytes must be positive";
  {
    fd;
    max_frame_bytes;
    chunk = Bytes.create 4096;
    pending = "";
    frame_bytes = 0;
    eof = false;
  }

let new_frame r = r.frame_bytes <- 0

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* The budget covers everything a frame makes the server hold: consumed
   lines plus whatever is buffered ahead of the next newline.  Checked on
   every buffer growth, so an unterminated line trips the bound at
   [max_frame_bytes], not at allocation failure. *)
let over_budget r = r.frame_bytes + String.length r.pending > r.max_frame_bytes

let rec next_line r =
  match String.index_opt r.pending '\n' with
  | Some i ->
      let line = String.sub r.pending 0 i in
      r.pending <-
        String.sub r.pending (i + 1) (String.length r.pending - i - 1);
      r.frame_bytes <- r.frame_bytes + i + 1;
      if r.frame_bytes > r.max_frame_bytes then raise Frame_too_big;
      Some (strip_cr line)
  | None ->
      if r.eof then
        if r.pending = "" then None
        else begin
          (* A final line without its terminator, like [input_line]. *)
          let line = r.pending in
          r.pending <- "";
          r.frame_bytes <- r.frame_bytes + String.length line;
          Some (strip_cr line)
        end
      else begin
        let n = read_retry r.fd r.chunk 0 (Bytes.length r.chunk) in
        if n = 0 then r.eof <- true
        else r.pending <- r.pending ^ Bytes.sub_string r.chunk 0 n;
        if over_budget r then raise Frame_too_big;
        next_line r
      end

let reader r () = next_line r
