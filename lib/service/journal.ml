(* Append-only CRC32-framed journal with fsync batching and compaction
   from the caller's live set.  See journal.mli for the contract and
   DESIGN §6e for the format and recovery invariants.

   On-disk layout: each segment file starts with a 9-byte magic line,
   then a sequence of frames

     [type:1]['E'] [klen:4 BE] [vlen:4 BE] [crc:4 BE] [key] [value]

   where the CRC-32 covers everything except the CRC field itself
   (type, both lengths, key, value).  Any other type byte ends the
   readable log: the 13-byte 'F' footer older builds wrote at close
   reads as a torn tail and is truncated once. *)

let magic = "RIPJRNL1\n"
let magic_len = String.length magic
let header_len = 13
let segment_format = format_of_string "segment-%08d.rj"

(* fsync once this many unsynced bytes accrue, or this long after the
   last fsync; never compact a log smaller than [compact_floor]. *)
let fsync_bytes = 64 * 1024
let fsync_seconds = 0.050
let compact_floor = 256 * 1024

(* Sanity bounds for recovery: a length field beyond these is framing
   garbage (torn tail or corrupted header), not a huge record. *)
let max_key_bytes = 4096
let max_value_bytes = Wire.default_max_frame_bytes

(* --- CRC-32 (IEEE 802.3 / zlib polynomial), table-based -------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 ?(crc = 0l) buf ~pos ~len =
  let table = Lazy.force crc_table in
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let index =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get buf i)))) 0xFFl)
    in
    c := Int32.logxor table.(index) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

(* --- Frames ----------------------------------------------------------- *)

(* CRC over a frame in [buf] at [pos] spanning [total] bytes: the 9
   header bytes before the CRC field, then the payload after it. *)
let frame_crc buf ~pos ~total =
  let head = crc32 buf ~pos ~len:9 in
  crc32 ~crc:head buf ~pos:(pos + header_len) ~len:(total - header_len)

let encode_frame ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let total = header_len + klen + vlen in
  let b = Bytes.create total in
  Bytes.set b 0 'E';
  Bytes.set_int32_be b 1 (Int32.of_int klen);
  Bytes.set_int32_be b 5 (Int32.of_int vlen);
  Bytes.blit_string key 0 b header_len klen;
  Bytes.blit_string value 0 b (header_len + klen) vlen;
  Bytes.set_int32_be b 9 (frame_crc b ~pos:0 ~total);
  b

(* --- Directory preparation ------------------------------------------- *)

(* Race-tolerant recursive mkdir (the netgen_cli idiom): a concurrent
   creator winning the race is success, not failure. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

let prepare_dir dir =
  match mkdir_p dir with
  | () ->
      if not (Sys.is_directory dir) then
        Error (Printf.sprintf "journal path %s exists and is not a directory" dir)
      else begin
        (* Writability probe: creating (and removing) a scratch file is
           the only portable test that covers permissions, read-only
           mounts and full disks alike. *)
        let probe = Filename.concat dir ".rip-journal-probe" in
        match Unix.openfile probe [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 with
        | fd ->
            Unix.close fd;
            (try Sys.remove probe with Sys_error _ -> ());
            Ok ()
        | exception Unix.Unix_error (code, _, _) ->
            Error
              (Printf.sprintf "journal directory %s is not writable: %s" dir
                 (Unix.error_message code))
      end
  | exception Unix.Unix_error (code, _, _) ->
      Error
        (Printf.sprintf "cannot create journal directory %s: %s" dir
           (Unix.error_message code))
  | exception Sys_error message ->
      Error (Printf.sprintf "cannot create journal directory %s: %s" dir message)

(* --- Types ------------------------------------------------------------ *)

type recovery = {
  entries : (string * string) list;
  valid_records : int;
  crc_rejected : int;
  torn_bytes : int;
  segments : int;
}

type stats = {
  bytes : int;
  segments : int;
  appends : int;
  fsyncs : int;
  compactions : int;
}

type t = {
  dir : string;
  live : unit -> (string * string) list;  (* the compaction source *)
  faults : Faults.t option;
  mutex : Mutex.t;
  mutable old_segments : string list;  (* full paths, oldest first *)
  mutable current_fd : Unix.file_descr;
  mutable current_index : int;
  mutable total_bytes : int;  (* across all segments, magic included *)
  mutable compact_at : int;  (* [total_bytes] that triggers compaction *)
  mutable unsynced_bytes : int;
  mutable last_fsync : float;
  mutable appends : int;
  mutable fsyncs : int;
  mutable compactions : int;
  mutable wedged : bool;  (* a torn-write fault fired: freeze the log *)
  mutable closed : bool;
}

(* Doubling keeps each rewrite's cost amortised over at least as many
   appended bytes as it wrote. *)
let next_compaction bytes = max compact_floor (2 * bytes)

(* --- Recovery scan ---------------------------------------------------- *)

(* Scan one segment image: the records in order, the valid and rejected
   counts, and the offset of the first unreadable frame (or the length).
   Stops at the first frame whose header is unreadable (torn tail, lost
   framing, an older build's footer); a frame with sane lengths but a
   bad CRC is skipped and the scan continues — the lengths still frame
   it. *)
let scan_segment buf len =
  let records = ref [] in
  let valid = ref 0 in
  let rejected = ref 0 in
  let pos = ref magic_len in
  let stop = ref false in
  while not !stop do
    if !pos + header_len > len then stop := true
    else begin
      let klen = Int32.to_int (Bytes.get_int32_be buf (!pos + 1)) in
      let vlen = Int32.to_int (Bytes.get_int32_be buf (!pos + 5)) in
      let stored = Bytes.get_int32_be buf (!pos + 9) in
      let total = header_len + klen + vlen in
      if
        Bytes.get buf !pos <> 'E'
        || klen < 0 || klen > max_key_bytes || vlen < 0
        || vlen > max_value_bytes
        || !pos + total > len
      then stop := true
      else begin
        if frame_crc buf ~pos:!pos ~total <> stored then
          (* Bit rot inside a well-framed record: drop it, keep going. *)
          incr rejected
        else begin
          let key = Bytes.sub_string buf (!pos + header_len) klen in
          let value = Bytes.sub_string buf (!pos + header_len + klen) vlen in
          records := (key, value) :: !records;
          incr valid
        end;
        pos := !pos + total
      end
    end
  done;
  (List.rev !records, !valid, !rejected, !pos)

let segment_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         match Scanf.sscanf_opt name "segment-%d.rj%!" (fun i -> i) with
         | Some index -> Some (index, Filename.concat dir name)
         | None -> None)
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = Bytes.create len in
      really_input ic buf 0 len;
      buf)

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

let segment_path dir index =
  Filename.concat dir (Printf.sprintf segment_format index)

let create_segment dir index =
  let fd =
    Unix.openfile (segment_path dir index)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  Wire.send fd magic;
  fd

(* --- Open / recover --------------------------------------------------- *)

(* Replay every segment in index order, truncating each torn tail in
   place; the last write per key wins and keeps its key's first
   position.  Returns the recovery and the bytes left on disk. *)
let recover files =
  let latest = Hashtbl.create 256 in
  let order = ref [] in
  let valid = ref 0 in
  let rejected = ref 0 in
  let torn = ref 0 in
  let kept = ref 0 in
  List.iter
    (fun (_, path) ->
      let buf = read_file path in
      let len = Bytes.length buf in
      if len < magic_len || Bytes.sub_string buf 0 magic_len <> magic then begin
        (* Unreadable preamble: nothing in this file can be trusted;
           empty it so the next recovery skips it too. *)
        torn := !torn + len;
        truncate_file path 0
      end
      else begin
        let records, v, r, good_end = scan_segment buf len in
        valid := !valid + v;
        rejected := !rejected + r;
        if good_end < len then begin
          torn := !torn + (len - good_end);
          truncate_file path good_end
        end;
        kept := !kept + good_end;
        List.iter
          (fun (key, value) ->
            if not (Hashtbl.mem latest key) then order := key :: !order;
            Hashtbl.replace latest key value)
          records
      end)
    files;
  ( {
      entries = List.rev_map (fun key -> (key, Hashtbl.find latest key)) !order;
      valid_records = !valid;
      crc_rejected = !rejected;
      torn_bytes = !torn;
      segments = List.length files;
    },
    !kept )

let open_ ?faults ~live dir =
  match prepare_dir dir with
  | Error _ as e -> e
  | Ok () -> (
      match
        let files = segment_files dir in
        let recovery, kept = recover files in
        (* Appends always go to a fresh segment: old segments are never
           reopened for writing. *)
        let index = List.fold_left (fun _ (i, _) -> i) 0 files + 1 in
        let fd = create_segment dir index in
        let total = kept + magic_len in
        let t =
          {
            dir;
            live;
            faults;
            mutex = Mutex.create ();
            old_segments = List.map snd files;
            current_fd = fd;
            current_index = index;
            total_bytes = total;
            compact_at = next_compaction total;
            unsynced_bytes = 0;
            last_fsync = Rip_numerics.Cpu_clock.monotonic_seconds ();
            appends = 0;
            fsyncs = 0;
            compactions = 0;
            wedged = false;
            closed = false;
          }
        in
        (t, recovery)
      with
      | result -> Ok result
      | exception Unix.Unix_error (code, fn, _) ->
          Error
            (Printf.sprintf "journal open in %s failed: %s (%s)" dir
               (Unix.error_message code) fn)
      | exception Sys_error message ->
          Error (Printf.sprintf "journal open in %s failed: %s" dir message))

(* --- Write path -------------------------------------------------------
   All I/O below runs under [t.mutex]: the lock is what serialises the
   shared file offset, and every write lands on a local journal file,
   so the hold time is bounded by one page-cache copy (fsyncs are the
   long pole and are batched).  Hence the blocking-under-lock waivers:
   the lint cannot see that this mutex exists precisely to order the
   file appends.  Compaction calls [t.live] under this mutex, so the
   live source may take its own locks but must never call back into
   the journal: the lock order is journal, then cache. *)

let do_fsync t =
  (match t.faults with
  | Some faults -> Option.iter Thread.delay (Faults.fsync_delay faults)
  | None -> ());
  Unix.fsync t.current_fd;
  t.fsyncs <- t.fsyncs + 1;
  t.unsynced_bytes <- 0;
  t.last_fsync <- Rip_numerics.Cpu_clock.monotonic_seconds ()

let maybe_fsync t =
  if
    t.unsynced_bytes >= fsync_bytes
    || Rip_numerics.Cpu_clock.monotonic_seconds () -. t.last_fsync
       >= fsync_seconds
  then do_fsync t

(* Rewrite the live set into a fresh segment, fsync it, then delete the
   superseded files.  Crash-safe without any further ceremony: if we die
   before the deletes, recovery replays old segments first and the new
   one last, and last-wins replay converges on the same live set. *)
let compact t =
  let index = t.current_index + 1 in
  let fd = create_segment t.dir index in
  let written = ref magic_len in
  (* Sorted by key so the compacted segment's bytes are a function of
     the live set alone, not of the source's order. *)
  List.iter
    (fun (key, value) ->
      let frame = encode_frame ~key ~value in
      Wire.send fd (Bytes.unsafe_to_string frame);
      written := !written + Bytes.length frame)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) (t.live ()));
  Unix.fsync fd;
  Unix.close t.current_fd;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (segment_path t.dir t.current_index :: t.old_segments);
  t.old_segments <- [];
  t.current_fd <- fd;
  t.current_index <- index;
  t.total_bytes <- !written;
  t.compact_at <- next_compaction !written;
  t.unsynced_bytes <- 0;
  t.last_fsync <- Rip_numerics.Cpu_clock.monotonic_seconds ();
  t.fsyncs <- t.fsyncs + 1;
  t.compactions <- t.compactions + 1

(* blocking-under-lock waiver: see the write-path comment above — the
   journal mutex exists to serialise appends to one local file. *)
let append t ~key ~value =
  if String.length key > max_key_bytes || String.length value > max_value_bytes
  then invalid_arg "Journal.append: record exceeds frame bounds";
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if not (t.closed || t.wedged) then begin
        let frame = encode_frame ~key ~value in
        let total = Bytes.length frame in
        (match t.faults with
        | Some faults -> (
            match Faults.journal_bitflip faults ~len:total with
            | Some (byte, bit) ->
                Bytes.set frame byte
                  (Char.chr (Char.code (Bytes.get frame byte) lxor (1 lsl bit)))
            | None -> ())
        | None -> ());
        let torn =
          match t.faults with
          | Some faults -> Faults.torn_write faults ~len:total
          | None -> None
        in
        match torn with
        | Some prefix ->
            (* Simulated crash mid-write: the prefix reaches the file
               and the journal freezes, leaving the torn tail in place
               for the next recovery to truncate. *)
            Wire.write_all t.current_fd (Bytes.unsafe_to_string frame) 0 prefix;
            t.total_bytes <- t.total_bytes + prefix;
            t.wedged <- true
        | None -> (
            try
              Wire.send t.current_fd (Bytes.unsafe_to_string frame);
              t.appends <- t.appends + 1;
              t.total_bytes <- t.total_bytes + total;
              t.unsynced_bytes <- t.unsynced_bytes + total;
              if t.total_bytes >= t.compact_at then compact t
              else maybe_fsync t
            with Unix.Unix_error _ | Sys_error _ ->
              (* Disk trouble (full, yanked, ...) must degrade
                 durability, not take down serving: freeze the log and
                 keep answering from memory. *)
              t.wedged <- true)
      end)
[@@lint.allow "blocking-under-lock"]

(* blocking-under-lock waiver: one bounded fsync of a local file. *)
let flush t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if (not (t.closed || t.wedged)) && t.unsynced_bytes > 0 then
        try do_fsync t
        with Unix.Unix_error _ | Sys_error _ -> t.wedged <- true)
[@@lint.allow "blocking-under-lock"]

(* blocking-under-lock waiver: the final fsync of a local file. *)
let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (* A wedged log keeps its torn tail as the crash left it. *)
        if not t.wedged then
          (try do_fsync t with Unix.Unix_error _ | Sys_error _ -> ());
        try Unix.close t.current_fd with Unix.Unix_error _ -> ()
      end)
[@@lint.allow "blocking-under-lock"]

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      bytes = t.total_bytes;
      segments = List.length t.old_segments + 1;
      appends = t.appends;
      fsyncs = t.fsyncs;
      compactions = t.compactions;
    }
  in
  Mutex.unlock t.mutex;
  s
