type t = {
  name : string;
  segments : Segment.t array;
  zones : Zone.t list;
  driver_width : float;
  receiver_width : float;
}

let total_length net =
  Array.fold_left (fun acc s -> acc +. s.Segment.length) 0.0 net.segments

let create ?(name = "net") ~segments ~zones ~driver_width ~receiver_width () =
  (match segments with
  | [] -> invalid_arg "Net.create: a net needs segments"
  | _ :: _ -> ());
  if driver_width <= 0.0 || receiver_width <= 0.0 then
    invalid_arg "Net.create: pin widths must be positive";
  let segments = Array.of_list segments in
  let length =
    Array.fold_left (fun acc s -> acc +. s.Segment.length) 0.0 segments
  in
  let zones = Zone.normalize zones in
  List.iter
    (fun (z : Zone.t) ->
      if z.z_end > length +. 1e-9 then
        invalid_arg "Net.create: forbidden zone extends beyond the net")
    zones;
  { name; segments; zones; driver_width; receiver_width }

let segment_count net = Array.length net.segments

let total_wire_capacitance net =
  Array.fold_left
    (fun acc s -> acc +. Segment.total_capacitance s)
    0.0 net.segments

let total_wire_resistance net =
  Array.fold_left
    (fun acc s -> acc +. Segment.total_resistance s)
    0.0 net.segments

let position_legal net x =
  x >= 0.0 && x <= total_length net && not (Zone.blocked net.zones x)

let uniform ?(name = "uniform") layer ~length ~segment_count ~driver_width
    ~receiver_width =
  if segment_count <= 0 then invalid_arg "Net.uniform: segment_count <= 0";
  let piece = length /. float_of_int segment_count in
  let segments =
    List.init segment_count (fun _ -> Segment.of_layer layer ~length:piece)
  in
  create ~name ~segments ~zones:[] ~driver_width ~receiver_width ()

let equal a b =
  String.equal a.name b.name
  && Array.length a.segments = Array.length b.segments
  && Array.for_all2 Segment.equal a.segments b.segments
  && List.equal Zone.equal a.zones b.zones
  && a.driver_width = b.driver_width
  && a.receiver_width = b.receiver_width

(* The digest covers exactly the fields the solvers read — pin widths,
   per-segment (length, r, c) and normalized zones — as their IEEE-754
   bits, so electrically identical nets collide and any float difference
   does not.  Each record is a tag byte and fixed-width little-endian
   words, so the byte string parses back unambiguously.  The cosmetic
   [name] and per-segment layer names are excluded. *)
let canonical_digest net =
  let buffer =
    Buffer.create
      (17 + (25 * Array.length net.segments) + (17 * List.length net.zones))
  in
  let add_float x = Buffer.add_int64_le buffer (Int64.bits_of_float x) in
  Buffer.add_char buffer 'p';
  add_float net.driver_width;
  add_float net.receiver_width;
  Array.iter
    (fun (s : Segment.t) ->
      Buffer.add_char buffer 's';
      add_float s.length;
      add_float s.resistance_per_um;
      add_float s.capacitance_per_um)
    net.segments;
  List.iter
    (fun (z : Zone.t) ->
      Buffer.add_char buffer 'z';
      add_float z.z_start;
      add_float z.z_end)
    net.zones;
  Digest.to_hex (Digest.string (Buffer.contents buffer))

(* [pp] renders a human-readable report, not wire bytes: nothing caches
   or compares its output, so full %.17g precision would only hurt
   readability. *)
let[@lint.allow "float-format-precision"] pp ppf net =
  Fmt.pf ppf "@[<v>net %s: %d segments, %g um, wd=%gu, wr=%gu@,zones: %a@]"
    net.name (segment_count net) (total_length net) net.driver_width
    net.receiver_width
    Fmt.(list ~sep:comma Zone.pp)
    net.zones
