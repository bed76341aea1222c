module Repeater_library = Rip_dp.Repeater_library

type t = {
  coarse_library : Repeater_library.t;
  coarse_pitch : float;
  fallback_library : Repeater_library.t;
  refined_granularity : float;
  refined_radius : int;
  refined_pitch : float;
  min_width : float;
  max_width : float;
  refine : Rip_refine.Refine.config;
  refine_passes : int;
}

let reference_library =
  Repeater_library.range ~min_width:10.0 ~max_width:400.0 ~step:10.0

let tau_min_library =
  Repeater_library.range ~min_width:10.0 ~max_width:400.0 ~step:20.0

let tau_min_pitch = 100.0

let default =
  {
    coarse_library = Repeater_library.uniform ~min_width:80.0 ~step:80.0 ~count:5;
    coarse_pitch = 200.0;
    fallback_library = reference_library;
    refined_granularity = 10.0;
    refined_radius = 10;
    refined_pitch = 50.0;
    min_width = 10.0;
    max_width = 400.0;
    refine = Rip_refine.Refine.default_config;
    refine_passes = 1;
  }

let frontier_cap = 128

let pp ppf t =
  Fmt.pf ppf
    "@[<v>rip config:@,\
     coarse library %a at %gum pitch@,\
     refined grid %gu, +/-%d slots at %gum@,\
     width range [%gu, %gu]@,\
     dp frontier cap %d@]"
    Repeater_library.pp t.coarse_library t.coarse_pitch t.refined_granularity
    t.refined_radius t.refined_pitch t.min_width t.max_width frontier_cap
