module Repeater_library = Rip_dp.Repeater_library
module Candidates = Rip_dp.Candidates
module Power_dp = Rip_dp.Power_dp
module Geometry = Rip_net.Geometry

type t = {
  name : string;
  library : Repeater_library.t;
  pitch : float;
}

let fixed_size ~granularity =
  {
    name = Printf.sprintf "dp[14] size10 g=%gu" granularity;
    library =
      Repeater_library.uniform ~min_width:10.0 ~step:granularity ~count:10;
    pitch = 200.0;
  }

let fixed_range ~granularity =
  {
    name = Printf.sprintf "dp[14] range(10u,400u) g=%gu" granularity;
    library =
      Repeater_library.range ~min_width:10.0 ~max_width:400.0
        ~step:granularity;
    pitch = 200.0;
  }

type run = {
  result : Power_dp.result option;
  runtime_seconds : float;
}

let solve t (process : Rip_tech.Process.t) geometry ~budget =
  let net = Geometry.net geometry in
  let candidates = Candidates.uniform net ~pitch:t.pitch in
  let started = Rip_numerics.Cpu_clock.thread_seconds () in
  let result =
    Power_dp.run
      (Power_dp.request geometry process.Rip_tech.Process.repeater
         ~library:t.library ~candidates ~budget)
  in
  {
    result;
    runtime_seconds = Rip_numerics.Cpu_clock.thread_seconds () -. started;
  }
