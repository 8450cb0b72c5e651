(* simulate-apps: the discrete-event DMA/bus simulator. The nine apps are
   solved in set-up; each round runs [Crosscheck.check_event] over every
   app's TE schedule, first under the hierarchy-derived [Event] config
   and then under seeded stress configs (channels, prefetch-queue depth,
   arbitration, shared bus), the (app, config) checks spread over a
   [Domain_pool] of nproc workers. The only workload in which [mhla_sim]
   does work. *)

module Assign = Mhla_core.Assign
module Explore = Mhla_core.Explore
module Crosscheck = Mhla_sim.Crosscheck
module Event = Mhla_sim.Event

let stress_configs = 3

type task = {
  app : string;
  derived : bool;  (** the hierarchy-derived config, not a stress one *)
  config : Event.config;
  result : Explore.result;
}

(* One stress config's knobs, drawn once per seed and applied to every
   app's hierarchy. *)
let draw rng =
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let channels = pick [ 1; 2; 4 ] in
  let queue_depth = pick [ 1; 2; 4; 8 ] in
  let arbitration = pick [ Event.Earliest_free; Event.Round_robin ] in
  let shared_bus = pick [ true; false ] in
  fun h ->
    { (Event.of_hierarchy ~queue_depth ~arbitration ~shared_bus h) with Event.channels }

let setup ~seed () =
  let rng = Random.State.make [| seed |] in
  let stresses = List.init stress_configs (fun _ -> draw rng) in
  List.concat_map
    (fun (d : Mhla_apps.Defs.t) ->
      let program = Lazy.force d.Mhla_apps.Defs.program in
      let h = Mhla_arch.Presets.two_level ~onchip_bytes:d.Mhla_apps.Defs.onchip_bytes () in
      let result = Explore.run program h in
      let app = d.Mhla_apps.Defs.name in
      { app; derived = true; config = Event.of_hierarchy h; result }
      :: List.map (fun s -> { app; derived = false; config = s h; result }) stresses)
    Mhla_apps.Registry.all

let check t =
  Crosscheck.check_event ~config:t.config t.result.Explore.assign.Assign.mapping
    t.result.Explore.te

(* The exact counts a check must reproduce on every run. *)
type counts = {
  streams : int;
  events : int;
  simulated_cycles : int;
  stall_cycles : int;
  bus_wait_cycles : int;
  invalidated_prefetches : int;
  demand_fetches : int;
  max_gain_deviation : int;
  within_tolerance : bool;
}

let counts (r : Crosscheck.event_report) =
  let sum f =
    List.fold_left
      (fun acc (c : Crosscheck.event_check) ->
        acc + f c.Crosscheck.extended_outcome + f c.Crosscheck.baseline_outcome)
      0 r.Crosscheck.event_checks
  in
  {
    streams = List.length r.Crosscheck.event_checks;
    events = sum (fun o -> o.Event.events_processed);
    simulated_cycles = sum (fun o -> o.Event.total_cycles);
    stall_cycles = sum (fun o -> o.Event.stall_cycles);
    bus_wait_cycles = sum (fun o -> o.Event.bus_wait_cycles);
    invalidated_prefetches = sum (fun o -> o.Event.invalidated_prefetches);
    demand_fetches = sum (fun o -> o.Event.demand_fetches);
    max_gain_deviation =
      List.fold_left
        (fun acc (c : Crosscheck.event_check) ->
          max acc (abs (c.Crosscheck.event_gain_cycles - c.Crosscheck.analytic_gain_cycles)))
        0 r.Crosscheck.event_checks;
    within_tolerance = List.for_all Crosscheck.event_within_tolerance r.Crosscheck.event_checks;
  }

(* The counts each app's check produced under its hierarchy-derived
   config when this benchmark was written; they do not depend on the
   seed. A change that only makes the simulator faster must reproduce
   them exactly. A change to what it simulates must update this table,
   in a change of its own. *)
let recorded =
  [ ("motion_estimation", { streams = 2; events = 3205225; simulated_cycles = 313174832; stall_cycles = 11038910; bus_wait_cycles = 0; invalidated_prefetches = 0; demand_fetches = 0; max_gain_deviation = 14; within_tolerance = true });
    ("qsdpcm", { streams = 6; events = 4900; simulated_cycles = 23732202; stall_cycles = 148602; bus_wait_cycles = 0; invalidated_prefetches = 0; demand_fetches = 0; max_gain_deviation = 174; within_tolerance = true });
    ("cavity_detector", { streams = 5; events = 4471; simulated_cycles = 6783320; stall_cycles = 88168; bus_wait_cycles = 0; invalidated_prefetches = 0; demand_fetches = 0; max_gain_deviation = 128; within_tolerance = true });
    ("wavelet_2d", { streams = 5; events = 30410; simulated_cycles = 2488956; stall_cycles = 98536; bus_wait_cycles = 0; invalidated_prefetches = 0; demand_fetches = 0; max_gain_deviation = 65; within_tolerance = true });
    ("jpeg_encoder", { streams = 5; events = 5570; simulated_cycles = 44045640; stall_cycles = 83244; bus_wait_cycles = 0; invalidated_prefetches = 0; demand_fetches = 0; max_gain_deviation = 126; within_tolerance = true });
    ("edge_detection", { streams = 4; events = 230410; simulated_cycles = 9966136; stall_cycles = 428068; bus_wait_cycles = 0; invalidated_prefetches = 0; demand_fetches = 0; max_gain_deviation = 1; within_tolerance = true });
    ("adpcm_coder", { streams = 3; events = 1809; simulated_cycles = 761468; stall_cycles = 48212; bus_wait_cycles = 0; invalidated_prefetches = 0; demand_fetches = 0; max_gain_deviation = 176; within_tolerance = true });
    ("mp3_filterbank", { streams = 2; events = 905; simulated_cycles = 1366505; stall_cycles = 12245; bus_wait_cycles = 0; invalidated_prefetches = 0; demand_fetches = 0; max_gain_deviation = 69; within_tolerance = true });
    ("voice_compression", { streams = 4; events = 1418; simulated_cycles = 6754800; stall_cycles = 48860; bus_wait_cycles = 0; invalidated_prefetches = 0; demand_fetches = 0; max_gain_deviation = 318; within_tolerance = true }) ]

(* A check is right when it reproduces this run's sequential reference
   and, under the derived config, the recorded counts, with every stream
   agreeing with the analytic gain. *)
let check_ok t reference c =
  c = reference
  && ((not t.derived) || (c.within_tolerance && List.assoc_opt t.app recorded = Some c))

let round tasks () =
  Mhla_util.Domain_pool.map ~jobs:Measure.jobs
    (fun t ->
      let t0 = Measure.now () in
      let r = check t in
      (counts r, Measure.now () -. t0))
    tasks

(* The traced decomposition on one domain: each check, then each of its
   streams' two simulator legs re-run on their own (they must reproduce
   the check's outcomes). *)
let replay tr tasks =
  let ok = ref true in
  List.iteri
    (fun i t ->
      Measure.set_op tr i;
      let r =
        Measure.span tr "sim.crosscheck.check_event" ~ops:0 (fun () -> check t)
      in
      List.iter
        (fun (c : Crosscheck.event_check) ->
          let leg stream expected =
            let o =
              Measure.span tr "sim.event.run" ~ops:expected.Event.events_processed (fun () ->
                  Event.run c.Crosscheck.event_config stream)
            in
            if o <> expected then ok := false
          in
          leg c.Crosscheck.stream c.Crosscheck.extended_outcome;
          leg { c.Crosscheck.stream with Event.lookahead = 0 } c.Crosscheck.baseline_outcome)
        r.Crosscheck.event_checks)
    tasks;
  !ok

let run ~seed ~seconds ~trace =
  let tasks, setup_s = Measure.timed_setup (setup ~seed) in
  let references = List.map (fun t -> counts (check t)) tasks in
  (* Heaviest checks first, so the pool's tail is short. *)
  let tasks, references =
    List.split
      (List.stable_sort
         (fun (_, a) (_, b) -> compare b.events a.events)
         (List.combine tasks references))
  in
  let solutions =
    List.filter_map (fun t -> if t.derived then Some t.result else None) tasks
  in
  let unverified = List.exists (fun r -> not (Pipeline.verified r)) solutions in
  let attempted = ref 0 and failed = ref 0 and latencies = ref [] in
  let after results =
    List.iter2
      (fun (t, reference) (c, _) ->
        incr attempted;
        if not (check_ok t reference c) then incr failed)
      (List.combine tasks references) results;
    latencies := List.map snd results :: !latencies
  in
  let seconds = if trace then seconds /. 2. else seconds in
  let walls, gc =
    Measure.gc_delta (fun () -> Measure.timed_rounds ~seconds ~round:(round tasks) ~after)
  in
  let rounds = List.length walls in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 references in
  let m = Measure.metrics () in
  (* Every round does the same, exactly checked work. *)
  let per_wall n = float_of_int n /. Measure.median walls in
  if not trace then begin
    Measure.set m "setup_s" setup_s;
    Measure.set m "points_per_s" (per_wall (total (fun c -> c.streams)));
    Measure.set m "solves_per_s" (per_wall (List.length tasks));
    Measure.set m "latency_p50_ms" (1e3 *. Measure.round_percentile 0.5 !latencies);
    Measure.set m "latency_p90_ms" (1e3 *. Measure.round_percentile 0.9 !latencies);
    Measure.set m "sim_mcycles_per_s" (per_wall (total (fun c -> c.simulated_cycles)) /. 1e6);
    Measure.set m "cycles_ratio" (Measure.geomean (List.map Pipeline.cycles_ratio solutions));
    Measure.set m "energy_ratio" (Measure.geomean (List.map Pipeline.energy_ratio solutions))
  end;
  let ok = ref (!failed = 0 && not unverified) in
  if trace then begin
    let per_op v = v /. float_of_int (rounds * List.length tasks) in
    Measure.set m "gc.minor_words_per_op" (per_op gc.Measure.minor_words);
    Measure.set m "gc.minor_collections_per_op" (per_op (float_of_int gc.Measure.minor_collections));
    let _, sequential_wall = Measure.wall (fun () -> List.iter (fun t -> ignore (check t)) tasks) in
    Measure.set m "util.domain_pool.efficiency"
      (sequential_wall /. (Measure.median walls *. float_of_int Measure.jobs));
    let overhead, tr, traced_wall, replay_ok =
      Measure.traced_replay ~pairs:1 (fun tr -> replay tr tasks)
    in
    if not replay_ok then ok := false;
    Measure.set m "trace.overhead_ratio" overhead;
    Measure.layer_shares m tr ~wall:traced_wall;
    Measure.span_metrics m tr;
    let streams = float_of_int (total (fun c -> c.streams)) in
    let check_event = Hashtbl.find (Measure.self_table tr) "sim.crosscheck.check_event" in
    Measure.set m "sim.crosscheck.check_event.us_per_stream" (check_event.Measure.self_s *. 1e6 /. streams);
    Measure.set m "sim.crosscheck.check_event.words_per_stream" (check_event.Measure.self_words /. streams);
    let event_run = Hashtbl.find (Measure.self_table tr) "sim.event.run" in
    let events = float_of_int event_run.Measure.calls in
    Measure.set m "sim.event.run.ns_per_event" (event_run.Measure.self_s *. 1e9 /. events);
    Measure.set m "sim.event.run.words_per_event" (event_run.Measure.self_words /. events);
    let set_total name f = Measure.set m name (float_of_int (total f)) in
    set_total "sim.event.events" (fun c -> c.events);
    set_total "sim.event.simulated_cycles" (fun c -> c.simulated_cycles);
    set_total "sim.event.stall_cycles" (fun c -> c.stall_cycles);
    set_total "sim.event.bus_wait_cycles" (fun c -> c.bus_wait_cycles);
    set_total "sim.event.invalidated_prefetches" (fun c -> c.invalidated_prefetches);
    set_total "sim.event.demand_fetches" (fun c -> c.demand_fetches);
    Measure.set m "sim.crosscheck.max_gain_deviation"
      (float_of_int
         (List.fold_left
            (fun acc (t, c) -> if t.derived then max acc c.max_gain_deviation else acc)
            0 (List.combine tasks references)));
    Measure.write_trace tr (Printf.sprintf "simulate-apps-%d" seed)
  end;
  { Measure.attempted = !attempted; failed = !failed; correct = !ok; metrics = m }
