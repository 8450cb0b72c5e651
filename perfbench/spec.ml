(* The metric names a run prints, with their units. BENCHMARK.json lists
   the same names; perfbench/run.py refuses a run whose output differs
   from it. *)

(* Printed with tracing off. *)
let end_to_end =
  [ ("setup_s", "s");
    ("points_per_s", "points/s");
    ("solves_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("sim_mcycles_per_s", "Mcycles/s");
    ("cycles_ratio", "ratio");
    ("energy_ratio", "ratio");
    ("ok_ratio", "ratio");
    ("peak_rss_mb", "MB") ]

let us_words name = [ (name ^ ".us_per_op", "us"); (name ^ ".words_per_op", "words") ]

let search name =
  us_words name
  @ [ (name ^ ".probes_per_op", "count");
      (name ^ ".commits_per_op", "count");
      (name ^ ".cache_hit_ratio", "ratio") ]

(* Printed with tracing on. *)
let per_layer =
  (* request path *)
  us_words "util.json.parse"
  @ us_words "service.request.of_json"
  @ us_words "analysis.verify.run"
  @ us_words "ir.json_codec.program_key"
  @ us_words "core.mapping.precompute"
  @ us_words "core.report.encode"
  @ [ ("core.report.encode.bytes_per_op", "bytes");
      ("service.repeat_share", "ratio");
      ("service.bytes_in_per_op", "bytes");
      (* pool *)
      ("service.pool_efficiency", "ratio") ]
  (* search *)
  @ search "core.assign.greedy"
  @ search "core.assign.anneal"
  @ us_words "core.engine.probe"
  @ us_words "core.assign.feasible"
  @ us_words "core.assign.apply_move"
  @ us_words "core.prefetch.run"
  @ [ ("core.prefetch.run.plans_per_op", "count");
      ("core.prefetch.run.extended_share", "ratio");
      ("core.cost.evaluate.us_per_op", "us");
      (* pruning *)
      ("core.cost.lower_bound.us_per_op", "us");
      ("core.explore.pareto.prune_ratio", "ratio");
      ("util.domain_pool.efficiency", "ratio");
      (* simulator *)
      ("sim.crosscheck.check_event.us_per_stream", "us");
      ("sim.crosscheck.check_event.words_per_stream", "words");
      ("sim.event.run.ns_per_event", "ns");
      ("sim.event.run.words_per_event", "words");
      ("sim.event.events", "count");
      ("sim.event.simulated_cycles", "cycles");
      ("sim.event.stall_cycles", "cycles");
      ("sim.event.bus_wait_cycles", "cycles");
      ("sim.event.invalidated_prefetches", "count");
      ("sim.event.demand_fetches", "count");
      ("sim.crosscheck.max_gain_deviation", "cycles");
      (* GC and tracing *)
      ("gc.minor_words_per_op", "words");
      ("gc.minor_collections_per_op", "count");
      ("trace.overhead_ratio", "ratio") ]
  @ List.map
      (fun layer -> ("layer." ^ layer ^ ".self_share", "ratio"))
      Measure.layers
