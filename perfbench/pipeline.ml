(* The solve pipeline of [Explore.run], call by call, so the traced run
   can time each layer; and the per-candidate search primitives timed in
   isolation. *)

module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Engine = Mhla_core.Engine
module Explore = Mhla_core.Explore
module Mapping = Mhla_core.Mapping
module Prefetch = Mhla_core.Prefetch

let span = Measure.span

(* Totals over the solves a traced replay made, per search kind. *)
type search_totals = {
  mutable solves : int;
  mutable probes : int;
  mutable commits : int;
  mutable hits : int;
  mutable misses : int;
}

type totals = {
  greedy : search_totals;
  anneal : search_totals;
  mutable te_runs : int;
  mutable plans : int;
  mutable extended : int;
}

let totals () =
  let fresh () = { solves = 0; probes = 0; commits = 0; hits = 0; misses = 0 } in
  { greedy = fresh (); anneal = fresh (); te_runs = 0; plans = 0; extended = 0 }

let count_search st (r : Assign.result) =
  st.solves <- st.solves + 1;
  st.probes <- st.probes + r.Assign.evaluations;
  st.commits <- st.commits + List.length r.Assign.steps;
  st.hits <- st.hits + r.Assign.cache_hits;
  st.misses <- st.misses + r.Assign.cache_misses

(* [Explore.run] under [config] and [search], one span per call. Returns
   the same [Explore.result] value. *)
let run tr totals ~config ~search ~reuse program hierarchy =
  let direct =
    span tr "core.mapping.direct" (fun () ->
        Mapping.direct ~transfer_mode:config.Assign.transfer_mode ~reuse
          program hierarchy)
  in
  let baseline = span tr "core.cost.evaluate" (fun () -> Cost.evaluate direct) in
  let assign =
    match search with
    | Explore.Greedy ->
      let r =
        span tr "core.assign.greedy" (fun () ->
            Assign.greedy ~config ~reuse program hierarchy)
      in
      count_search totals.greedy r;
      r
    | Explore.Annealing { seed; iterations } ->
      let r =
        span tr "core.assign.anneal" (fun () ->
            Assign.simulated_annealing ~config ~reuse ~seed ~iterations
              program hierarchy)
      in
      count_search totals.anneal r;
      r
    | Explore.First_improvement -> invalid_arg "Pipeline.run: first-improvement"
  in
  let mapping = assign.Assign.mapping in
  let te = span tr "core.prefetch.run" (fun () -> Prefetch.run mapping) in
  totals.te_runs <- totals.te_runs + 1;
  List.iter
    (fun (p : Prefetch.plan) ->
      totals.plans <- totals.plans + 1;
      if p.Prefetch.extended <> [] then totals.extended <- totals.extended + 1)
    te.Prefetch.plans;
  let after_te =
    span tr "core.prefetch.evaluate" (fun () -> Prefetch.evaluate mapping te)
  in
  let ideal = span tr "core.cost.ideal" (fun () -> Cost.ideal mapping) in
  {
    Explore.program;
    hierarchy;
    baseline;
    assign;
    te;
    after_assign = assign.Assign.breakdown;
    after_te;
    ideal;
  }

(* Greedy's per-candidate work, each primitive timed on its own over
   every move [Assign.moves] offers from the direct mapping: an engine
   probe, the functional [apply_move], and the from-scratch feasibility
   test of the moved mapping. Repeated [reps] times to lift the
   sub-millisecond batches above clock noise. *)
let isolated tr ~config ~reps cases =
  List.iter
    (fun (program, hierarchy, reuse) ->
      let m =
        Mapping.direct ~transfer_mode:config.Assign.transfer_mode ~reuse
          program hierarchy
      in
      let moves = Assign.moves config m in
      let ops = List.length moves in
      let engine = Engine.create ~objective:config.Assign.objective m in
      for _ = 1 to reps do
        span tr ~ops "core.engine.probe" (fun () ->
            List.iter (fun mv -> ignore (Engine.probe engine mv : float)) moves);
        let moved =
          span tr ~ops "core.assign.apply_move" (fun () ->
              List.map (Assign.apply_move m) moves)
        in
        span tr ~ops "core.assign.feasible" (fun () ->
            List.iter (fun m' -> ignore (Assign.feasible config m' : bool)) moved)
      done)
    cases

let set_search_metrics m totals =
  let per st v = Measure.ratio (float_of_int v) (float_of_int st.solves) in
  List.iter
    (fun (name, st) ->
      let key k = "core.assign." ^ name ^ "." ^ k in
      Measure.set m (key "probes_per_op") (per st st.probes);
      Measure.set m (key "commits_per_op") (per st st.commits);
      Measure.set m (key "cache_hit_ratio")
        (Measure.ratio (float_of_int st.hits)
           (float_of_int (st.hits + st.misses))))
    [ ("greedy", totals.greedy); ("anneal", totals.anneal) ];
  Measure.set m "core.prefetch.run.plans_per_op"
    (Measure.ratio (float_of_int totals.plans) (float_of_int totals.te_runs));
  Measure.set m "core.prefetch.run.extended_share"
    (Measure.ratio (float_of_int totals.extended) (float_of_int totals.plans))

(* The independent verifier over a solution and its TE schedule: true
   when it reports no Error finding. *)
let verified (r : Explore.result) =
  Mhla_analysis.Verify.ok
    (Mhla_analysis.Verify.run
       (Mhla_analysis.Pass.of_mapping ~schedule:r.Explore.te
          r.Explore.assign.Assign.mapping))

let cycles_ratio (r : Explore.result) =
  float_of_int r.Explore.after_te.Cost.total_cycles
  /. float_of_int r.Explore.baseline.Cost.total_cycles

let energy_ratio (r : Explore.result) =
  r.Explore.after_te.Cost.total_energy_pj
  /. r.Explore.baseline.Cost.total_energy_pj
