(* explore-apps: the paper's trade-off exploration. For each of the nine
   bundled apps, [Explore.pareto] over a two-on-chip-level budget grid
   and [Explore.sweep] over two-level sizes, both at jobs = nproc — what
   [mhla pareto -j N] and [mhla sweep -j N] run. Greedy search does most
   of the work; it is the only workload that prunes and the only one
   that solves on [Domain_pool]. *)

module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Explore = Mhla_core.Explore
module Mapping = Mhla_core.Mapping
module Nd = Mhla_util.Pareto.Nd
module Presets = Mhla_arch.Presets

type app = {
  program : Mhla_ir.Program.t;
  axes : int list list;
  sizes : int list;
}

(* Powers of two in [lo, hi]. *)
let pow2s lo hi =
  let rec go p acc = if p > hi then List.rev acc else go (2 * p) (if p >= lo then p :: acc else acc) in
  go 1 []

let below b =
  let rec go p = if 2 * p >= b then p else go (2 * p) in
  go 1

(* An ascending axis from [lo] to [hi] over the powers of two between
   them: the interior ones are paired off, smallest first, and the seed
   keeps one size of each pair. The endpoints stay, so every seed's grid
   spans from below the app's bundled budget to past SRAM energy
   saturation (~87 KiB), where [Cost.lower_bound] starts pruning; and
   every seed's axis has one size in each octave pair, so grids differ
   by at most 2x per size and cost about the same. *)
let axis rng ~lo ~hi =
  let rec pick = function
    | a :: b :: rest -> (if Random.State.bool rng then a else b) :: pick rest
    | rest -> rest
  in
  (lo :: pick (List.filter (fun p -> p > lo && p < hi) (pow2s lo hi))) @ [ hi ]

let setup ~seed () =
  let rng = Random.State.make [| seed |] in
  List.map
    (fun (d : Mhla_apps.Defs.t) ->
      let program = Lazy.force d.Mhla_apps.Defs.program in
      let budget = d.Mhla_apps.Defs.onchip_bytes in
      let l1 = below budget in
      let axes =
        [ axis rng ~lo:l1 ~hi:131072; axis rng ~lo:(4 * l1) ~hi:524288 ]
      in
      (* Every size in range, as [mhla sweep --min --max] takes them. *)
      let sizes = Presets.sweep_sizes ~min_bytes:(below (budget / 4 + 1)) ~max_bytes:131072 in
      (* A pre-solve at the bundled budget, as a first [mhla run] would. *)
      ignore
        (Explore.run program (Presets.two_level ~onchip_bytes:budget ())
          : Explore.result);
      { program; axes; sizes })
    Mhla_apps.Registry.all

let grid_points a = List.length (Presets.budget_grid ~axes:a.axes)

let points a = grid_points a + List.length a.sizes

(* What a round must reproduce exactly, at any jobs count. *)
let frontier_key (o : Explore.pareto_outcome) =
  List.map
    (fun p -> ((Nd.payload p).Explore.budgets, Nd.objectives p))
    (Nd.to_list o.Explore.frontier)

let sweep_key (pts : Explore.sweep_point list) =
  List.map
    (fun (p : Explore.sweep_point) ->
      let r = p.Explore.point_result in
      ( p.Explore.onchip_bytes,
        r.Explore.after_assign.Cost.total_cycles,
        r.Explore.after_te.Cost.total_cycles,
        r.Explore.after_te.Cost.total_energy_pj ))
    pts

type app_run = {
  outcome : Explore.pareto_outcome;
  sweep : Explore.sweep_point list;
  latencies : float list;
  solved_cycles : int;  (** after-TE cycles of every point solved *)
}

let explore ~jobs ?on_point a =
  let t0 = Measure.now () in
  let outcome = Explore.pareto ~jobs ?on_point ~axes:a.axes a.program in
  let t1 = Measure.now () in
  let sweep = Explore.sweep ~jobs ~sizes:a.sizes a.program in
  let t2 = Measure.now () in
  (outcome, sweep, [ t1 -. t0; t2 -. t1 ])

let round apps () =
  List.map
    (fun a ->
      let cycles = Atomic.make 0 in
      let on_point (p : Explore.pareto_point) =
        ignore
          (Atomic.fetch_and_add cycles
             p.Explore.point_result.Explore.after_te.Cost.total_cycles
            : int)
      in
      let outcome, sweep, latencies = explore ~jobs:Measure.jobs ~on_point a in
      let sweep_cycles =
        List.fold_left
          (fun acc (p : Explore.sweep_point) ->
            acc + p.Explore.point_result.Explore.after_te.Cost.total_cycles)
          0 sweep
      in
      { outcome; sweep; latencies; solved_cycles = Atomic.get cycles + sweep_cycles })
    apps

(* The jobs-1 reference: the frontier and sweep every round must
   reproduce, each solution checked by the independent verifier, and
   the budget vectors a sequential branch-and-bound evaluates. *)
type reference = {
  frontier : (int list * float array) list;
  sweep_k : (int * int * int * float) list;
  solutions : Explore.result list;
  unverified : int;
  evaluated : int list list;
  pruned : int;
}

let reference apps =
  List.map
    (fun a ->
      let evaluated = ref [] in
      let on_point (p : Explore.pareto_point) = evaluated := p.Explore.budgets :: !evaluated in
      let outcome, sweep, _ = explore ~jobs:1 ~on_point a in
      let solutions =
        List.map
          (fun p -> (Nd.payload p).Explore.point_result)
          (Nd.to_list outcome.Explore.frontier)
        @ List.map (fun (p : Explore.sweep_point) -> p.Explore.point_result) sweep
      in
      {
        frontier = frontier_key outcome;
        sweep_k = sweep_key sweep;
        solutions;
        unverified =
          List.length (List.filter (fun r -> not (Pipeline.verified r)) solutions);
        evaluated = List.rev !evaluated;
        pruned = outcome.Explore.stats.Explore.pruned;
      })
    apps

(* Points of [a] whose output in [r] is wrong: the whole app when the
   frontier or the sweep differs from the reference, plus solutions the
   verifier rejects. *)
let failed_points a (ref_ : reference) (r : app_run) =
  let mismatch =
    frontier_key r.outcome <> ref_.frontier
    || sweep_key r.sweep <> ref_.sweep_k
    || r.outcome.Explore.partial
  in
  if mismatch then points a else ref_.unverified

(* The traced decomposition of one round on one domain: per app, the
   pareto call's reuse precompute and bound tests, then the full flow on
   every vector a sequential search evaluates; the sweep's precompute
   and its points. Results must equal the reference. *)
let replay tr apps refs =
  let totals = Pipeline.totals () in
  let config = Assign.default_config in
  let ok = ref true in
  List.iteri
    (fun i (a, (ref_ : reference)) ->
      Measure.set_op tr i;
      let reuse =
        Measure.span tr "core.mapping.precompute" (fun () -> Mapping.precompute a.program)
      in
      List.iter
        (fun budgets ->
          let h = Presets.multi_level ~level_bytes:budgets () in
          ignore
            (Measure.span tr "core.cost.lower_bound" (fun () ->
                 Cost.lower_bound ~infos:reuse.Mapping.infos a.program h)
              : int * float))
        (Presets.budget_grid ~axes:a.axes);
      let solved =
        List.map
          (fun budgets ->
            let h = Presets.multi_level ~level_bytes:budgets () in
            (budgets, Pipeline.run tr totals ~config ~search:Explore.Greedy ~reuse a.program h))
          ref_.evaluated
      in
      List.iter
        (fun (budgets, objectives) ->
          match List.assoc_opt budgets solved with
          | Some r when Explore.pareto_objectives { Explore.budgets; point_result = r } = objectives -> ()
          | _ -> ok := false)
        ref_.frontier;
      let reuse =
        Measure.span tr "core.mapping.precompute" (fun () -> Mapping.precompute a.program)
      in
      let sweep =
        List.map
          (fun onchip_bytes ->
            let h = Presets.two_level ~onchip_bytes () in
            {
              Explore.onchip_bytes;
              point_result = Pipeline.run tr totals ~config ~search:Explore.Greedy ~reuse a.program h;
            })
          a.sizes
      in
      if sweep_key sweep <> ref_.sweep_k then ok := false)
    (List.combine apps refs);
  (!ok, totals)

let run ~seed ~seconds ~trace =
  let apps, setup_s = Measure.timed_setup (setup ~seed) in
  let refs = reference apps in
  let per_round = List.fold_left (fun acc a -> acc + points a) 0 apps in
  let attempted = ref 0 and failed = ref 0 in
  (* per timed round, newest first *)
  let solves = ref [] and solved_cycles = ref [] and latencies = ref [] in
  let after runs =
    let n = ref 0 and cycles = ref 0 in
    List.iter2
      (fun (a, ref_) r ->
        attempted := !attempted + points a;
        failed := !failed + failed_points a ref_ r;
        n := !n + r.outcome.Explore.stats.Explore.evaluated + List.length r.sweep;
        cycles := !cycles + r.solved_cycles)
      (List.combine apps refs) runs;
    latencies := List.concat_map (fun r -> r.latencies) runs :: !latencies;
    solves := float_of_int !n :: !solves;
    solved_cycles := float_of_int !cycles :: !solved_cycles
  in
  let seconds = if trace then seconds /. 2. else seconds in
  let walls, gc =
    Measure.gc_delta (fun () ->
        Measure.timed_rounds ~seconds ~round:(round apps) ~after)
  in
  let rounds = List.length walls in
  let rate work = Measure.median_rate (List.rev work) walls in
  let m = Measure.metrics () in
  let solutions = List.concat_map (fun r -> r.solutions) refs in
  let ok = ref (!failed = 0) in
  if not trace then begin
    Measure.set m "setup_s" setup_s;
    Measure.set m "points_per_s" (float_of_int per_round /. Measure.median walls);
    Measure.set m "solves_per_s" (rate !solves);
    Measure.set m "latency_p50_ms" (1e3 *. Measure.round_percentile 0.5 !latencies);
    Measure.set m "latency_p90_ms" (1e3 *. Measure.round_percentile 0.9 !latencies);
    Measure.set m "sim_mcycles_per_s" (rate !solved_cycles /. 1e6);
    Measure.set m "cycles_ratio" (Measure.geomean (List.map Pipeline.cycles_ratio solutions));
    Measure.set m "energy_ratio" (Measure.geomean (List.map Pipeline.energy_ratio solutions))
  end
  else begin
    let per_op v = v /. float_of_int (rounds * per_round) in
    Measure.set m "gc.minor_words_per_op" (per_op gc.Measure.minor_words);
    Measure.set m "gc.minor_collections_per_op" (per_op (float_of_int gc.Measure.minor_collections));
    let _, sequential_wall =
      Measure.wall (fun () -> List.iter (fun a -> ignore (explore ~jobs:1 a)) apps)
    in
    Measure.set m "util.domain_pool.efficiency"
      (sequential_wall /. (Measure.median walls *. float_of_int Measure.jobs));
    let grid = List.fold_left (fun acc a -> acc + grid_points a) 0 apps in
    Measure.set m "core.explore.pareto.prune_ratio"
      (float_of_int (List.fold_left (fun acc r -> acc + r.pruned) 0 refs) /. float_of_int grid);
    let overhead, tr, traced_wall, (replay_ok, totals) =
      Measure.traced_replay ~pairs:1 (fun tr -> replay tr apps refs)
    in
    if not replay_ok then ok := false;
    Measure.set m "trace.overhead_ratio" overhead;
    Measure.layer_shares m tr ~wall:traced_wall;
    Pipeline.set_search_metrics m totals;
    Pipeline.isolated tr ~config:Assign.default_config ~reps:3
      (List.map
         (fun (d : Mhla_apps.Defs.t) ->
           let program = Lazy.force d.Mhla_apps.Defs.program in
           ( program,
             Presets.two_level ~onchip_bytes:d.Mhla_apps.Defs.onchip_bytes (),
             Mapping.precompute program ))
         Mhla_apps.Registry.all);
    Measure.span_metrics m tr;
    Measure.write_trace tr (Printf.sprintf "explore-apps-%d" seed)
  end;
  { Measure.attempted = !attempted; failed = !failed; correct = !ok; metrics = m }
