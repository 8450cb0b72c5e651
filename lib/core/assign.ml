module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Hierarchy = Mhla_arch.Hierarchy
module Telemetry = Mhla_obs.Telemetry

type config = {
  objective : Cost.objective;
  transfer_mode : Candidate.transfer_mode;
  policy : Mhla_lifetime.Occupancy.policy;
  allow_array_promotion : bool;
  max_chain_length : int;
  cc_filter : (Analysis.info -> Candidate.t -> bool) option;
}

let default_config =
  {
    objective = Cost.Energy_delay;
    transfer_mode = Candidate.Delta;
    policy = Mhla_lifetime.Occupancy.In_place;
    allow_array_promotion = true;
    max_chain_length = 2;
    cc_filter = None;
  }

type step = { description : string; gain : float; objective_after : float }

type result = {
  mapping : Mapping.t;
  breakdown : Cost.breakdown;
  steps : step list;
  evaluations : int;
  full_evaluations : int;
  cache_hits : int;
  cache_misses : int;
}

(* Copy chains: pick a strictly-decreasing-level subsequence of the
   useful candidates and a strictly-increasing run of on-chip layers.
   The innermost link (first) serves the accesses. *)
let chains config (m : Mapping.t) (info : Analysis.info) =
  let on_chip = Hierarchy.on_chip_levels m.Mapping.hierarchy in
  let candidates = Analysis.useful_candidates info in
  (* The CC-selection policy hook: a filter only narrows the chain
     space ([Direct] always survives in [alternatives]), so any filter
     is safe — at worst the search degenerates to the out-of-the-box
     mapping. [None] (the default) keeps every useful candidate and is
     bit-identical to the pre-policy behaviour. *)
  let candidates =
    match config.cc_filter with
    | None -> candidates
    | Some keep -> List.filter (keep info) candidates
  in
  let depth_cap = min config.max_chain_length (List.length on_chip) in
  (* Build chains inner-to-outer: each extension picks a candidate of
     strictly lower level and a strictly higher layer. *)
  let rec extend chain level_floor layer_floor length acc =
    let acc = if chain = [] then acc else List.rev chain :: acc in
    if length >= depth_cap then acc
    else
      List.fold_left
        (fun acc (c : Candidate.t) ->
          if chain <> [] && c.Candidate.level >= level_floor then acc
          else
            List.fold_left
              (fun acc layer ->
                if layer < layer_floor then acc
                else
                  extend
                    ({ Mapping.candidate = c; layer } :: chain)
                    c.Candidate.level (layer + 1) (length + 1) acc)
              acc on_chip)
        acc candidates
  in
  (* [extend] accumulates the reversed prefixes; rebuild order so the
     innermost (deepest level) link is first, as Mapping expects. *)
  let raw = extend [] max_int 0 0 [] in
  let orient links =
    List.sort
      (fun (a : Mapping.chain_link) b ->
        compare b.Mapping.candidate.Candidate.level
          a.Mapping.candidate.Candidate.level)
      links
  in
  List.rev_map (fun links -> Mapping.Chain (orient links)) raw

let alternatives config m info = Mapping.Direct :: chains config m info

type move = Engine.move =
  | Set_placement of Analysis.access_ref * Mapping.placement
  | Set_array of string * int option

let describe_move = function
  | Set_placement (r, Mapping.Direct) ->
    Fmt.str "%a -> direct" Analysis.pp_access_ref r
  | Set_placement (r, Mapping.Chain links) ->
    let pp_link ppf (l : Mapping.chain_link) =
      Fmt.pf ppf "%s@@L%d" l.Mapping.candidate.Candidate.id l.Mapping.layer
    in
    Fmt.str "%a -> %a" Analysis.pp_access_ref r
      Fmt.(list ~sep:(any "<-") pp_link)
      links
  | Set_array (a, Some l) -> Printf.sprintf "array %s -> L%d" a l
  | Set_array (a, None) -> Printf.sprintf "array %s -> off-chip" a

let apply_move m = function
  | Set_placement (r, p) -> Mapping.with_placement m r p
  | Set_array (a, l) -> Mapping.with_array_layer m ~array:a ~layer:l

let placement_moves_of (m : Mapping.t) alts =
  List.concat_map
    (fun ((info : Analysis.info), placements) ->
      let current = Mapping.placement_of m info.Analysis.ref_ in
      List.filter_map
        (fun p ->
          if p = current then None
          else Some (Set_placement (info.Analysis.ref_, p)))
        placements)
    alts

let array_moves config (m : Mapping.t) =
  if not config.allow_array_promotion then []
  else
    let on_chip = Hierarchy.on_chip_levels m.Mapping.hierarchy in
    List.concat_map
      (fun array ->
        let current =
          let level = Mapping.array_layer m array in
          if level = Hierarchy.main_memory_level m.Mapping.hierarchy then
            None
          else Some level
        in
        List.filter_map
          (fun target ->
            if target = current then None
            else Some (Set_array (array, target)))
          (None :: List.map (fun l -> Some l) on_chip))
      (Mhla_ir.Program.array_names m.Mapping.program)

(* The placement alternatives of an access depend only on the config
   and the hierarchy's on-chip levels, never on the current placements
   — so the searches compute them once and reuse the {e physically
   same} values every round, which turns the engine's per-entry
   (placement, home) memo into pointer-compare hits. [moves] builds
   structurally identical lists. *)
let all_alternatives config (m : Mapping.t) =
  List.map
    (fun (info : Analysis.info) -> (info, alternatives config m info))
    m.Mapping.infos

let moves_with ~alts config m = placement_moves_of m alts @ array_moves config m

let moves config (m : Mapping.t) =
  moves_with ~alts:(all_alternatives config m) config m

(* The searches' alternatives, each validated once through
   [Mapping.with_placement] so no candidate move has to be. *)
let checked_alternatives config (m : Mapping.t) =
  let alts = all_alternatives config m in
  List.iter
    (fun ((info : Analysis.info), placements) ->
      List.iter
        (fun p -> ignore (Mapping.with_placement m info.Analysis.ref_ p))
        placements)
    alts;
  alts

let feasible config m = Mapping.occupancy_ok ~policy:config.policy m

(* Strict-improvement threshold: relative 1e-9 guards against float
   noise causing non-termination. *)
let improves ~current ~candidate =
  candidate < current -. (1e-9 *. (Float.abs current +. 1.))

(* What a search needs from the objective and the capacity budget.
   Each search runs one loop over an evaluator, built one of two ways
   selected by [?oracle]: the engine evaluator asks the incremental
   {!Engine} ([fits], then [probe]) and builds a mapping only on
   commit; the oracle evaluator applies the move, re-runs [feasible]
   and [Cost.evaluate] from scratch and is the reference the tests
   compare against. Both answer bit-identically, so both take
   identical decisions and return identical mappings. *)
type evaluator = {
  start : unit -> float;  (* objective of the start mapping *)
  probe : move -> float option;
      (* objective after [move] from the current position; [None] when
         the moved mapping is over capacity *)
  commit : move -> unit;  (* advance the evaluator's position *)
  mapping : unit -> Mapping.t;  (* the current position *)
  from_scratch : bool;  (* every evaluation is a full [Cost.evaluate] *)
  cache : unit -> int * int;  (* engine contributions reused, recomputed *)
}

let objective config m = Cost.scalar config.objective (Cost.evaluate m)

let oracle_evaluator config start =
  let current = ref start in
  {
    start = (fun () -> objective config start);
    probe =
      (fun move ->
        let next = apply_move !current move in
        if feasible config next then Some (objective config next) else None);
    commit = (fun move -> current := apply_move !current move);
    mapping = (fun () -> !current);
    from_scratch = true;
    cache = (fun () -> (0, 0));
  }

let engine_evaluator ~telemetry config start =
  let engine =
    Engine.create ~telemetry ~policy:config.policy
      ~objective:config.objective start
  in
  {
    start = (fun () -> Engine.objective_value engine);
    probe =
      (fun move ->
        if Engine.fits engine move then Some (Engine.probe engine move)
        else None);
    commit = Engine.commit engine;
    mapping = (fun () -> Engine.mapping engine);
    from_scratch = false;
    cache =
      (fun () ->
        let s = Engine.stats engine in
        (s.Engine.contribs_reused, s.Engine.contribs_recomputed));
  }

let evaluator ~oracle ~telemetry config start =
  if oracle then oracle_evaluator config start
  else engine_evaluator ~telemetry config start

let result ev ~evaluations mapping steps =
  let cache_hits, cache_misses = ev.cache () in
  {
    mapping;
    breakdown = Cost.evaluate mapping;
    steps;
    evaluations;
    full_evaluations = (if ev.from_scratch then evaluations else 0);
    cache_hits;
    cache_misses;
  }

let no_checkpoint () = ()

let no_commit (_ : move) = ()

let greedy ?(config = default_config) ?(oracle = false)
    ?(first_improvement = false) ?(telemetry = Telemetry.noop) ?reuse
    ?(checkpoint = no_checkpoint) ?(on_commit = no_commit) program hierarchy =
  Telemetry.span telemetry ~cat:"assign" "assign.greedy"
    ~args:(fun () ->
      [ ("oracle", Telemetry.Bool oracle);
        ("first_improvement", Telemetry.Bool first_improvement);
        ( "objective",
          Telemetry.Str (Fmt.str "%a" Cost.pp_objective config.objective) )
      ])
  @@ fun () ->
  let start =
    Mapping.direct ~transfer_mode:config.transfer_mode ?reuse program
      hierarchy
  in
  let ev = evaluator ~oracle ~telemetry config start in
  let alts = checked_alternatives config start in
  let evaluations = ref 1 (* the start value *) in
  (* [Some (move, value)] when [move] is feasible from the current
     position and improves on [current]. *)
  let candidate current move =
    match ev.probe move with
    | None -> None
    | Some value ->
      incr evaluations;
      if improves ~current ~candidate:value then Some (move, value) else None
  in
  (* Steepest descent keeps the best improving move of the round;
     first-improving descent commits the first one in the
     deterministic move order (fewer probes per round, more rounds). *)
  let select current ms =
    if first_improvement then List.find_map (candidate current) ms
    else
      List.fold_left
        (fun best move ->
          match (best, candidate current move) with
          | Some (_, best_value), Some (_, value) when value >= best_value ->
            best
          | best, None -> best
          | _, better -> better)
        None ms
  in
  let rec descend current steps =
    checkpoint ();
    match select current (moves_with ~alts config (ev.mapping ())) with
    | None -> List.rev steps
    | Some (move, value) ->
      let step =
        {
          description = describe_move move;
          gain = current -. value;
          objective_after = value;
        }
      in
      Telemetry.instant telemetry ~cat:"assign" "greedy.step"
        ~args:(fun () ->
          [ ("move", Telemetry.Str step.description);
            ("gain", Telemetry.Float step.gain);
            ("objective_before", Telemetry.Float current);
            ("objective_after", Telemetry.Float value) ]);
      ev.commit move;
      on_commit move;
      descend value (step :: steps)
  in
  let steps = descend (ev.start ()) [] in
  result ev ~evaluations:!evaluations (ev.mapping ()) steps

let simulated_annealing ?(config = default_config) ?(oracle = false)
    ?(telemetry = Telemetry.noop) ?reuse ?(checkpoint = no_checkpoint)
    ?(on_commit = no_commit) ?(seed = 42L) ?(iterations = 4000) program
    hierarchy =
  Telemetry.span telemetry ~cat:"assign" "assign.anneal"
    ~args:(fun () ->
      [ ("oracle", Telemetry.Bool oracle);
        ("seed", Telemetry.Str (Int64.to_string seed));
        ("iterations", Telemetry.Int iterations) ])
  @@ fun () ->
  let prng = Mhla_util.Prng.create ~seed in
  let start =
    Mapping.direct ~transfer_mode:config.transfer_mode ?reuse program
      hierarchy
  in
  let ev = evaluator ~oracle ~telemetry config start in
  let evaluations = ref 1 (* the start value *) in
  let start_value = ev.start () in
  let current_value = ref start_value in
  let best = ref start in
  let best_value = ref start_value in
  let steps = ref [] in
  (* Geometric cooling from 5% of the initial objective down to ~1e-4
     of it: early moves roam, late moves only refine. *)
  let t0 = 0.05 *. start_value in
  let t_end = 1e-4 *. start_value in
  let decay =
    if iterations <= 1 then 1.
    else (t_end /. t0) ** (1. /. float_of_int (iterations - 1))
  in
  let temperature = ref t0 in
  let alts = checked_alternatives config start in
  for iter = 1 to iterations do
    checkpoint ();
    (match moves_with ~alts config (ev.mapping ()) with
    | [] -> ()
    | all_moves -> (
      let move = Mhla_util.Prng.pick prng all_moves in
      match ev.probe move with
      | None -> ()
      | Some value ->
        incr evaluations;
        let delta = value -. !current_value in
        let accept =
          delta < 0.
          || Mhla_util.Prng.float prng < exp (-.delta /. !temperature)
        in
        Telemetry.instant telemetry ~cat:"assign"
          (if accept then "anneal.accept" else "anneal.reject")
          ~args:(fun () ->
            [ ("iteration", Telemetry.Int iter);
              ("temperature", Telemetry.Float !temperature);
              ("delta", Telemetry.Float delta);
              ("objective", Telemetry.Float value) ]);
        if accept then begin
          ev.commit move;
          on_commit move;
          current_value := value;
          if value < !best_value then begin
            let improvement = !best_value -. value in
            best := ev.mapping ();
            best_value := value;
            Telemetry.instant telemetry ~cat:"assign" "anneal.best"
              ~args:(fun () ->
                [ ("iteration", Telemetry.Int iter);
                  ("move", Telemetry.Str (describe_move move));
                  ("objective", Telemetry.Float value) ]);
            steps :=
              {
                description = describe_move move;
                gain = improvement;
                objective_after = value;
              }
              :: !steps
          end
        end));
    temperature := !temperature *. decay
  done;
  result ev ~evaluations:!evaluations !best (List.rev !steps)

let exhaustive ?(config = default_config) ?reuse ~max_states program
    hierarchy =
  let start =
    Mapping.direct ~transfer_mode:config.transfer_mode ?reuse program
      hierarchy
  in
  let alts =
    List.map
      (fun (info : Analysis.info) ->
        (info.Analysis.ref_, alternatives config start info))
      start.Mapping.infos
  in
  let states =
    List.fold_left (fun acc (_, ps) -> acc * List.length ps) 1 alts
  in
  if states > max_states then
    Error
      (Printf.sprintf "exhaustive: %d states exceed the budget of %d" states
         max_states)
  else begin
    let evaluations = ref 0 in
    let best = ref None in
    let rec assign m = function
      | [] ->
        if feasible config m then begin
          incr evaluations;
          let value = objective config m in
          match !best with
          | Some (_, best_value) when best_value <= value -> ()
          | Some _ | None -> best := Some (m, value)
        end
      | (ref_, placements) :: rest ->
        List.iter
          (fun p -> assign (Mapping.with_placement m ref_ p) rest)
          placements
    in
    assign start alts;
    match !best with
    | None -> Error "exhaustive: no feasible mapping (capacity too small?)"
    | Some (mapping, _) ->
      Ok
        (result
           (oracle_evaluator config start)
           ~evaluations:!evaluations mapping [])
  end
