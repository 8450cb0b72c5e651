(* Tests for MHLA step 1: move generation, greedy descent, and the
   exhaustive baseline. *)

module Build = Mhla_ir.Build
module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Engine = Mhla_core.Engine
module Mapping = Mhla_core.Mapping
module Occupancy = Mhla_lifetime.Occupancy
module Presets = Mhla_arch.Presets

let conv ?(n = 16) () =
  let open Build in
  program "conv"
    ~arrays:
      [ array "image" [ n + 2; n + 2 ]; array "coeff" [ 3; 3 ];
        array "out" [ n; n ] ]
    [ loop "y" n
        [ loop "x" n
            [ loop "ky" 3
                [ loop "kx" 3
                    [ stmt "mac" ~work:4
                        [ rd "image" [ i "y" +$ i "ky"; i "x" +$ i "kx" ];
                          rd "coeff" [ i "ky"; i "kx" ];
                          wr "out" [ i "y"; i "x" ] ] ] ] ] ] ]

let cycles_config =
  { Assign.default_config with Assign.objective = Cost.Cycles }

(* --- alternatives ----------------------------------------------------- *)

let test_alternatives_include_direct () =
  let m = Mapping.direct (conv ()) (Presets.two_level ~onchip_bytes:1024 ()) in
  let info = List.hd m.Mapping.infos in
  let alts = Assign.alternatives Assign.default_config m info in
  Alcotest.(check bool) "Direct first" true (List.hd alts = Mapping.Direct);
  Alcotest.(check bool) "has chain placements" true (List.length alts > 1)

let test_alternatives_chains_are_valid () =
  (* Every generated chain must be accepted by Mapping's validator. *)
  let h = Presets.three_level ~l1_bytes:256 ~l2_bytes:4096 () in
  let m = Mapping.direct (conv ()) h in
  List.iter
    (fun (info : Analysis.info) ->
      List.iter
        (fun p -> ignore (Mapping.with_placement m info.Analysis.ref_ p))
        (Assign.alternatives Assign.default_config m info))
    m.Mapping.infos

let test_alternatives_respect_chain_cap () =
  let h = Presets.three_level ~l1_bytes:256 ~l2_bytes:4096 () in
  let m = Mapping.direct (conv ()) h in
  let info = List.hd m.Mapping.infos in
  let max_len config =
    List.fold_left
      (fun acc -> function
        | Mapping.Direct -> acc
        | Mapping.Chain links -> max acc (List.length links))
      0
      (Assign.alternatives config m info)
  in
  Alcotest.(check int) "cap 1" 1
    (max_len { Assign.default_config with Assign.max_chain_length = 1 });
  Alcotest.(check int) "cap 2" 2
    (max_len { Assign.default_config with Assign.max_chain_length = 2 })

(* --- greedy ----------------------------------------------------------- *)

let test_greedy_improves_and_is_feasible () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let baseline = Cost.evaluate (Mapping.direct program h) in
  let result = Assign.greedy ~config:cycles_config program h in
  Alcotest.(check bool) "no worse than baseline" true
    (result.Assign.breakdown.Cost.total_cycles <= baseline.Cost.total_cycles);
  Alcotest.(check bool) "strictly better here" true
    (result.Assign.breakdown.Cost.total_cycles < baseline.Cost.total_cycles);
  Alcotest.(check bool) "feasible" true
    (Mapping.occupancy_ok result.Assign.mapping);
  Alcotest.(check bool) "steps recorded" true
    (List.length result.Assign.steps > 0);
  Alcotest.(check bool) "evaluations counted" true
    (result.Assign.evaluations > 0)

let test_greedy_steps_monotone () =
  let result =
    Assign.greedy ~config:cycles_config (conv ())
      (Presets.two_level ~onchip_bytes:512 ())
  in
  let rec decreasing = function
    | (a : Assign.step) :: (b :: _ as rest) ->
      a.Assign.objective_after > b.Assign.objective_after && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "objective strictly decreases" true
    (decreasing result.Assign.steps);
  List.iter
    (fun (s : Assign.step) ->
      Alcotest.(check bool) "positive gains" true (s.Assign.gain > 0.))
    result.Assign.steps

let test_greedy_deterministic () =
  let run () =
    let r =
      Assign.greedy (conv ()) (Presets.two_level ~onchip_bytes:512 ())
    in
    ( r.Assign.breakdown.Cost.total_cycles,
      List.map (fun (s : Assign.step) -> s.Assign.description) r.Assign.steps )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same outcome" true (a = b)

let word_conv () =
  (* Like [conv] but on 4-byte elements, so even a single-element
     buffer needs 4 bytes. *)
  let open Build in
  program "wconv"
    ~arrays:
      [ array ~element_bytes:4 "image" [ 18; 18 ];
        array ~element_bytes:4 "coeff" [ 3; 3 ];
        array ~element_bytes:4 "out" [ 16; 16 ] ]
    [ loop "y" 16
        [ loop "x" 16
            [ loop "ky" 3
                [ loop "kx" 3
                    [ stmt "mac" ~work:4
                        [ rd "image" [ i "y" +$ i "ky"; i "x" +$ i "kx" ];
                          rd "coeff" [ i "ky"; i "kx" ];
                          wr "out" [ i "y"; i "x" ] ] ] ] ] ] ]

let test_greedy_tiny_budget_stays_direct () =
  (* With a 1-byte scratchpad nothing fits (elements are 4 bytes);
     greedy must return the out-of-the-box mapping. *)
  let program = word_conv () in
  let h = Presets.two_level ~onchip_bytes:1 () in
  let result = Assign.greedy ~config:cycles_config program h in
  let baseline = Cost.evaluate (Mapping.direct program h) in
  Alcotest.(check int) "unchanged cost"
    baseline.Cost.total_cycles result.Assign.breakdown.Cost.total_cycles;
  Alcotest.(check int) "no steps" 0 (List.length result.Assign.steps)

let test_greedy_no_promotion_config () =
  let config = { cycles_config with Assign.allow_array_promotion = false } in
  let result =
    Assign.greedy ~config (conv ()) (Presets.two_level ~onchip_bytes:512 ())
  in
  Alcotest.(check (list (pair string int))) "no arrays promoted" []
    result.Assign.mapping.Mapping.array_layers

let test_greedy_energy_objective () =
  let config = { cycles_config with Assign.objective = Cost.Energy } in
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let baseline = Cost.evaluate (Mapping.direct program h) in
  let result = Assign.greedy ~config program h in
  Alcotest.(check bool) "energy no worse" true
    (result.Assign.breakdown.Cost.total_energy_pj
    <= baseline.Cost.total_energy_pj)

let test_greedy_sum_policy_feasible () =
  let config = { cycles_config with Assign.policy = Occupancy.Sum } in
  let result =
    Assign.greedy ~config (conv ()) (Presets.two_level ~onchip_bytes:512 ())
  in
  Alcotest.(check bool) "feasible under Sum" true
    (Mapping.occupancy_ok ~policy:Occupancy.Sum result.Assign.mapping)

(* --- exhaustive ------------------------------------------------------- *)

let small_conv () = conv ~n:4 ()

let test_exhaustive_matches_or_beats_greedy () =
  let program = small_conv () in
  let h = Presets.two_level ~onchip_bytes:128 () in
  let config =
    { cycles_config with Assign.allow_array_promotion = false }
  in
  let greedy = Assign.greedy ~config program h in
  match Assign.exhaustive ~config ~max_states:1_000_000 program h with
  | Error msg -> Alcotest.fail msg
  | Ok optimal ->
    Alcotest.(check bool) "optimal <= greedy" true
      (optimal.Assign.breakdown.Cost.total_cycles
      <= greedy.Assign.breakdown.Cost.total_cycles);
    Alcotest.(check bool) "greedy within 10% here" true
      (float_of_int greedy.Assign.breakdown.Cost.total_cycles
      <= 1.1 *. float_of_int optimal.Assign.breakdown.Cost.total_cycles)

let test_exhaustive_budget_guard () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  match Assign.exhaustive ~max_states:10 program h with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the state budget to trip"

let test_exhaustive_feasibility () =
  let program = small_conv () in
  let h = Presets.two_level ~onchip_bytes:64 () in
  let config =
    { cycles_config with Assign.allow_array_promotion = false }
  in
  match Assign.exhaustive ~config ~max_states:1_000_000 program h with
  | Error msg -> Alcotest.fail msg
  | Ok result ->
    Alcotest.(check bool) "result fits the 64-byte budget" true
      (Mapping.occupancy_ok result.Assign.mapping)

(* --- simulated annealing ----------------------------------------------- *)

let test_anneal_deterministic () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let run () =
    (Assign.simulated_annealing ~seed:7L ~iterations:500 program h)
      .Assign.breakdown.Cost.total_cycles
  in
  Alcotest.(check int) "same seed, same result" (run ()) (run ())

let test_anneal_feasible_and_never_worse () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let baseline = Cost.evaluate (Mapping.direct program h) in
  let config = cycles_config in
  let sa = Assign.simulated_annealing ~config ~iterations:800 program h in
  Alcotest.(check bool) "feasible" true (Mapping.occupancy_ok sa.Assign.mapping);
  Alcotest.(check bool) "never worse than direct" true
    (sa.Assign.breakdown.Cost.total_cycles <= baseline.Cost.total_cycles)

let test_anneal_competitive_with_greedy () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let config = cycles_config in
  let greedy = Assign.greedy ~config program h in
  let sa = Assign.simulated_annealing ~config ~iterations:3000 program h in
  (* Annealing must land within 20% of steepest descent here. *)
  Alcotest.(check bool) "competitive" true
    (float_of_int sa.Assign.breakdown.Cost.total_cycles
    <= 1.2 *. float_of_int greedy.Assign.breakdown.Cost.total_cycles)

let test_anneal_escapes_known_local_optimum () =
  (* voice_compression at 3 KiB: documented case where steepest descent
     gets stuck (EXT-SEARCH). *)
  let app = Mhla_apps.Registry.find_exn "voice_compression" in
  let program = Lazy.force app.Mhla_apps.Defs.program in
  let h = Presets.two_level ~onchip_bytes:3072 () in
  let greedy = Assign.greedy program h in
  let sa = Assign.simulated_annealing program h in
  Alcotest.(check bool) "annealing strictly better here" true
    (sa.Assign.breakdown.Cost.total_cycles
    < greedy.Assign.breakdown.Cost.total_cycles)

(* --- incremental engine vs oracle -------------------------------------- *)

(* Everything that could reveal a divergent search decision: the chosen
   placements in infos order, the promoted arrays, every applied step
   (description, gain, objective), and the final cost breakdown. *)
let fingerprint (r : Assign.result) =
  let m = r.Assign.mapping in
  ( List.map
      (fun (info : Analysis.info) ->
        Mapping.placement_of m info.Analysis.ref_)
      m.Mapping.infos,
    m.Mapping.array_layers,
    r.Assign.steps,
    r.Assign.breakdown )

(* A search run with an [on_commit] recorder: its fingerprint plus the
   sequence of moves it reported committing, in order. *)
let observed search =
  let committed = ref [] in
  let r = search ~on_commit:(fun move -> committed := move :: !committed) in
  (r, (fingerprint r, List.rev !committed))

(* Steepest and first-improving descent, each through both evaluators. *)
let greedy_flavours ?config program h =
  List.map
    (fun first_improvement ->
      let run oracle =
        observed (fun ~on_commit ->
            Assign.greedy ?config ~oracle ~first_improvement ~on_commit
              program h)
      in
      (first_improvement, run false, run true))
    [ false; true ]

let descent_label first_improvement =
  if first_improvement then "first-improving" else "steepest"

(* The platforms and sizing policies the engine-vs-oracle tests cover:
   one scratchpad at the bundled budget and two on-chip levels, each
   under in-place and summed sizing. *)
let oracle_platforms budget =
  [ ("two-level", Presets.two_level ~onchip_bytes:budget ());
    ( "three-level",
      Presets.three_level ~l1_bytes:(max 1 (budget / 4)) ~l2_bytes:budget () )
  ]

let policies = [ ("in-place", Occupancy.In_place); ("sum", Occupancy.Sum) ]

let sizing_configs base =
  List.map (fun (name, policy) -> (name, { base with Assign.policy })) policies

let test_greedy_engine_equals_oracle_on_apps () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.small in
      List.iter
        (fun (hname, h) ->
          List.iter
            (fun (pname, config) ->
              List.iter
                (fun (first_improvement, (engine, seen_e), (oracle, seen_o)) ->
                  let label =
                    Printf.sprintf "%s %s %s %s" app.Mhla_apps.Defs.name hname
                      pname
                      (descent_label first_improvement)
                  in
                  Alcotest.(check bool) (label ^ ": identical result") true
                    (seen_e = seen_o);
                  Alcotest.(check int)
                    (label ^ ": same evaluation count")
                    oracle.Assign.evaluations engine.Assign.evaluations)
                (greedy_flavours ~config program h))
            (sizing_configs Assign.default_config))
        (oracle_platforms app.Mhla_apps.Defs.onchip_bytes))
    Mhla_apps.Registry.all

let test_greedy_engine_equals_oracle_on_kernel () =
  List.iter
    (fun budget ->
      let program = conv () in
      let h = Presets.two_level ~onchip_bytes:budget () in
      List.iter
        (fun config ->
          List.iter
            (fun (first_improvement, (_, seen_e), (_, seen_o)) ->
              Alcotest.(check bool)
                (Printf.sprintf "budget %d %s: identical result" budget
                   (descent_label first_improvement))
                true (seen_e = seen_o))
            (greedy_flavours ~config program h))
        [ Assign.default_config; cycles_config ])
    [ 64; 512; 4096 ]

let test_anneal_engine_equals_oracle () =
  let program = conv () in
  List.iter
    (fun (budget, seed) ->
      List.iter
        (fun (hname, h) ->
          List.iter
            (fun (pname, config) ->
              let run oracle =
                snd
                  (observed (fun ~on_commit ->
                       Assign.simulated_annealing ~config ~oracle ~seed
                         ~iterations:600 ~on_commit program h))
              in
              Alcotest.(check bool)
                (Printf.sprintf "budget %d seed %Ld %s %s: identical result"
                   budget seed hname pname)
                true
                (run false = run true))
            (sizing_configs Assign.default_config))
        (oracle_platforms budget))
    [ (128, 7L); (512, 7L); (512, 1234L) ]

let test_result_evaluation_accounting () =
  let program = conv () in
  let h = Presets.two_level ~onchip_bytes:512 () in
  let engine = Assign.greedy program h in
  let oracle = Assign.greedy ~oracle:true program h in
  Alcotest.(check int) "oracle: every evaluation is full"
    oracle.Assign.evaluations oracle.Assign.full_evaluations;
  Alcotest.(check int) "oracle: no cache traffic" 0
    (oracle.Assign.cache_hits + oracle.Assign.cache_misses);
  Alcotest.(check int) "engine: no full evaluations" 0
    engine.Assign.full_evaluations;
  Alcotest.(check bool) "engine: cache exercised" true
    (engine.Assign.cache_hits > 0 && engine.Assign.cache_misses > 0);
  Alcotest.(check bool) "engine: hits dominate on repeated probing" true
    (engine.Assign.cache_hits > engine.Assign.cache_misses)

(* --- incremental feasibility vs the from-scratch oracle ----------------- *)

(* [Engine.fits] answers over one hierarchy, so each test can show it
   exercised both verdicts. *)
type tally = { mutable accepted : int; mutable rejected : int }

let new_tally () = { accepted = 0; rejected = 0 }

(* At the engine's position, every move the searches could offer:
   [Engine.fits] must equal [Assign.feasible] of the moved mapping. *)
let check_every_move ~label ~tally config engine =
  let m = Engine.mapping engine in
  List.iter
    (fun move ->
      let want = Assign.feasible config (Assign.apply_move m move) in
      let got = Engine.fits engine move in
      if got <> want then
        Alcotest.failf "%s: fits %b <> feasible %b for %s" label got want
          (Assign.describe_move move);
      if got then tally.accepted <- tally.accepted + 1
      else tally.rejected <- tally.rejected + 1)
    (Assign.moves config m)

let engine_on config m =
  Engine.create ~policy:config.Assign.policy ~objective:config.Assign.objective
    m

(* Replay a search's committed moves on a fresh engine, checking every
   move at every position the search visited. *)
let check_replay ~label ~tally config start committed =
  let engine = engine_on config start in
  check_every_move ~label ~tally config engine;
  List.iter
    (fun move ->
      Engine.commit engine move;
      check_every_move ~label ~tally config engine)
    committed

let recorded search =
  let committed = ref [] in
  ignore
    (search ~on_commit:(fun move -> committed := move :: !committed)
      : Assign.result);
  List.rev !committed

let for_apps_and_policies f =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.small in
      let reuse = Mapping.precompute program in
      List.iter
        (fun (pname, config) ->
          f ~label:(Printf.sprintf "%s %s" app.Mhla_apps.Defs.name pname)
            ~config ~reuse program app.Mhla_apps.Defs.onchip_bytes)
        (sizing_configs Assign.default_config))
    Mhla_apps.Registry.all

(* Greedy rounds and a seeded annealing walk on [h], replayed move by
   move against the oracle. *)
let check_searches ~label ~tally ~config ~reuse program h =
  let start =
    Mapping.direct ~transfer_mode:config.Assign.transfer_mode ~reuse program
      h
  in
  check_replay ~label:(label ^ " greedy") ~tally config start
    (recorded (fun ~on_commit ->
         Assign.greedy ~config ~reuse ~on_commit program h));
  check_replay ~label:(label ^ " anneal") ~tally config start
    (recorded (fun ~on_commit ->
         Assign.simulated_annealing ~config ~reuse ~seed:11L ~iterations:150
           ~on_commit program h))

let check_both_verdicts name tally =
  Alcotest.(check bool) (name ^ ": some moves fit") true (tally.accepted > 0);
  Alcotest.(check bool) (name ^ ": some moves rejected") true
    (tally.rejected > 0)

let test_fits_two_level () =
  let tally = new_tally () in
  for_apps_and_policies (fun ~label ~config ~reuse program budget ->
      check_searches ~label ~tally ~config ~reuse program
        (Presets.two_level ~onchip_bytes:budget ()));
  check_both_verdicts "bundled budget" tally

(* Two on-chip levels, a quarter of the bundled budget over the full
   one: about a fifth of the candidate moves overflow one of them. *)
let tight_multi_level budget =
  Presets.multi_level ~level_bytes:[ max 1 (budget / 4); budget ] ()

let test_fits_tight_multi_level () =
  let tally = new_tally () in
  for_apps_and_policies (fun ~label ~config ~reuse program budget ->
      check_searches ~label ~tally ~config ~reuse program
        (tight_multi_level budget));
  check_both_verdicts "tight multi-level" tally;
  let share =
    float_of_int tally.rejected
    /. float_of_int (tally.accepted + tally.rejected)
  in
  Alcotest.(check bool)
    (Printf.sprintf "rejected share %.2f is substantial" share)
    true (share >= 0.1)

(* An engine positioned on a mapping already over capacity: the greedy
   answer at the bundled budget, moved onto a platform with a quarter
   of it — one scratchpad, or two on-chip levels of which only the
   inner one shrinks, so moves that leave the overflowing level alone
   must still be rejected. A seeded walk then commits arbitrary moves,
   feasible or not. *)
let test_fits_from_over_capacity () =
  let tally = new_tally () in
  for_apps_and_policies (fun ~label ~config ~reuse program budget ->
      List.iter
        (fun (hname, solve_on, squeeze_to) ->
          let solved =
            (Assign.greedy ~config ~reuse program solve_on).Assign.mapping
          in
          let m = Mapping.with_hierarchy solved squeeze_to in
          if not (Assign.feasible config m) then begin
            let label = label ^ " " ^ hname in
            let engine = engine_on config m in
            let prng = Mhla_util.Prng.create ~seed:0xFEA5L in
            check_every_move ~label ~tally config engine;
            for _ = 1 to 8 do
              match Assign.moves config (Engine.mapping engine) with
              | [] -> ()
              | ms ->
                Engine.commit engine (Mhla_util.Prng.pick prng ms);
                check_every_move ~label ~tally config engine
            done
          end)
        [ ( "two-level",
            Presets.two_level ~onchip_bytes:budget (),
            Presets.two_level ~onchip_bytes:(max 1 (budget / 4)) () );
          ( "three-level",
            Presets.three_level ~l1_bytes:(max 1 (budget / 4)) ~l2_bytes:budget
              (),
            Presets.three_level ~l1_bytes:(max 1 (budget / 16))
              ~l2_bytes:budget () ) ]);
  check_both_verdicts "over-capacity start" tally

(* An array no statement touches has an empty lifetime, which the
   from-scratch sizing widens to one slot: promoting it still charges
   its bytes. Swept over budgets around its size and the live data's. *)
let test_fits_dead_array () =
  let program =
    let open Build in
    program "dead"
      ~arrays:[ array "live" [ 16 ]; array "dead" [ 24 ] ]
      [ loop "i" 16 [ stmt "s" [ rd "live" [ i "i" ] ] ] ]
  in
  let tally = new_tally () in
  List.iter
    (fun (pname, config) ->
      List.iter
        (fun budget ->
          let engine =
            engine_on config
              (Mapping.direct program
                 (Presets.two_level ~onchip_bytes:budget ()))
          in
          let label = Printf.sprintf "dead array %s %dB" pname budget in
          check_every_move ~label ~tally config engine;
          Engine.commit engine (Assign.Set_array ("live", Some 0));
          check_every_move ~label ~tally config engine)
        [ 8; 16; 24; 32; 40; 48 ])
    (sizing_configs Assign.default_config);
  check_both_verdicts "dead array" tally

let test_fits_counts_rejections () =
  let program = conv () in
  let config = cycles_config in
  let engine =
    engine_on config
      (Mapping.direct program (Presets.two_level ~onchip_bytes:64 ()))
  in
  let moves = Assign.moves config (Engine.mapping engine) in
  let rejected =
    List.length (List.filter (fun mv -> not (Engine.fits engine mv)) moves)
  in
  let s = Engine.stats engine in
  Alcotest.(check bool) "some moves rejected" true (rejected > 0);
  Alcotest.(check int) "infeasible counts rejections" rejected
    s.Engine.infeasible;
  Alcotest.(check int) "fits is not a probe" 0 s.Engine.probes

(* [engine.infeasible] counts rejections apart from [engine.probes],
   which still counts only the feasible moves the search evaluated, and
   both are the same on every run. *)
let test_fits_telemetry () =
  let counters () =
    let telemetry = Mhla_obs.Telemetry.collector () in
    let r =
      Assign.greedy ~telemetry (conv ()) (Presets.two_level ~onchip_bytes:64 ())
    in
    let value name =
      Option.value ~default:0.
        (List.assoc_opt name (Mhla_obs.Telemetry.counter_values telemetry))
    in
    (r.Assign.evaluations, value "engine.probes", value "engine.infeasible")
  in
  let evaluations, probes, infeasible = counters () in
  Alcotest.(check (float 0.)) "probes = evaluations past the start"
    (float_of_int (evaluations - 1)) probes;
  Alcotest.(check bool) "rejections counted" true (infeasible > 0.);
  Alcotest.(check bool) "deterministic" true
    (counters () = (evaluations, probes, infeasible))

let prop_greedy_never_worse_than_direct =
  QCheck2.Test.make ~name:"assign: greedy never worse than out-of-the-box"
    ~count:25
    QCheck2.Gen.(pair (int_range 2 6) (int_range 64 2048))
    (fun (n, budget) ->
      let program = conv ~n () in
      let h = Presets.two_level ~onchip_bytes:budget () in
      let baseline = Cost.evaluate (Mapping.direct program h) in
      let result = Assign.greedy ~config:cycles_config program h in
      result.Assign.breakdown.Cost.total_cycles <= baseline.Cost.total_cycles
      && Mapping.occupancy_ok result.Assign.mapping)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "assign"
    [
      ( "alternatives",
        [
          Alcotest.test_case "include direct" `Quick
            test_alternatives_include_direct;
          Alcotest.test_case "chains valid" `Quick
            test_alternatives_chains_are_valid;
          Alcotest.test_case "chain cap" `Quick
            test_alternatives_respect_chain_cap;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "improves and feasible" `Quick
            test_greedy_improves_and_is_feasible;
          Alcotest.test_case "steps monotone" `Quick test_greedy_steps_monotone;
          Alcotest.test_case "deterministic" `Quick test_greedy_deterministic;
          Alcotest.test_case "tiny budget" `Quick
            test_greedy_tiny_budget_stays_direct;
          Alcotest.test_case "promotion off" `Quick
            test_greedy_no_promotion_config;
          Alcotest.test_case "energy objective" `Quick
            test_greedy_energy_objective;
          Alcotest.test_case "sum policy" `Quick
            test_greedy_sum_policy_feasible;
          qc prop_greedy_never_worse_than_direct;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
          Alcotest.test_case "feasible, never worse" `Quick
            test_anneal_feasible_and_never_worse;
          Alcotest.test_case "competitive" `Quick
            test_anneal_competitive_with_greedy;
          Alcotest.test_case "escapes local optimum" `Slow
            test_anneal_escapes_known_local_optimum;
        ] );
      ( "engine",
        [
          Alcotest.test_case "greedy = oracle on all apps" `Quick
            test_greedy_engine_equals_oracle_on_apps;
          Alcotest.test_case "greedy = oracle on kernel" `Quick
            test_greedy_engine_equals_oracle_on_kernel;
          Alcotest.test_case "annealing = oracle" `Quick
            test_anneal_engine_equals_oracle;
          Alcotest.test_case "evaluation accounting" `Quick
            test_result_evaluation_accounting;
        ] );
      ( "feasibility",
        [
          Alcotest.test_case "fits = feasible at the bundled budget" `Quick
            test_fits_two_level;
          Alcotest.test_case "fits = feasible on a tight multi-level" `Quick
            test_fits_tight_multi_level;
          Alcotest.test_case "fits = feasible from over capacity" `Quick
            test_fits_from_over_capacity;
          Alcotest.test_case "dead array charged" `Quick
            test_fits_dead_array;
          Alcotest.test_case "rejections counted" `Quick
            test_fits_counts_rejections;
          Alcotest.test_case "rejections in telemetry" `Quick
            test_fits_telemetry;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "matches or beats greedy" `Quick
            test_exhaustive_matches_or_beats_greedy;
          Alcotest.test_case "budget guard" `Quick test_exhaustive_budget_guard;
          Alcotest.test_case "feasibility" `Quick test_exhaustive_feasibility;
        ] );
    ]
