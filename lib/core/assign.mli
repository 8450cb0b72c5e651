(** MHLA step 1: copy-candidate selection and layer assignment.

    Starting from the out-of-the-box mapping (everything off-chip), a
    steepest-descent greedy repeatedly applies the feasible move with
    the largest cost gain until no move improves the objective — the
    exploration engine of the MHLA tool. Moves are: serve an access
    through a copy chain (or revert it to Direct), and promote/demote a
    whole array to/from an on-chip layer. Feasibility is the in-place-
    optimised occupancy of every on-chip layer.

    Each search ({!greedy}, {!simulated_annealing}) is one loop over
    an evaluator of the objective. By default the evaluator probes
    moves through the incremental {!Engine}; [~oracle:true] swaps in
    from-scratch [Cost.evaluate] calls instead. The engine is
    bit-exact, so both return identical results; the oracle exists as
    the reference the tests compare the engine against.

    {!exhaustive} searches the full placement space (arrays kept
    off-chip) and is used in tests and the EXT-GREEDY ablation to
    measure the greedy's optimality gap on small instances. *)

type config = {
  objective : Cost.objective;
  transfer_mode : Mhla_reuse.Candidate.transfer_mode;
  policy : Mhla_lifetime.Occupancy.policy;
  allow_array_promotion : bool;
  max_chain_length : int;
      (** cap on copy-chain depth; the hierarchy's on-chip depth is
          also always a cap *)
  cc_filter : (Mhla_reuse.Analysis.info -> Mhla_reuse.Candidate.t -> bool)
              option;
      (** the CC-selection policy hook: when set, only candidates the
          filter keeps enter the copy-chain space. [Direct] always
          remains an alternative, so any filter is safe (it narrows
          the search, never breaks it). [None] (the default) keeps
          every useful candidate — bit-identical to the pre-policy
          behaviour. A config carrying a filter closure is no longer
          structurally comparable; compare configs only at their
          defaults. *)
}

val default_config : config
(** Energy-delay objective (the balanced trade-off point the figures
    report), [Delta] transfers (the full technique with inter-copy
    reuse), in-place sizing, array promotion on, chains up to depth
    2, no CC filter. *)

(** One applied move, for reporting. *)
type step = {
  description : string;
  gain : float;  (** objective decrease achieved by the move *)
  objective_after : float;
}

type result = {
  mapping : Mapping.t;
  breakdown : Cost.breakdown;
  steps : step list;  (** in application order *)
  evaluations : int;  (** objective evaluations spent (any flavour) *)
  full_evaluations : int;
      (** how many of those were from-scratch [Cost.evaluate] runs;
          [= evaluations] on the oracle path, [0] on the engine path *)
  cache_hits : int;
      (** per-unit contributions the engine reused across probes *)
  cache_misses : int;  (** contributions the engine had to recompute *)
}

val alternatives :
  config -> Mapping.t -> Mhla_reuse.Analysis.info -> Mapping.placement list
(** All placements considered for an access: [Direct] plus every
    level-monotone copy chain over the on-chip layers (length capped by
    [max_chain_length]). Deterministic order. *)

(** A search move, shared with the incremental engine (which owns the
    type; this is a re-export). *)
type move = Engine.move =
  | Set_placement of Mhla_reuse.Analysis.access_ref * Mapping.placement
  | Set_array of string * int option

val apply_move : Mapping.t -> move -> Mapping.t
(** Functional application through the validating [Mapping] updates. *)

val moves : config -> Mapping.t -> move list
(** Every move the searches consider from this mapping, deterministic
    order: placement changes for each access, then array
    promotions/demotions (when allowed). *)

val feasible : config -> Mapping.t -> bool
(** Occupancy of every on-chip layer under the config's policy. *)

val greedy :
  ?config:config ->
  ?oracle:bool ->
  ?first_improvement:bool ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  ?on_commit:(move -> unit) ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  result
(** Steepest descent — or, with [first_improvement] (default [false]),
    first-improving descent: each round commits the first move of the
    deterministic move order that improves the objective instead of
    scanning every move for the best one (fewer probes per round, more
    rounds, a different — not necessarily worse — local optimum). Both
    run the same loop; only the selection step differs. Probes go
    through the {!Engine} evaluator unless [oracle] (default [false])
    selects the from-scratch reference evaluator; the result is the
    same either way. [reuse] shares a precomputed analysis/schedule (see
    {!Mapping.precompute}). [telemetry] (default noop) records an
    [assign.greedy] span, one [greedy.step] event per applied move and
    the engine's spans/counters; it never changes the result.
    [checkpoint] (default a no-op) is invoked at the top of every
    descent round; it may raise — e.g. a deadline guard raising
    {!Mhla_util.Error.Error} with kind [Deadline] — to abandon the
    search without corrupting any shared state. As long as it returns
    normally it must not observe or mutate the search, so the result
    stays independent of how often it fires. [on_commit] (default a
    no-op) observes every committed move, in order, right after the
    search's state advances — the hook live verification rides on; the
    same independence contract as [checkpoint] applies: the search
    never lets it change a decision. *)

val exhaustive :
  ?config:config ->
  ?reuse:Mapping.reuse ->
  max_states:int ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  (result, string) Stdlib.result
(** Full enumeration over access placements (no array promotion).
    [Error] when the state count exceeds [max_states]. *)

val simulated_annealing :
  ?config:config ->
  ?oracle:bool ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  ?on_commit:(move -> unit) ->
  ?seed:int64 ->
  ?iterations:int ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  result
(** Stochastic alternative to {!greedy}: random feasible moves,
    accepted when improving or with Boltzmann probability under a
    geometric cooling schedule; returns the best mapping seen.
    Deterministic for a given [seed] (default [42L]); [iterations]
    defaults to [4000]. Escapes the local optima steepest descent can
    fall into (see the EXT-SEARCH bench), at ~30x the evaluations.
    [oracle]/[reuse] as in {!greedy}: the loop is the same over either
    evaluator, so both draw the same pseudo-random sequence and take
    identical decisions. [telemetry]
    records an [assign.anneal] span and per-iteration
    [anneal.accept]/[anneal.reject] events carrying the temperature,
    plus [anneal.best] marks on improvements — the annealing trajectory
    as observable data. [checkpoint] is invoked before every iteration,
    and [on_commit] on every {e accepted} move (the search walks the
    current state; the result is still the best state seen), as in
    {!greedy}. *)
