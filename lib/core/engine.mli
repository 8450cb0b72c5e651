(** Incremental cost evaluation for the assignment searches.

    [Cost.evaluate] walks every access and rebuilds every block
    transfer of a mapping from scratch — fine for one evaluation,
    wasteful inside a search that probes thousands of single-move
    variations of the same mapping. This engine caches the per-access
    and per-block-transfer contributions of {!Cost.access_contribution}
    and {!Cost.bt_contribution} and keeps them keyed by the move kinds
    that can invalidate them:

    - [Set_placement r _] dirties only the contribution and the chain
      transfers of access [r];
    - [Set_array a _] dirties the access contributions of the [Direct]
      accesses of [a] (their serving layer moved) and the chain
      transfers of every access of [a] (their outermost source moved);
      the whole-array fill/drain streams are memoised per
      [(array, level)] and never recomputed twice.

    Totals are then a cheap re-fold of the cached contributions {e in
    the exact order [Cost.evaluate] folds them} — the engine never
    subtracts a stale term from a running total. Because every cached
    term is produced by the same functions [Cost.evaluate] uses and the
    re-fold preserves the float summation order, {!objective_value} is
    bit-identical to
    [Cost.scalar objective (Cost.evaluate (mapping t))] — the invariant
    {!Mhla_sim.Crosscheck} re-verifies and the fuzz suite hammers. An
    engine-driven search therefore reproduces the oracle-driven search
    decision-for-decision.

    The engine also answers capacity feasibility, so no candidate move
    builds a [Mapping.t] (one is built only on {!commit}). It keeps,
    per on-chip level with a capacity, the bytes alive in every
    schedule slot (one running total under [Sum]), built from the same
    blocks [Mapping.layer_blocks] derives: one block per
    [(level, share_key)] group — the hull of its members' lifetimes,
    merged in infos order with [Interval.hull]'s handling of empty
    lifetimes, and the largest member's bytes — plus one per promoted
    array, with empty lifetimes widened to one slot as
    [Occupancy.peak_bytes] does. {!fits} swaps in the blocks a move
    changes, reads the touched levels and swaps them back; a per-level
    over-capacity flag for the current position keeps the answer exact
    even from an infeasible start. Invariant, for every well-formed
    move: [fits t move] =
    [Mapping.occupancy_ok ~policy (Assign.apply_move (mapping t) move)],
    i.e. [Assign.feasible] — pinned per move by [test_assign.ml] and by
    fuzz check ["feasibility"]. *)

(** A single search move. Owned here (rather than by [Assign], which
    re-exports it) so the engine does not depend on the search. *)
type move =
  | Set_placement of Mhla_reuse.Analysis.access_ref * Mapping.placement
  | Set_array of string * int option

(** Counters accumulated since {!create}. [contribs_reused] vs
    [contribs_recomputed] is the cache hit/miss split over the
    per-unit contributions folded by probes; [entries_invalidated]
    counts cached access entries dirtied by [Set_array] applications
    (the cost of whole-array moves under dirty tracking); [infeasible]
    counts {!fits} calls that answered [false]. [probes] counts
    {!probe} calls only, so a search that probes only feasible moves
    keeps its probe count whatever [fits] rejects. *)
type stats = {
  probes : int;
  commits : int;
  contribs_reused : int;
  contribs_recomputed : int;
  entries_invalidated : int;
  infeasible : int;
}

type t

val create :
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?policy:Mhla_lifetime.Occupancy.policy ->
  objective:Cost.objective ->
  Mapping.t ->
  t
(** An engine positioned on the given mapping. All contributions, and
    the occupancy timelines {!fits} reads, are computed once, eagerly.
    [policy] (default [In_place], as [Mapping.occupancy_ok]) sizes the
    on-chip levels. [telemetry] (default
    {!Mhla_obs.Telemetry.noop}) receives [engine.create] /
    [engine.probe] / [engine.commit] spans and the
    [engine.probes]/[engine.commits]/[engine.cache_hits]/
    [engine.cache_misses]/[engine.entries_invalidated]/
    [engine.infeasible] counters; a disabled sink leaves every result
    bit-identical. *)

val mapping : t -> Mapping.t
(** The mapping the engine is positioned on — the genuine [Mapping.t],
    built through the same [Mapping.with_placement] /
    [Mapping.with_array_layer] calls an oracle search would make, so
    downstream steps (TE, reports) see an identical value. *)

val probe : t -> move -> float
(** The objective of [mapping t] with [move] applied, recomputing only
    the contributions the move touches; the engine's position is
    unchanged. Bit-identical to
    [Cost.scalar objective (Cost.evaluate (Assign.apply_move (mapping t) move))].
    The move must be well-formed (as produced by [Assign.moves]) —
    probing does not re-run [Mapping]'s validation. *)

val fits : t -> move -> bool
(** Whether every on-chip level stays within capacity once [move] is
    applied to [mapping t]; the engine's position is unchanged. Equal
    to [Mapping.occupancy_ok ~policy (Assign.apply_move (mapping t) move)]
    for the engine's [policy], from any position — a start mapping
    already over capacity included. The move must be well-formed, as
    for {!probe}; its candidates must come from the mapping's own
    analysis.
    @raise Invalid_argument for a candidate the analysis does not own. *)

val commit : t -> move -> unit
(** Advance the engine's position by [move], keeping the cached
    contributions it does not touch.
    @raise Mhla_util.Error.Error if the underlying [Mapping] update
    rejects the move; the engine is unchanged in that case. *)

val objective_value : t -> float
(** [Cost.scalar objective] of the cost breakdown at the current
    position, re-folded from the cache; bit-identical to
    [Cost.scalar objective (Cost.evaluate (mapping t))]. *)

val stats : t -> stats
