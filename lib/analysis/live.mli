(** [--verify-live]: an incremental verifier riding along a solve.

    {!start} positions an {!Incremental} on the solve's starting point
    (the all-[Direct] mapping); {!on_commit} is the hook to hand the
    search (see {!Mhla_core.Assign.greedy}); {!finish} rebases onto the
    search's answer, installs the TE schedule and returns the report —
    {!check} additionally raises on any verifier error, turning a bad
    solver output into a structured [Internal] failure instead of a
    silently wrong answer. The observer never feeds back into the
    search: a [--verify-live] solve is bit-identical to a plain one. *)

type t

val start :
  ?transfer_mode:Mhla_reuse.Candidate.transfer_mode ->
  ?reuse:Mhla_core.Mapping.reuse ->
  ?policy:Mhla_lifetime.Occupancy.policy ->
  ?suppress:Suppress.t ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  t

val of_config :
  ?reuse:Mhla_core.Mapping.reuse ->
  ?suppress:Suppress.t ->
  Mhla_core.Assign.config ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  t
(** {!start} with the transfer mode and sizing policy the solve's
    config carries — keeping the verifier's assumptions
    aligned with the search's. *)

val on_commit : t -> Mhla_core.Engine.move -> unit

val finish : t -> Mhla_core.Explore.result -> Verify.report
(** Rebase onto the result's mapping, install its TE schedule, report. *)

val check : t -> Mhla_core.Explore.result -> Verify.report
(** {!finish}, then @raise Mhla_util.Error.Error (kind [Internal]) when
    the report carries any error — the live-verification contract. *)

val stats : t -> Incremental.stats
