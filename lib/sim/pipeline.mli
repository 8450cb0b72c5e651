(** Cycle-level simulation of one prefetch pipeline.

    The analytic cost engine ({!Mhla_core.Cost}) charges a block
    transfer [issues * max(0, time - hidden)] stall cycles. This module
    replays the same stream event by event — CPU iterations consuming
    buffers, a DMA engine filling them [lookahead] iterations ahead —
    and measures the stalls that actually occur, including the cold
    start and DMA serialisation the analytic model ignores. Agreement
    within the cold-start bound is the EXT-XVAL experiment.

    Every function takes the stream as an {!Event.stream}, the record
    {!Event.run} takes too, plus the number of concurrent DMA channels
    ([>= 1]). A transfer takes the stream's [transfer_cycles];
    [bytes_per_issue] is ignored. {!run_faulty} is the repository's
    only fault model. *)

type outcome = {
  total_cycles : int;  (** makespan of the whole stream *)
  stall_cycles : int;  (** CPU cycles spent waiting on transfers *)
  dma_busy_cycles : int;
}

type fault_outcome = {
  fault_result : outcome;  (** cycles as measured under faults *)
  retries : int;  (** re-issued attempts after a corrupt transfer *)
  fallbacks : int;
      (** iterations that degraded to a synchronous refetch, either
          because retries were exhausted or the transfer missed the
          [deadline_patience] window *)
  failed_attempts : int;  (** corrupt transfer completions observed *)
  jitter_total_cycles : int;  (** extra latency injected across attempts *)
}

val run_faulty :
  ?telemetry:Mhla_obs.Telemetry.t ->
  Faults.t ->
  channels:int ->
  Event.stream ->
  fault_outcome
(** Replay the stream with every DMA attempt filtered through the
    fault model: latency jitter stretches attempts, failed attempts
    occupy their channel then retry after capped exponential backoff,
    and outage windows delay starts. When a transfer exhausts its
    retries — or outstays [deadline_patience] — the consuming iteration
    falls back to a synchronous refetch (setup + full transfer, all
    stall) instead of diverging. Deterministic in the fault seed.

    [telemetry] (default noop) records a [sim.pipeline] span and one
    [dma.issue] event per transfer, one [dma.complete] event per
    consumed buffer and a [dma.stall] event per stalled iteration, all
    carrying simulated-cycle timestamps in their args; under faults it
    adds one [dma.retry] event per re-issued attempt and one
    [dma.fallback] event (with its reason) per degraded iteration. It
    never changes the outcome.
    @raise Mhla_util.Error.Error on negative stream parameters,
    [issues <= 0], [channels < 1] or an invalid fault model. *)

val run :
  ?telemetry:Mhla_obs.Telemetry.t -> channels:int -> Event.stream -> outcome
(** The fault-free replay: {!run_faulty} under {!Faults.none}, whose
    outcome it returns. *)

val analytic_stall : channels:int -> Event.stream -> int
(** The tool's (Figure-1) stall arithmetic for the same stream:
    [issues * max 0 (transfer_cycles - lookahead * compute_cycles)].
    Accurate while the DMA channel keeps up (transfer <= compute); with
    a saturated channel it is optimistic — see {!steady_state_stall}. *)

val steady_state_stall : channels:int -> Event.stream -> int
(** Steady-state stall of the simulated pipeline, cold start excluded.
    With no lookahead every issue stalls [transfer_cycles]. With
    lookahead [k], [min k channels] transfers overlap, giving an
    effective service time of [ceil (transfer / min k channels)] per
    iteration against the CPU's [compute + setup]. {b Exact} for
    [channels = 1]; for more channels it is the work-conservation
    {b lower bound} — the simulator can stall somewhat more because
    issue and consumption phase against each other (the single-channel
    form is then an upper bound). *)
