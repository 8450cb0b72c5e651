(** Cycle-level simulation of one prefetch pipeline.

    The analytic cost engine ({!Mhla_core.Cost}) charges a block
    transfer [issues * max(0, time - hidden)] stall cycles. This module
    replays the same stream event by event — CPU iterations consuming
    buffers, a DMA engine filling them [lookahead] iterations ahead —
    and measures the stalls that actually occur, including the cold
    start and DMA serialisation the analytic model ignores. Agreement
    within the cold-start bound is the EXT-XVAL experiment. *)

type params = {
  issues : int;  (** transfers in the stream (refresh-loop trip) *)
  transfer_cycles : int;  (** DMA busy time per issue *)
  compute_cycles : int;  (** CPU work per iteration between uses *)
  lookahead : int;
      (** how many iterations ahead a transfer is initiated; [0] =
          synchronous (no TE) *)
  setup_cycles : int;  (** CPU-paid DMA programming per issue *)
  channels : int;  (** concurrent DMA channels (>= 1) *)
}

type outcome = {
  total_cycles : int;  (** makespan of the whole stream *)
  stall_cycles : int;  (** CPU cycles spent waiting on transfers *)
  dma_busy_cycles : int;
}

val run : ?telemetry:Mhla_obs.Telemetry.t -> params -> outcome
(** [telemetry] (default noop) records a [sim.pipeline] span and one
    [dma.issue] / [dma.complete] event per transfer plus a [dma.stall]
    event per stalled iteration, all carrying simulated-cycle
    timestamps in their args; it never changes the outcome.
    @raise Mhla_util.Error.Error on negative parameters or [issues <= 0]. *)

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
  ?telemetry:Mhla_obs.Telemetry.t -> Faults.t -> params -> fault_outcome
(** [run] with every DMA attempt filtered through the fault model:
    latency jitter stretches attempts, failed attempts occupy their
    channel then retry after capped exponential backoff, and outage
    windows delay starts. When a transfer exhausts its retries — or
    outstays [deadline_patience] — the consuming iteration falls back
    to a synchronous refetch (setup + full transfer, all stall)
    instead of diverging. Deterministic in the fault seed.
    Under {!Faults.none} this is exactly {!run}, cycle for cycle.
    [telemetry] records a [sim.pipeline_faulty] span and, on top of the
    fault-free event stream, one [dma.retry] event per re-issued
    attempt and one [dma.fallback] event (with its reason) per degraded
    iteration.
    @raise Mhla_util.Error.Error on invalid [params] or fault model. *)

val analytic_stall : params -> int
(** The tool's (Figure-1) stall arithmetic for the same stream:
    [issues * max 0 (transfer_cycles - lookahead * compute_cycles)].
    Accurate while the DMA channel keeps up (transfer <= compute); with
    a saturated channel it is optimistic — see {!steady_state_stall}. *)

val steady_state_stall : params -> int
(** Steady-state stall of the simulated pipeline, cold start excluded.
    With no lookahead every issue stalls [transfer_cycles]. With
    lookahead [k], [min k channels] transfers overlap, giving an
    effective service time of [ceil (transfer / min k channels)] per
    iteration against the CPU's [compute + setup]. {b Exact} for
    [channels = 1]; for more channels it is the work-conservation
    {b lower bound} — the simulator can stall somewhat more because
    issue and consumption phase against each other (the single-channel
    form is then an upper bound). *)

val pp_outcome : outcome Fmt.t
