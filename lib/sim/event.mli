(** Discrete-event, cycle-level DMA/bus simulator (EXT-ESIM).

    {!Pipeline} is an analytic replay: a straight-line loop that knows
    the closed-form answer it is computing. This module is the
    adversary that does {e not} know the answer — a classic
    discrete-event engine with a time-ordered event queue, [N] DMA
    channels under an explicit arbitration policy, a {e bounded}
    prefetch queue with optional invalidation on demand miss (the
    GBA-style prefetch buffer), per-region waitstate tables derived
    from {!Mhla_arch} presets, and single-occupancy shared-bus
    contention accounting. {!Crosscheck.check_event} cross-validates
    the two: the analytic TE gain must track the event-sim gain within
    a stated tolerance, and any divergence is reported as a structured
    diagnostic, never an assert.

    Everything is deterministic: same stream, config and fault model
    ⇒ the same event trace and the same cycle counts, whatever domain
    the run is fanned onto. The only sources of variation are the
    explicit {!Faults.t} seed and the configuration itself. *)

(** How a freed slot picks among free channels. [Earliest_free]
    mirrors {!Pipeline.run}'s argmin scan (longest-idle channel,
    lowest index on ties); [Round_robin] rotates from the channel
    after the last one used. *)
type arbitration = Earliest_free | Round_robin

(** A waitstate table for one memory region: a transfer of [b] bytes
    costs [first_cycles + seq_cycles * ceil (b / beat_bytes)]. With
    [first = latency] and [seq = 1] per [beat_bytes = burst bandwidth]
    this reproduces {!Mhla_core.Cost.bt_cycles_per_issue} exactly —
    the alignment {!Crosscheck.check_event} relies on. *)
type waitstates = {
  first_cycles : int;  (** non-sequential (first-access) penalty *)
  seq_cycles : int;  (** cycles per sequential beat *)
  beat_bytes : int;  (** bytes moved per beat *)
}

type config = {
  channels : int;  (** DMA channels, >= 1 *)
  queue_depth : int;
      (** prefetch-buffer slots: at most this many transfers may be
          outstanding (issued and not yet consumed); issues beyond it
          are deferred and may degrade to demand fetches *)
  arbitration : arbitration;
  shared_bus : bool;
      (** all channels and the CPU demand path share one
          single-occupancy bus; waits are counted in
          [bus_wait_cycles] *)
  invalidate_on_miss : bool;
      (** on a demand miss, queued-but-unstarted prefetches are
          flushed (the GBA prefetch-buffer rule) and must be re-issued *)
  waitstates : waitstates option;
      (** [None]: transfers take the stream's nominal
          [transfer_cycles] *)
}

val neutral : channels:int -> config
(** [Earliest_free], unbounded-in-practice queue ([max_int] depth), no
    shared bus, no invalidation, no waitstates: the configuration under
    which {!run} is cycle-identical to {!Pipeline.run}. *)

val of_hierarchy :
  ?queue_depth:int ->
  ?arbitration:arbitration ->
  ?shared_bus:bool ->
  ?invalidate_on_miss:bool ->
  Mhla_arch.Hierarchy.t ->
  config
(** Channels from the hierarchy's DMA (1 without one), waitstates from
    its off-chip layer ([first = latency_cycles], [seq = 1] per beat of
    the narrowest on-path bandwidth). Defaults: [queue_depth] unbounded,
    [Earliest_free], no shared bus, no invalidation. *)

val validate : config -> unit
(** @raise Mhla_util.Error.Error on non-positive channels, queue depth
    or waitstate fields. *)

(** One block-transfer stream, the same shape {!Pipeline.params}
    describes: [issues] transfers consumed one per iteration,
    [lookahead] iterations of prefetch distance, [setup_cycles] of CPU
    work per issue, [compute_cycles] of CPU work per iteration.
    [bytes_per_issue] sizes waitstate beats; it is ignored when the
    config carries no waitstate table. *)
type stream = {
  issues : int;
  bytes_per_issue : int;
  transfer_cycles : int;
  compute_cycles : int;
  lookahead : int;
  setup_cycles : int;
}

val transfer_latency : config -> stream -> int
(** Nominal (fault-free) cycles of one transfer under the config's
    waitstate table, or [stream.transfer_cycles] without one. *)

type outcome = {
  total_cycles : int;
  stall_cycles : int;  (** CPU cycles lost waiting on data *)
  dma_busy_cycles : int;  (** summed channel occupancy (incl. retries) *)
  bus_wait_cycles : int;  (** cycles spent arbitrating for the shared bus *)
  demand_fetches : int;
      (** consumes that found their transfer unissued or flushed and
          went to memory synchronously *)
  invalidated_prefetches : int;
      (** queued-but-unstarted transfers flushed by demand misses *)
  deferred_issues : int;
      (** issue attempts postponed because the prefetch queue was full *)
  retries : int;
  fallbacks : int;
      (** consumes degraded by the fault model (retries exhausted or
          deadline patience) *)
  failed_attempts : int;
  jitter_total_cycles : int;
  events_processed : int;  (** heap pops — the cycles/s denominator *)
  channel_busy_cycles : int array;  (** per-channel occupancy *)
}

val run :
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?faults:Faults.t ->
  config ->
  stream ->
  outcome
(** Simulate one stream. [faults] defaults to {!Faults.none}.
    @raise Mhla_util.Error.Error on an invalid config, stream or fault
    model. *)

val te_gain : ?faults:Faults.t -> config -> stream -> int
(** [stall (lookahead := 0) - stall (stream.lookahead)] — the stall
    cycles the stream's time extension removed, as the event simulator
    measures them. The analytic counterpart is
    [issues * hidden_cycles]. *)

val outcome_to_json : outcome -> Mhla_util.Json.t
val pp_outcome : outcome Fmt.t
