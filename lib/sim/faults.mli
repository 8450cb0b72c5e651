(** Deterministic fault models for the DMA pipeline simulator.

    Real platforms do not deliver the nominal transfer latency every
    time: bus contention jitters it, transient errors force retries,
    and a channel can drop out entirely for a window (power gating,
    arbitration starvation). This module describes those disturbances
    as pure data plus deterministic sampling functions, so that
    {!Pipeline.run_faulty} replays the exact same fault trace for a
    given seed — reproducible robustness experiments, not Monte Carlo
    noise.

    Sampling is keyed on [(transfer, attempt)] rather than on a shared
    mutable generator, so the outcome of one transfer never depends on
    how many random draws earlier transfers consumed. *)

(** Extra latency added to a transfer attempt on top of the nominal
    [transfer_cycles]. *)
type jitter =
  | No_jitter
  | Uniform of { max_extra_cycles : int }
      (** uniform in [\[0, max_extra_cycles\]] per attempt *)
  | Bursty of { permille : int; extra_cycles : int }
      (** with probability [permille/1000] the attempt takes
          [extra_cycles] longer; otherwise nominal *)

type outage = {
  channel : int;  (** which DMA channel is down *)
  from_cycle : int;  (** first cycle of the window (inclusive) *)
  until_cycle : int;  (** first cycle after the window (exclusive) *)
}
(** A window during which a channel cannot {e start} a transfer;
    attempts arriving inside it are pushed to [until_cycle]. *)

type t = {
  seed : int64;  (** root of every random draw *)
  jitter : jitter;
  failure_permille : int;
      (** per-attempt probability (in 1/1000) that the transfer
          completes corrupt and must be retried *)
  outages : outage list;
  max_retries : int;  (** retries after the first attempt *)
  backoff_base_cycles : int;
      (** wait before retry [n] is [min cap (base * 2^n)] *)
  backoff_cap_cycles : int;
  deadline_patience : int option;
      (** [Some d]: a consumer that would stall more than [d] cycles
          on a pending transfer abandons it and refetches
          synchronously. [None] (default): wait forever. *)
}

val none : t
(** The zero model: no jitter, no failures, no outages, no deadline.
    {!Pipeline.run_faulty} under [none] reproduces {!Pipeline.run}
    cycle for cycle. *)

val make :
  ?jitter:jitter ->
  ?failure_permille:int ->
  ?outages:outage list ->
  ?max_retries:int ->
  ?backoff_base_cycles:int ->
  ?backoff_cap_cycles:int ->
  ?deadline_patience:int ->
  seed:int64 ->
  unit ->
  t
(** Defaults are the [none] fields (with [max_retries = 3],
    [backoff_base_cycles = 4], [backoff_cap_cycles = 64] as retry
    policy once faults are enabled).
    @raise Mhla_util.Error.Error on out-of-range parameters. *)

val validate : t -> unit
(** @raise Mhla_util.Error.Error if [failure_permille] is outside
    [0..1000], any count is negative, or an outage window is
    malformed. *)


val jitter_cycles : t -> transfer:int -> attempt:int -> int
(** Extra latency sampled for this attempt. Deterministic in
    [(seed, transfer, attempt)]. *)

val attempt_fails : t -> transfer:int -> attempt:int -> bool
(** Whether this attempt completes corrupt. Deterministic in
    [(seed, transfer, attempt)]; independent of {!jitter_cycles}. *)

val backoff_cycles : t -> attempt:int -> int
(** Idle wait inserted before retrying after failed [attempt]:
    [min backoff_cap_cycles (backoff_base_cycles * 2^attempt)]. *)

val outage_release : t -> channel:int -> at:int -> int
(** Earliest cycle [>= at] at which [channel] may start a transfer,
    pushing past every outage window that covers the candidate start
    (windows may chain). *)

val pp : t Fmt.t
