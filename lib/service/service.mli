(** The fault-isolated solver executor.

    A {!t} owns a fixed pool of worker domains behind a bounded job
    queue. Callers {!submit} raw JSONL lines; workers parse, decode,
    verify (through the {!Mhla_analysis} passes), solve, and record
    exactly one {!Response.t} per submission — every failure mode
    (malformed JSON, rejected program, blown deadline, injected crash)
    becomes a structured response, never an escaped exception and never
    a lost request.

    Backpressure: when the queue holds [queue_depth] jobs, {!submit}
    either blocks until a worker frees a slot ([Block], the batch
    default) or answers immediately with a [shed]/[backpressure]
    response ([Shed], for daemons that must stay responsive).

    Deadlines are measured from submission, so time spent queued
    counts. The solver is checkpointed between search steps (see
    {!Mhla_core.Assign.greedy}); a blown deadline surfaces as a
    [timeout] response, and an ok response is bit-identical to a
    direct {!solve} of the same request — the checkpoint never
    perturbs the search.

    Reuse analysis ({!Mhla_core.Mapping.precompute}) is interned
    across requests by program digest: a batch sweeping one program
    over many platforms pays for the program-only analysis once. *)

(** Admission policy once the queue is full. *)
type admission = Block | Shed

type config = {
  jobs : int;  (** worker domains *)
  queue_depth : int;  (** bounded-queue capacity *)
  default_deadline_ms : int option;
      (** applied to requests that carry no [deadline_ms] *)
  admission : admission;
  max_request_bytes : int;
      (** longer submissions are rejected ([oversized]) before parse *)
  telemetry : Mhla_obs.Telemetry.t;
  verify_live : bool;
      (** run an incremental verifier along every [Solve] request's
          search and check its response's own solution before emitting
          it: a failing solution becomes a [verify]-coded error
          response, a passing one carries its report in the response's
          [verify] field. Never changes the [result] payload. *)
  suppress : Mhla_analysis.Suppress.t;
      (** suppression rules applied to both the pre-solve program
          verification and the live verification *)
}

val default_config : config
(** 1 worker, depth 16, no default deadline, [Block], 1 MiB cap, noop
    telemetry, no live verification, no suppressions. *)

type t

val create : ?config:config -> unit -> t
(** Starts the workers immediately, each on one of
    {!Mhla_util.Domain_pool}'s kept worker domains (spawned only when
    none is idle).
    @raise Mhla_util.Error.Error ([Invalid_input]) on non-positive
    [jobs] or [queue_depth]. *)

val submit : t -> string -> [ `Queued | `Shed ]
(** Enqueue one raw request line. [`Shed] only under the [Shed]
    admission policy; the shed response is already recorded when it
    returns.
    @raise Mhla_util.Error.Error ([Invalid_input]) after {!shutdown}. *)

val ready : t -> Response.t list
(** The completed in-order prefix not yet handed out, possibly empty;
    never blocks. Responses are emitted exactly once, in submission
    order. *)

val drain : t -> Response.t list
(** Block until every submitted request has answered, then return all
    responses not yet handed out (in submission order). *)

val shutdown : t -> unit
(** {!drain} leftovers are kept; waits for workers to exit, hands
    their domains back to {!Mhla_util.Domain_pool}, and merges their
    telemetry children into the parent sink in worker order.
    Idempotent. *)

type summary = {
  submitted : int;
  ok : int;
  errors : int;
  timeouts : int;
  shed : int;
  p50_ms : float;  (** submit-to-answer latency percentiles *)
  p99_ms : float;
}

val summary : t -> summary
(** Running totals over every response recorded so far (handed out or
    not). *)

val summary_to_json : summary -> Mhla_util.Json.t

val pp_summary : summary Fmt.t
(** One line: counts then latency percentiles. *)

(** {2 The direct path}

    What one worker runs for one decoded request — exposed so the soak
    harness can replay a request outside the pool and demand a
    bit-identical payload. *)

val solve :
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mhla_core.Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  ?on_commit:(Mhla_core.Assign.move -> unit) ->
  Request.t ->
  Mhla_core.Explore.result
(** Build the request's hierarchy and run the full
    {!Mhla_core.Explore.run} pipeline under the request's knobs. *)

val ok_payload : Request.t -> Mhla_core.Explore.result -> Mhla_util.Json.t
(** Exactly the [result] field an ok response for this request
    carries ({!Mhla_core.Report.result_to_json} under the request
    id). *)

val solve_pareto :
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mhla_core.Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  Request.t ->
  axes:int list list ->
  Mhla_core.Explore.pareto_outcome
(** What a worker runs for a [mode: pareto] request: the whole
    {!Mhla_core.Explore.pareto} grid on the calling domain
    ([jobs:1] — the pool already parallelizes across requests). The
    request's deadline checkpoint threads through, so expiry mid-grid
    returns the best-so-far frontier with [partial = true] (the ok
    payload, {!Mhla_core.Report.pareto_to_json}, carries the marker)
    instead of a timeout response; only a deadline that fires before
    the first point times the request out. *)
