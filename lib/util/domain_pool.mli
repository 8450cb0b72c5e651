(** A small OCaml 5 [Domain]-based worker pool.

    [map] fans independent pure tasks out across CPU cores and returns
    the results in input order, so a parallel run is observationally
    identical to [List.map] — the property the exploration sweeps rely
    on for [jobs:1 ≡ jobs:N] determinism. Tasks must not share mutable
    state; everything this repository parallelises (per-size-budget
    exploration runs) only reads immutable programs and analyses.

    Worker domains are kept between calls: a call with [jobs = N] runs
    on the calling domain plus [N - 1] parked workers, spawning new
    ones only when too few are idle, and parks them again when it
    returns. A process that fans out many short calls therefore spawns
    each worker once, instead of retiring domains call after call —
    which grows the heap (and the resident set) with every domain
    retired. Idle workers stay blocked until the next call. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the number of workers that
    saturates the hardware without oversubscribing it. Always >= 1. *)

type worker
(** A kept worker domain, running one detached job. *)

val start : (unit -> unit) -> worker
(** Run a job on an idle worker domain, spawning a new one only when
    none is idle, and return without waiting for it. A job may run for
    as long as its caller likes (a service's request loop does). Every
    started worker must be {!await}ed exactly once: that hands it back
    to the idle workers that {!map} and later [start]s draw on. *)

val await : worker -> (unit, exn * Printexc.raw_backtrace) result
(** Block until the worker's job returns, hand the worker back to the
    idle ones and report how the job ended. *)

val map_with :
  ?jobs:int ->
  init:(int -> 'c) ->
  ?around:('c -> (unit -> unit) -> unit) ->
  finish:('c list -> unit) ->
  ('c -> 'a -> 'b) ->
  'a list ->
  'b list
(** {!map} with a per-worker context threaded through, the hook the
    telemetry layer uses to give every domain its own child sink:

    - [init i] builds worker [i]'s context — called {e in the parent},
      in worker order, before any domain spawns;
    - [around ctx k] wraps worker [i]'s whole drain loop [k], {e inside
      its domain} (default: just run [k]) — e.g. a per-worker span;
    - [f ctx x] maps one item using the worker's context;
    - [finish ctxs] runs in the parent after all workers finished, with
      the contexts in worker order — e.g. a deterministic merge. It
      runs before any task failure is re-raised, so context state
      gathered up to a failure survives.

    Contexts must not be shared across workers; everything else is as
    {!map} (ordering, dynamic balancing, failure cancellation and
    re-raise). With one worker the call degrades to
    [List.map (f (init 0))] wrapped in [around]/[finish] — no domain is
    spawned, and a task failure still runs [finish] before
    re-raising. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] using at most
    [jobs] domains (default {!recommended_jobs}; values < 1 are clamped
    to 1) and returns the results in the order of [xs]. Work is
    distributed dynamically (an atomic cursor), so uneven task costs
    balance across workers. With [jobs = 1] (or a singleton/empty list)
    no domain is spawned and the call is exactly [List.map f xs].

    If a task raises, the pool {e cancels}: a flag is flipped at the
    first failure and checked at the atomic cursor, so tasks not yet
    started are skipped instead of running to completion — a batch
    with one early crash does not pay for the whole sweep. Tasks
    already in flight on other workers still finish (they cannot be
    interrupted). After all workers join, the exception of the
    earliest-indexed failed slot is re-raised in the caller; with one
    worker that is exactly the first failing input. *)
