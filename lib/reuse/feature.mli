(** Prefetch freedom of a copy candidate.

    How many enclosing loops a prefetch of a candidate could be
    advanced across without racing a producer, computed from the
    program, the access's {!Analysis.info} and the {!Candidate} record
    alone: no mapping and no cost model. {!Mhla_core.Prefetch}
    delegates its Time-Extension freedom walk here. *)

val freedom_loops :
  Mhla_ir.Program.t -> Analysis.info -> Candidate.t -> string list
(** Figure 1's dep_analysis + loops_between: walking outward from the
    candidate's refresh loop, the run of enclosing loops across which
    advancing a prefetch of the candidate cannot race a producer of
    its source region (for a write-direction candidate, nor any reader
    of the drained region). Innermost first; empty for level-0
    candidates (no refresh loop) or when the refresh loop itself
    carries the dependence. *)
