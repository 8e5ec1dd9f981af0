(** Streaming LRU execution of an implicit CDAG on the canonical
    ascending-id topological order. It is the scheduler engine
    [Schedulers.run_lru] runs, over the implicit graph view instead of
    the explicit one, so it emits bit-exactly the same trace, in
    O(V/8 + cache) space: events are pushed to a callback instead of
    materialized, adjacency and remaining uses are computed
    arithmetically, and the recency structure only tracks resident
    vertices. This is what lifts trace-level analysis (I/O counters,
    segment I/O, Lemma 3.6 checks) from n <= 16 to n = 256 and
    beyond. *)

val run_lru :
  Fmm_cdag.Implicit.t ->
  cache_size:int ->
  ?on_event:(Trace.event -> unit) ->
  unit ->
  Trace.counters
(** Execute all non-input vertices in ascending id order under LRU
    write-back spilling, with the same dead-first victim preference as
    [Schedulers.run_lru] — so at [cache_size >= MAXLIVE] of the
    canonical order the run is spill-free (no reload, no store of a
    non-output; asserted, raising [Failure] if violated). [cache_size]
    must exceed the maximum in-degree. [on_event] sees the exact event
    sequence [Schedulers.run_lru] would produce. *)

val run_lru_collect : Fmm_cdag.Implicit.t -> cache_size:int -> Schedulers.result
(** Materialize the full trace (small n only — the differential
    tests' entry point). *)
