(* The benchmark's four workloads. [prepare] is the set-up (timed as
   setup_s); the [pass] it returns is one checked answer (timed as
   pass_s). Every call into a library layer goes through [Span.time],
   which the traced run turns on; [layers] turns the span totals and the
   pass's exact counts into the per-layer metrics.

   The seed drives only operand data (the executor's operands and
   [Kernel.random]). Orders are the deterministic DFS and canonical
   orders, so every count is independent of the seed. *)

module S = Fmm_bilinear.Strassen
module Alg = Fmm_bilinear.Algorithm
module Cd = Fmm_cdag.Cdag
module Im = Fmm_cdag.Implicit
module Tr = Fmm_machine.Trace
module Wl = Fmm_machine.Workload
module Ord = Fmm_machine.Orders
module Sch = Fmm_machine.Schedulers
module Cm = Fmm_machine.Cache_machine
module Seg = Fmm_machine.Segments
module Se = Fmm_machine.Stream_exec
module Pe = Fmm_machine.Par_exec
module Df = Fmm_analysis.Dataflow
module Tc = Fmm_analysis.Trace_check
module Diag = Fmm_analysis.Diagnostic
module Ex = Fmm_exec.Executor
module K = Fmm_exec.Kernel
module Gen = Fmm_sched.Generator
module Prng = Fmm_util.Prng
open Measure

(* [Reduced] is the self-test's size: the same passes and checks in
   seconds. *)
type size = Full | Reduced

(* Exact counts of one pass by name. Every workload returns "work" (the
   units of work_per_s) and "words_moved"; the rest feed the per-layer
   metrics and the self-test's pins. *)
type counts = (string * int) list

type run = {
  pass : Check.t -> counts;
  probe : Check.t -> unit;
      (** traced run only: time on their own the layer calls the pass
          makes indirectly *)
}

type t = {
  name : string;
  setup_batch : int;  (** set-ups per timed reading *)
  setup_reads : int;  (** timed readings; setup_s is their median *)
  prepare : size -> seed:int -> run;
  layers : (string -> Span.stat) -> counts -> (string * float) list;
}

let get (c : counts) key = List.assoc key c
let fl = float_of_int
let ns_per s k = 1e9 *. s /. fl k
let per x k = x /. fl k

(* Distributed placement: 49 = 7^2 processors, one per depth-2
   Strassen subtree for the BFS reference assignment. *)
let procs = 49
let bfs_depth = 2

(* ---------------------------------------------------------------- *)
(* stream: the implicit CDAG, streamed; no graph is materialized.    *)

(* n=64 at M=256, r=32 keeps the ratios of n=128/M=1024/r=64 (n / sqrt M
   = 4, r = n/2, Lemma 3.6 bound r^2/2 - M > 0) and runs the same
   per-vertex code. At n=128 a pass is three calls of up to 3.3 s, so a
   run fits two passes and lasts about 30 s on a slow host; at n=64 it
   fits about ten passes in half the time. *)
let stream_size = function Full -> (64, 256, 32) | Reduced -> (16, 64, 8)

let valid_split (s : Gen.split) ~nv =
  Array.length s.Gen.assignment = nv
  && Array.for_all (fun p -> p >= 0 && p < procs) s.Gen.assignment
  && s.Gen.cuts.(0) = 0
  && s.Gen.cuts.(procs) = Array.length s.Gen.order

let stream =
  {
    name = "stream";
    setup_batch = 20_000;
    setup_reads = 7;
    prepare =
      (fun size ~seed:_ ->
        let n, m, r = stream_size size in
        let imp = Span.time "implicit.create" (fun () -> Im.create S.strassen ~n) in
        let nv = Im.n_vertices imp in
        let computed = nv - Im.n_inputs imp in
        let last_lru = ref None in
        let pass ck =
          let seg, lru =
            Span.time "segments.analyze_implicit" (fun () ->
                Seg.analyze_implicit imp ~cache_size:m ~r ())
          in
          last_lru := Some lru;
          Check.record ck "stream: Lemma 3.6 holds on every full segment"
            (Seg.lemma_3_6_holds seg);
          Check.record ck "stream: LRU computes every non-input exactly once"
            (lru.Tr.computes = computed && lru.Tr.recomputes = 0);
          let live =
            Span.time "dataflow.implicit_order_liveness" (fun () ->
                Df.implicit_order_liveness imp)
          in
          Check.equal ck "stream: liveness sweeps every non-input" ~expected:computed
            live.Df.Streamed.length;
          Check.record ck "stream: LRU I/O >= the order's static lower bound"
            (Tr.io lru >= Df.streamed_io_lower_bound live ~cache_size:m);
          let split =
            Span.time "generator.split_implicit" (fun () -> Gen.split_implicit imp ~procs)
          in
          Check.record ck "stream: split is a 49-way partition of every vertex"
            (valid_split split ~nv);
          [
            ("work", 3 * nv);
            ("words_moved", Tr.io lru + split.Gen.crossing);
            ("vertices", nv);
            ("lru_io", Tr.io lru);
            ("segments", List.length seg.Seg.segments);
            ("maxlive", live.Df.Streamed.maxlive);
            ("crossing", split.Gen.crossing);
          ]
        in
        let probe ck =
          Span.time "implicit.adjacency" (fun () ->
              for v = 0 to nv - 1 do
                Im.iter_preds imp v ~f:(fun _ _ -> ());
                Im.iter_succs imp v ~f:ignore
              done);
          (* segments.self_s is analyze_implicit minus the streaming LRU
             under it, timed here alternately, twice each *)
          for _ = 1 to 2 do
            let c = Span.time "stream_exec.run_lru" (fun () -> Se.run_lru imp ~cache_size:m ()) in
            Check.record ck "stream: Stream_exec.run_lru counters = segment analysis counters"
              (Some c = !last_lru);
            ignore
              (Span.time "segments.analyze_implicit.probe" (fun () ->
                   Seg.analyze_implicit imp ~cache_size:m ~r ()))
          done
        in
        { pass; probe });
    layers =
      (fun span c ->
        let nv = get c "vertices" in
        let adj = span "implicit.adjacency" and se = span "stream_exec.run_lru" in
        let seg = span "segments.analyze_implicit.probe" in
        let df = span "dataflow.implicit_order_liveness" in
        [
          ("implicit.adj_ns_per_query", ns_per adj.Span.s (2 * nv));
          ("implicit.minor_words_per_query", per adj.Span.words (2 * nv));
          ("stream_exec.ns_per_vertex", ns_per se.Span.s (se.Span.calls * nv));
          ("stream_exec.minor_words_per_vertex", per se.Span.words (se.Span.calls * nv));
          ("segments.self_s", (seg.Span.s -. se.Span.s) /. fl se.Span.calls);
          ("dataflow.ns_per_vertex", ns_per df.Span.s nv);
          ("dataflow.minor_words_per_vertex", per df.Span.words nv);
          ("generator.split_s", (span "generator.split_implicit").Span.s);
          ("generator.crossing_words", fl (get c "crossing"));
        ]);
  }

(* ---------------------------------------------------------------- *)
(* spill and recompute: explicit CDAGs, traces replayed and executed. *)

let explicit_setup ~n =
  let cdag = Span.time "cdag.build" (fun () -> Cd.build S.strassen ~n) in
  let work = Span.time "cdag.of_cdag" (fun () -> Wl.of_cdag cdag) in
  let order = Span.time "orders.recursive_dfs" (fun () -> Ord.recursive_dfs cdag) in
  (cdag, work, order)

(* Schedule the order under one policy, then replay, check and execute
   the trace. Only the counts survive, so one trace is alive at a time. *)
let schedule_and_check ck ~seed ~m cdag work order (policy, schedule) =
  let r = Span.time ("schedulers." ^ policy) (fun () -> schedule work ~cache_size:m order) in
  let check what ok = Check.record ck (policy ^ ": " ^ what) ok in
  let replayed =
    Span.time "cache_machine.replay" (fun () ->
        Cm.replay { Cm.cache_size = m; allow_recompute = true } work r.Sch.trace)
  in
  check "replay counters = scheduler counters" (replayed = r.Sch.counters);
  let tc = Span.time "trace_check.check" (fun () -> Tc.check ~cache_size:m work r.Sch.trace) in
  check "Trace_check reports zero errors" (Diag.n_errors tc.Tc.report = 0);
  let ex =
    Span.time "executor.run_backend" (fun () ->
        Ex.run_backend cdag ~cache_size:m ~sched:r ~seed `F64)
  in
  check "F64 result = classical MM within 1e-9" ex.Ex.result_ok;
  check "executed counters = scheduler counters"
    (ex.Ex.counters_ok && ex.Ex.executed = r.Sch.counters);
  let k = r.Sch.counters in
  [
    (policy ^ "_events", Tr.length r.Sch.trace);
    (policy ^ "_io", Tr.io k);
    (policy ^ "_computes", k.Tr.computes);
    (policy ^ "_recomputes", k.Tr.recomputes);
  ]

(* Per-layer metrics both explicit workloads share: set-up layers,
   each scheduler they ran, and the three trace interpreters over all
   their traces. *)
let explicit_layers ~policies span c =
  let nv = get c "vertices" in
  let build = span "cdag.build" and of_cdag = span "cdag.of_cdag" in
  let events = List.fold_left (fun acc p -> acc + get c (p ^ "_events")) 0 policies in
  let ex = span "executor.run_backend" in
  [
    ("cdag.build_s", build.Span.s);
    ("cdag.ns_per_vertex", ns_per (build.Span.s +. of_cdag.Span.s) nv);
    ("cdag.minor_words_per_vertex", per (build.Span.words +. of_cdag.Span.words) nv);
    ("orders.dfs_s", (span "orders.recursive_dfs").Span.s);
    ("cache_machine.ns_per_event", ns_per (span "cache_machine.replay").Span.s events);
    ("trace_check.ns_per_event", ns_per (span "trace_check.check").Span.s events);
    ("executor.ns_per_event", ns_per ex.Span.s events);
    ("executor.minor_words_per_event", per ex.Span.words events);
  ]
  @ List.concat_map
      (fun p ->
        let sp = span ("schedulers." ^ p) and ev = get c (p ^ "_events") in
        [
          ("schedulers." ^ p ^ "_s", sp.Span.s);
          ("schedulers." ^ p ^ ".ns_per_event", ns_per sp.Span.s ev);
          ("schedulers." ^ p ^ ".minor_words_per_event", per sp.Span.words ev);
          ("schedulers." ^ p ^ ".io_words", fl (get c (p ^ "_io")));
        ])
      policies

let spill_size = function Full -> (64, 1024) | Reduced -> (16, 64)
let spill_policies = [ ("lru", Sch.run_lru); ("belady", Sch.run_belady) ]

let spill =
  {
    name = "spill";
    setup_batch = 1;
    setup_reads = 3;
    prepare =
      (fun size ~seed ->
        let n, m = spill_size size in
        let cdag, work, order = explicit_setup ~n in
        let order_arr = Array.of_list order in
        let pass ck =
          let sched = List.concat_map (schedule_and_check ck ~seed ~m cdag work order) spill_policies in
          Check.record ck "spill: Belady I/O <= LRU I/O" (get sched "belady_io" <= get sched "lru_io");
          let split =
            Span.time "generator.split_order" (fun () -> Gen.split_order work ~procs order_arr)
          in
          let bfs =
            Span.time "par_exec.bfs_assignment" (fun () ->
                Pe.bfs_assignment cdag ~depth:bfs_depth ~procs)
          in
          let bfs_run = Span.time "par_exec.run" (fun () -> Pe.run work ~procs ~assignment:bfs) in
          let run =
            Span.time "par_exec.run" (fun () -> Pe.run work ~procs ~assignment:split.Gen.assignment)
          in
          Check.equal ck "spill: split crossing = Par_exec.run total words"
            ~expected:split.Gen.crossing run.Pe.total_words;
          Check.record ck "spill: split words <= BFS words"
            (run.Pe.total_words <= bfs_run.Pe.total_words);
          let v =
            Span.time "par_check.validate" (fun () ->
                Gen.validate work ~procs ~assignment:split.Gen.assignment)
          in
          Check.record ck "spill: split assignment validates clean"
            (Diag.n_errors v.Fmm_analysis.Par_check.report = 0
            && v.Fmm_analysis.Par_check.lost_outputs = 0);
          sched
          @ [
              ("work", 4 * (get sched "lru_events" + get sched "belady_events"));
              ( "words_moved",
                get sched "lru_io" + get sched "belady_io" + run.Pe.total_words
                + bfs_run.Pe.total_words );
              ("vertices", Wl.n_vertices work);
              ("crossing", split.Gen.crossing);
              ("bfs_words", bfs_run.Pe.total_words);
              ("split_max_words", run.Pe.max_words);
            ]
        in
        { pass; probe = ignore });
    layers =
      (fun span c ->
        explicit_layers ~policies:[ "lru"; "belady" ] span c
        @ [
            ("generator.split_s", (span "generator.split_order").Span.s);
            ("generator.crossing_words", fl (get c "crossing"));
            ("generator.vs_bfs_ratio", fl (get c "crossing") /. fl (get c "bfs_words"));
            ("par_exec.bfs_assignment_s", (span "par_exec.bfs_assignment").Span.s);
            ("par_exec.run_s", (span "par_exec.run").Span.s);
            ("par_exec.max_words", fl (get c "split_max_words"));
            ("par_check.validate_s", (span "par_check.validate").Span.s);
          ]);
  }

(* Already seconds at full size, and the size the registry pins (NE1:
   447 915 recomputes), so the self-test runs it unreduced. *)
let recompute_n = 16
let recompute_m = 64

let recompute =
  {
    name = "recompute";
    setup_batch = 20;
    setup_reads = 7;
    prepare =
      (fun _size ~seed ->
        let cdag, work, order = explicit_setup ~n:recompute_n in
        let pass ck =
          let c =
            schedule_and_check ck ~seed ~m:recompute_m cdag work order
              ("remat", fun w ~cache_size o -> Sch.run_rematerialize w ~cache_size o)
          in
          c
          @ [
              ("work", 4 * get c "remat_events");
              ("words_moved", get c "remat_io");
              ("vertices", Wl.n_vertices work);
            ]
        in
        { pass; probe = ignore });
    layers =
      (fun span c ->
        let first = get c "remat_computes" - get c "remat_recomputes" in
        explicit_layers ~policies:[ "remat" ] span c
        @ [ ("schedulers.recompute_ratio", fl (get c "remat_recomputes") /. fl first) ]);
  }

(* ---------------------------------------------------------------- *)
(* kernel: float64 recursive Strassen against blocked classical.      *)

let kernel_size = function Full -> 1024 | Reduced -> 256
let kernel_cutoff = 64

(* Flops of [Algorithm.Apply.multiply ~cutoff] on n x n operands, from
   its counting rule: a classical leaf costs n^3 mults and n^2 (n - 1)
   adds; a linear form starts from a free copy of a +1 term (or pays
   one block for its first term when it has none), then pays one block
   per further term and one more per coefficient other than +-1. The
   self-test checks this against [Apply_int.multiply]. *)
let apply_flops alg ~cutoff n =
  let n0, _, _ = Alg.dims alg in
  let cost c = if c = 1 || c = -1 then 1 else 2 in
  let form coeffs =
    match List.filter (( <> ) 0) (Array.to_list coeffs) with
    | [] -> 0
    | first :: _ as nz ->
      let all = List.fold_left (fun acc c -> acc + cost c) 0 nz in
      if List.mem 1 nz then all - 1 else all - cost first + 1
  in
  let forms rows = Array.fold_left (fun acc row -> acc + form row) 0 rows in
  let per_step = forms (Alg.u_matrix alg) + forms (Alg.v_matrix alg) + forms (Alg.w_matrix alg) in
  let rec go n =
    if n <= cutoff || n mod n0 <> 0 then (n * n * n) + (n * n * (n - 1))
    else
      let r = n / n0 in
      (Alg.rank alg * go r) + (per_step * r * r)
  in
  go n

(* Computed, not measured: the words of the operand and temporary
   matrices each call creates. blocked_mul makes the result and two
   NB-word copy-in panels; fast_mul makes 2 n^2 words of operand blocks,
   2 (n/n0)^2 words of encoded operands per product, and n^2 words each
   of decoded blocks and result per recursion step. *)
let blocked_words n =
  let nb = K.nb_default in
  (n * n) + (((nb + K.mu - 1) / K.mu * K.mu * nb) + ((nb + K.nu - 1) / K.nu * K.nu * nb))

let fast_words alg ~cutoff n =
  let n0, _, _ = Alg.dims alg in
  let rec go n =
    if n <= cutoff || n mod n0 <> 0 then blocked_words n
    else
      let r = n / n0 in
      (2 * n * n) + (Alg.rank alg * ((2 * r * r) + go r)) + (2 * n * n)
  in
  go n

let kernel =
  {
    name = "kernel";
    setup_batch = 1;
    setup_reads = 9;
    prepare =
      (fun size ~seed ->
        let n = kernel_size size in
        let rng = Prng.create ~seed in
        let a = Span.time "kernel.random" (fun () -> K.random rng n) in
        let b = Span.time "kernel.random" (fun () -> K.random rng n) in
        let fast_flops = apply_flops S.strassen ~cutoff:kernel_cutoff n in
        let classical = K.classical_flops n in
        let blocked_flops = classical.K.adds + classical.K.mults in
        let pass ck =
          let c, f =
            Span.time "kernel.fast_mul" (fun () -> K.fast_mul ~cutoff:kernel_cutoff S.strassen a b)
          in
          let reference = Span.time "kernel.blocked_mul" (fun () -> K.blocked_mul a b) in
          Check.record ck "kernel: fast_mul = blocked_mul within 1e-9"
            (K.rel_err c ~reference <= 1e-9);
          Check.equal ck "kernel: fast_mul flops = Apply's" ~expected:fast_flops
            (f.K.adds + f.K.mults);
          [
            ("work", fast_flops + blocked_flops);
            ( "words_moved",
              fast_words S.strassen ~cutoff:kernel_cutoff n + blocked_words n );
            ("fast_flops", f.K.adds + f.K.mults);
            ("blocked_flops", blocked_flops);
          ]
        in
        { pass; probe = ignore });
    layers =
      (fun span c ->
        let fast = span "kernel.fast_mul" and bl = span "kernel.blocked_mul" in
        let ff = fl (get c "fast_flops") and bf = fl (get c "blocked_flops") in
        [
          ("kernel.fast_gflops", ff /. fast.Span.s /. 1e9);
          ("kernel.blocked_gflops", bf /. bl.Span.s /. 1e9);
          ("kernel.flop_ratio", ff /. bf);
          ("kernel.minor_words_per_mflop", (fast.Span.words +. bl.Span.words) /. ((ff +. bf) /. 1e6));
        ]);
  }

let all = [ stream; spill; recompute; kernel ]
let find name = List.find_opt (fun w -> w.name = name) all
