(* What the benchmark measures, in one place: the workloads and why
   each was chosen, the end-to-end metrics with the bound by which each
   may worsen before a change counts as a regression, and the per-layer
   metrics of the traced run. BENCHMARK.json is rendered from this
   ([perfbench --manifest]). *)

type better = Lower | Higher
type metric = { name : string; unit : string; better : better }

let run_seconds = 15

let workloads =
  [
    ( "stream",
      "implicit Strassen n=64 streamed at M=256: LRU segment fold (r=32), liveness sweep \
       and 49-way split; no explicit graph, trace or kernel work" );
    ( "spill",
      "explicit Strassen n=64 at M=1024: LRU and Belady traces replayed, checked and \
       executed, then split 49 ways and run distributed" );
    ( "recompute",
      "explicit Strassen n=16 at M=64 rematerialized: short recursive recomputation and \
       long traces through the same interpreters" );
    ( "kernel",
      "float64 n=1024: recursive Strassen fast_mul (cutoff 64) against blocked classical; \
       the only workload of the kernel layer" );
  ]

(* name, unit, better, bound *)
let end_to_end =
  [
    ("setup_s", "s", Lower, 0.25);
    ("pass_s", "s", Lower, 0.25);
    ("work_per_s", "1/s", Higher, 0.25);
    ("words_moved", "words", Lower, 0.01);
    ("peak_rss_mb", "MB", Lower, 0.1);
    ("ok_ratio", "ratio", Higher, 0.01);
  ]

let m name unit better = { name; unit; better }

let per_layer =
  [
    m "implicit.adj_ns_per_query" "ns" Lower;
    m "implicit.minor_words_per_query" "words" Lower;
    m "stream_exec.ns_per_vertex" "ns" Lower;
    m "stream_exec.minor_words_per_vertex" "words" Lower;
    m "segments.self_s" "s" Lower;
    m "dataflow.ns_per_vertex" "ns" Lower;
    m "dataflow.minor_words_per_vertex" "words" Lower;
    m "cdag.build_s" "s" Lower;
    m "cdag.ns_per_vertex" "ns" Lower;
    m "cdag.minor_words_per_vertex" "words" Lower;
    m "orders.dfs_s" "s" Lower;
    m "schedulers.lru_s" "s" Lower;
    m "schedulers.belady_s" "s" Lower;
    m "schedulers.remat_s" "s" Lower;
    m "schedulers.lru.ns_per_event" "ns" Lower;
    m "schedulers.belady.ns_per_event" "ns" Lower;
    m "schedulers.remat.ns_per_event" "ns" Lower;
    m "schedulers.lru.minor_words_per_event" "words" Lower;
    m "schedulers.belady.minor_words_per_event" "words" Lower;
    m "schedulers.remat.minor_words_per_event" "words" Lower;
    m "schedulers.lru.io_words" "words" Lower;
    m "schedulers.belady.io_words" "words" Lower;
    m "schedulers.remat.io_words" "words" Lower;
    m "schedulers.recompute_ratio" "ratio" Lower;
    m "cache_machine.ns_per_event" "ns" Lower;
    m "trace_check.ns_per_event" "ns" Lower;
    m "executor.ns_per_event" "ns" Lower;
    m "executor.minor_words_per_event" "words" Lower;
    m "generator.split_s" "s" Lower;
    m "generator.crossing_words" "words" Lower;
    m "generator.vs_bfs_ratio" "ratio" Lower;
    m "par_exec.bfs_assignment_s" "s" Lower;
    m "par_exec.run_s" "s" Lower;
    m "par_exec.max_words" "words" Lower;
    m "par_check.validate_s" "s" Lower;
    m "kernel.fast_gflops" "GFLOP/s" Higher;
    m "kernel.blocked_gflops" "GFLOP/s" Higher;
    m "kernel.flop_ratio" "ratio" Lower;
    m "kernel.minor_words_per_mflop" "words" Lower;
    m "gc.minor_words" "words" Lower;
    m "gc.major_collections" "count" Lower;
    m "gc.heap_mb" "MB" Lower;
    m "host.speed_factor" "ratio" Higher;
    m "trace.span_coverage" "ratio" Higher;
    m "trace.overhead_ratio" "ratio" Lower;
  ]

let unit_of name =
  match List.find_opt (fun (n, _, _, _) -> n = name) end_to_end with
  | Some (_, u, _, _) -> u
  | None -> (List.find (fun mt -> mt.name = name) per_layer).unit

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let render () =
  let q s = Printf.sprintf "%S" s in
  let lines f xs = String.concat ",\n" (List.map f xs) in
  String.concat "\n"
    [
      "{";
      "  \"command\": [\"python3\", \"perfbench/run.py\"],";
      "  \"paths\": [\"perfbench\"],";
      Printf.sprintf "  \"run_seconds\": %d," run_seconds;
      "  \"workloads\": [";
      lines (fun (n, why) -> Printf.sprintf "    {\"name\": %s, \"why\": %s}" (q n) (q why)) workloads;
      "  ],";
      "  \"end_to_end\": [";
      lines
        (fun (n, u, b, bound) ->
          Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}" (q n) (q u)
            (q (better_to_string b)) bound)
        end_to_end;
      "  ],";
      "  \"per_layer\": [";
      lines
        (fun mt ->
          Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s}" (q mt.name) (q mt.unit)
            (q (better_to_string mt.better)))
        per_layer;
      "  ]";
      "}";
    ]
  ^ "\n"
