(* The benchmark's own test, at reduced sizes: every pass's checks must
   hold, exact counts must repeat across two passes and two seeds, and
   counts the experiment registry already establishes are pinned. The
   traced path must produce every per-layer metric the manifest lists. *)

open Measure
module W = Workloads

(* Counts of the reduced configurations, from the registry: NE1 for
   Strassen 16/64 (LRU, Belady, rematerialized) and NE2 for the float64
   kernel at n=256, cutoff 64. *)
let pins =
  [
    ("spill", [ ("lru_io", 8876); ("belady_io", 7192); ("lru_recomputes", 0) ]);
    ("recompute", [ ("remat_recomputes", 447_915); ("remat_io", 263_805) ]);
    ("kernel", [ ("blocked_flops", 33_488_896); ("fast_flops", 26_300_416) ]);
  ]

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let expect_int name ~expected actual =
  expect (Printf.sprintf "%s: expected %d, got %d" name expected actual) (expected = actual)

(* The streamed workload's counts against the explicit graph's: LRU on
   the ascending order, MAXLIVE of that order, and the distributed run
   of the implicit split. *)
let stream_parity (c : W.counts) =
  let n, m, _ = W.stream_size W.Reduced in
  let cdag = Fmm_cdag.Cdag.build W.S.strassen ~n in
  let work = W.Wl.of_cdag cdag in
  let imp = W.Im.create W.S.strassen ~n in
  let inputs = W.Im.n_inputs imp in
  let order = List.init (W.Im.n_vertices imp - inputs) (fun i -> inputs + i) in
  let lru = W.Sch.run_lru work ~cache_size:m order in
  expect_int "stream: LRU I/O = explicit Schedulers.run_lru" ~expected:(W.Tr.io lru.W.Sch.counters)
    (W.get c "lru_io");
  let live = W.Df.order_liveness work (Array.of_list order) in
  expect_int "stream: MAXLIVE = explicit order_liveness" ~expected:live.W.Df.maxlive
    (W.get c "maxlive");
  let split = W.Gen.split_implicit imp ~procs:W.procs in
  let run = W.Pe.run work ~procs:W.procs ~assignment:split.W.Gen.assignment in
  expect_int "stream: split crossing = explicit Par_exec.run" ~expected:run.W.Pe.total_words
    (W.get c "crossing")

(* [W.apply_flops] against [Apply_int.multiply]'s own counters. *)
let apply_parity () =
  let module Ap = Fmm_bilinear.Algorithm.Apply_int in
  List.iter
    (fun (alg, n, cutoff) ->
      let z = Ap.M.zeros n n in
      let _, k = Ap.multiply ~cutoff alg z z in
      expect_int
        (Printf.sprintf "apply_flops %s n=%d cutoff=%d" (Fmm_bilinear.Algorithm.name alg) n cutoff)
        ~expected:(k.Ap.adds + k.Ap.mults)
        (W.apply_flops alg ~cutoff n))
    [
      (W.S.strassen, 16, 1);
      (W.S.strassen, 32, 4);
      (W.S.strassen, 64, 64);
      (W.S.winograd, 32, 2);
    ]

let check_workload (w : W.t) =
  let ck = Check.create () in
  let r1 = w.W.prepare W.Reduced ~seed:1 in
  let a = r1.W.pass ck in
  let b = r1.W.pass ck in
  let r2 = w.W.prepare W.Reduced ~seed:2 in
  let c = r2.W.pass ck in
  expect (w.W.name ^ ": counts repeat across passes") (a = b);
  expect (w.W.name ^ ": counts repeat across seeds") (a = c);
  List.iter (fun (k, v) -> expect_int (w.W.name ^ ": " ^ k) ~expected:v (W.get a k))
    (Option.value (List.assoc_opt w.W.name pins) ~default:[]);
  if w.W.name = "stream" then stream_parity a;
  (* one traced pass: every metric it yields is in the manifest and finite *)
  let r3, setup = Span.recorded (fun () -> w.W.prepare W.Reduced ~seed:3) in
  let counts, pass = Span.recorded (fun () -> r3.W.pass ck) in
  let (), probe = Span.recorded (fun () -> r3.W.probe ck) in
  let layers = w.W.layers (Span.lookup [ pass; probe; setup ]) counts in
  List.iter
    (fun (n, v) ->
      expect (w.W.name ^ ": " ^ n ^ " is a manifest per-layer metric")
        (List.exists (fun m -> m.Manifest.name = n) Manifest.per_layer);
      expect (Printf.sprintf "%s: %s = %g is finite" w.W.name n v) (Float.is_finite v))
    layers;
  expect_int (w.W.name ^ ": failed checks") ~expected:0 ck.Check.failed;
  List.iter (fun f -> Printf.printf "  check failed: %s\n" f) ck.Check.failures;
  Printf.printf "%-10s %d checks, counts %s\n%!" w.W.name ck.Check.attempted
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) a));
  List.map fst layers

let run () =
  apply_parity ();
  let produced = List.concat_map check_workload W.all in
  (* made by the run itself, not by a workload's layers *)
  let run_made = [ "gc."; "host."; "trace." ] in
  List.iter
    (fun m ->
      let name = m.Manifest.name in
      expect ("per-layer metric " ^ name ^ " is produced by some workload")
        (List.mem name produced
        || List.exists (fun p -> String.starts_with ~prefix:p name) run_made))
    Manifest.per_layer;
  if !failures = 0 then begin
    print_endline "perfbench selftest: ok";
    0
  end
  else begin
    Printf.printf "perfbench selftest: %d failures\n" !failures;
    1
  end
