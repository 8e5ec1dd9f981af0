(* The benchmark executable. One process runs one workload:

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --selftest       reduced sizes, exact pins; exit 1 on failure
     perfbench --manifest       print BENCHMARK.json

   With --trace 0 it times set-up and passes, spans calibrating the
   host but recording nothing, and prints the end-to-end metrics; with
   --trace 1 it alternates untraced and traced passes and prints the
   per-layer metrics. The last line of stdout is one JSON object
   {correct, attempted, failed, metrics}. *)

open Measure
module W = Workloads

let fl = float_of_int

(* Run [f] in a forked child and return the float it computes. The
   child's allocations never reach this process's heap or RSS. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let v = try f () with _ -> nan in
    let s = Printf.sprintf "%h\n" v in
    ignore (Unix.write_substring wr s 0 (String.length s));
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let s = try input_line ic with End_of_file -> "nan" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    float_of_string s

(* Set-up is timed over [setup_reads] readings of [setup_batch]
   set-ups. Each reading runs in its own child process, so every
   reading starts from the same heap and the repetitions leave this
   process's memory as one set-up would. A single set-up is timed like
   a pass, each layer call a calibrated step; a batch of short ones is
   converted to reference seconds as one step ([Host]). setup_s is the
   median reading divided by the batch. The passes then use one more,
   untimed set-up. *)
let timed_setup (w : W.t) ~seed ck =
  let prepare () = ignore (Sys.opaque_identity (w.W.prepare W.Full ~seed)) in
  let reading () =
    if w.W.setup_batch = 1 then begin
      Span.start_pass ();
      Span.on := true;
      let t0 = now () in
      prepare ();
      let wall = now () -. t0 in
      Span.on := false;
      snd (Span.pass_reference ~wall)
    end
    else
      let (), dt =
        Host.timed (fun () ->
            for _ = 1 to w.W.setup_batch do
              prepare ()
            done)
      in
      dt /. fl w.W.setup_batch
  in
  let reads = List.init w.W.setup_reads (fun _ -> in_child reading) in
  Check.record ck "every set-up reading completes" (List.for_all Float.is_finite reads);
  (median reads, w.W.prepare W.Full ~seed)

type pass = {
  counts : W.counts;
  wall : float;  (** wall seconds, calibration excluded *)
  dt : float;  (** reference seconds *)
  minor_words : float;  (** calibration excluded *)
  major_collections : int;
  heap_words : int;
}

(* One pass from a compacted heap, its spans calibrated ([Span]); the
   compaction and the calibrations are outside the time. With [record]
   the spans' totals are kept for the per-layer metrics. A pass that
   raises is a failed check and ends the run. *)
let timed_pass ?(record = false) (run : W.run) ck =
  Gc.compact ();
  Span.start_pass ();
  Span.on := true;
  Span.record := record;
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let result = try Ok (run.W.pass ck) with e -> Error e in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  Span.on := false;
  match result with
  | Ok counts ->
    let wall, dt = Span.pass_reference ~wall:(t1 -. t0) in
    Some
      {
        counts;
        wall;
        dt;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words -. !Span.calibration_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        heap_words = g1.Gc.heap_words;
      }
  | Error e ->
    Check.record ck ("pass raised " ^ Printexc.to_string e) false;
    None

let min_passes = 2

(* Run [next k] for k = 0, 1, ... until [seconds] of wall time would be
   exceeded by one more pass of the last pass's length, and at least
   [min] times. Every pass's exact counts must equal the first pass's. *)
let pass_loop ?(min = min_passes) ~seconds ck next =
  let t_start = now () in
  let rec go acc k =
    match next k with
    | None -> List.rev acc
    | Some p ->
      let acc = p :: acc in
      if k + 1 < min || now () -. t_start +. p.wall <= seconds then go acc (k + 1)
      else List.rev acc
  in
  let ps = go [] 0 in
  (match ps with
  | first :: rest ->
    List.iter
      (fun p -> Check.record ck "exact counts repeat from pass to pass" (p.counts = first.counts))
      rest
  | [] -> ());
  ps

let gc_metrics ps =
  [
    ("gc.minor_words", median (List.map (fun p -> p.minor_words) ps));
    ("gc.major_collections", median (List.map (fun p -> fl p.major_collections) ps));
    ( "gc.heap_mb",
      median (List.map (fun p -> fl (p.heap_words * (Sys.word_size / 8)) /. 1048576.) ps) );
  ]

(* peak_rss_mb is read after the first pass, so it does not depend on
   how many passes fit in the run. *)
let measured (w : W.t) ~seed ~seconds ck =
  let setup_s, run = timed_setup w ~seed ck in
  let rss = ref nan in
  let ps =
    pass_loop ~seconds ck (fun k ->
        let p = timed_pass run ck in
        if k = 0 then rss := peak_rss_mb ();
        p)
  in
  let pass_s = median (List.map (fun p -> p.dt) ps) in
  let count key = match ps with p :: _ -> fl (W.get p.counts key) | [] -> nan in
  Printf.printf "%s: %d passes, wall s (reference s): %s\n" w.W.name (List.length ps)
    (String.concat ", " (List.map (fun p -> Printf.sprintf "%.4f (%.4f)" p.wall p.dt) ps));
  [
    ("setup_s", setup_s);
    ("pass_s", pass_s);
    ("work_per_s", count "work" /. pass_s);
    ("words_moved", count "words_moved");
    ("peak_rss_mb", !rss);
    ("ok_ratio", Check.ok_ratio ck);
  ]

(* Traced set-up and probe: every span recorded, in reference seconds. *)
let traced_setup (w : W.t) ~seed = Span.recorded (fun () -> w.W.prepare W.Full ~seed)

let traced_probe (run : W.run) ck =
  snd
    (Span.recorded (fun () ->
         try run.W.probe ck with e -> Check.record ck ("probe raised " ^ Printexc.to_string e) false))

let traced_pass run ck =
  Option.map
    (fun p -> (p, Span.snapshot (), !Span.covered))
    (timed_pass ~record:true run ck)

let median_by_name (samples : (string * float) list list) =
  match samples with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (name, _) -> (name, median (List.map (fun s -> List.assoc name s) samples)))
      first

(* The workload's own traced passes: untraced and traced passes
   alternate, so the overhead compares passes run side by side. *)
let own_layers (w : W.t) ~seed ~seconds ck =
  let run, setup_spans = traced_setup w ~seed in
  let traced = ref [] in
  let ps =
    pass_loop ~min:4 ~seconds ck (fun k ->
        if k mod 2 = 0 then timed_pass run ck
        else
          Option.map
            (fun ((p, _, _) as t) ->
              traced := t :: !traced;
              p)
            (traced_pass run ck))
  in
  let untraced = List.filteri (fun k _ -> k mod 2 = 0) ps in
  let probe_spans = traced_probe run ck in
  let samples =
    List.map
      (fun (p, spans, _) -> w.W.layers (Span.lookup [ spans; probe_spans; setup_spans ]) p.counts)
      !traced
  in
  let dts l = median (List.map (fun p -> p.dt) l) in
  let traced_ps = List.map (fun (p, _, _) -> p) !traced in
  median_by_name samples
  @ gc_metrics untraced
  @ [
      ("host.speed_factor", median (List.map (fun p -> p.dt /. p.wall) ps));
      ("trace.span_coverage", median (List.map (fun (p, _, covered) -> covered /. p.wall) !traced));
      ("trace.overhead_ratio", (dts traced_ps /. dts untraced) -. 1.);
    ]

(* Per-layer metrics the workload does not produce come from one traced
   set-up and pass of the first workload, in this order, that does. *)
let companion_order = [ "spill"; "recompute"; "stream"; "kernel" ]

let companion (h : W.t) ~seed ck =
  Gc.compact ();
  let run, setup_spans = traced_setup h ~seed in
  match traced_pass run ck with
  | Some (p, pass_spans, _) ->
    let probe_spans = traced_probe run ck in
    h.W.layers (Span.lookup [ pass_spans; probe_spans; setup_spans ]) p.counts
  | None -> []

let per_layer (w : W.t) ~seed ~seconds ck =
  let own = own_layers w ~seed ~seconds ck in
  let wanted = List.map (fun m -> m.Manifest.name) Manifest.per_layer in
  let missing have = List.filter (fun n -> not (List.mem_assoc n have)) wanted in
  let have =
    List.fold_left
      (fun have name ->
        if name = w.W.name || missing have = [] then have
        else
          let h = Option.get (W.find name) in
          let m = companion h ~seed ck in
          have @ List.filter (fun (n, _) -> List.mem n (missing have)) m)
      own companion_order
  in
  List.map
    (fun n ->
      match List.assoc_opt n have with
      | Some v -> (n, v)
      | None ->
        Check.record ck ("per-layer metric " ^ n ^ " produced") false;
        (n, 0.))
    wanted

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result (w : W.t) ck metrics =
  let metrics =
    List.map
      (fun (n, v) ->
        if Float.is_finite v then (n, v)
        else begin
          Check.record ck ("metric " ^ n ^ " is finite") false;
          (n, 0.)
        end)
      metrics
  in
  List.iter
    (fun (n, v) -> Printf.printf "%-10s %-40s %14.6g %s\n" w.W.name n v (Manifest.unit_of n))
    metrics;
  List.iter (fun f -> Printf.eprintf "FAILED: %s\n" f) (List.rev ck.Check.failures);
  let body =
    String.concat ", "
      (List.map
         (fun (n, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) (Manifest.unit_of n))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (ck.Check.failed = 0 && ck.Check.attempted > 0)
    (max 1 ck.Check.attempted) ck.Check.failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let mode = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME stream | spill | recompute | kernel");
      ("--seed", Arg.Set_int seed, "N operand-data seed");
      ("--seconds", Arg.Set_float seconds, "S how long the passes run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
      ("--selftest", Arg.Unit (fun () -> mode := `Selftest), " reduced-size self-test");
      ("--manifest", Arg.Unit (fun () -> mode := `Manifest), " print BENCHMARK.json");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !mode with
  | `Manifest -> print_string (Manifest.render ())
  | `Selftest -> exit (Selftest.run ())
  | `Run -> (
    match W.find !workload with
    | None ->
      Printf.eprintf "perfbench: unknown workload %S\n%s\n" !workload usage;
      exit 2
    | Some w ->
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "perfbench: --trace must be 0 or 1";
        exit 2
      end;
      let ck = Check.create () in
      let metrics =
        if !trace = 0 then measured w ~seed:!seed ~seconds:!seconds ck
        else per_layer w ~seed:!seed ~seconds:!seconds ck
      in
      print_result w ck metrics)
