(* Measurement plumbing shared by every workload: the check ledger that
   feeds ok_ratio, the host-speed calibration, the spans that time each
   call into the library, and readings of the clock and the process's
   memory high-water mark. *)

let now = Unix.gettimeofday

(* Every check a pass makes is recorded here, pass or fail; a failed
   check is counted, never dropped. *)
module Check = struct
  type t = {
    mutable attempted : int;
    mutable failed : int;
    mutable failures : string list;  (** first few names, newest first *)
  }

  let create () = { attempted = 0; failed = 0; failures = [] }

  let record t name ok =
    t.attempted <- t.attempted + 1;
    if not ok then begin
      t.failed <- t.failed + 1;
      if List.length t.failures < 16 then t.failures <- name :: t.failures
    end

  let equal t name ~expected actual =
    record t (Printf.sprintf "%s (expected %d, got %d)" name expected actual) (expected = actual)

  let ok_ratio t =
    if t.attempted = 0 then 0. else float_of_int (t.attempted - t.failed) /. float_of_int t.attempted
end

(* The hosts this benchmark runs on are shared: the speed of a core
   moves between regimes about 2x apart that last from seconds to tens
   of minutes, and every part of the program slows together. Every
   reported time is therefore normalized by a calibration loop of the
   benchmark's own code, timed just before and just after the measured
   interval ([Span] does this per layer call): [wall * reference_s /
   calibration] is the time in seconds at the speed where the loop takes
   [reference_s]. The loop
   mixes the two kinds of work the workloads do: float arithmetic over
   arrays, and allocation with list and hash-table traffic. It never
   calls the library, so a change to the program cannot move it. *)
module Host = struct
  let reference_s = 0.01
  let side = 120
  let fa = Array.init (side * side) (fun i -> float_of_int (i mod 7) -. 3.)
  let fb = Array.init (side * side) (fun i -> float_of_int (i mod 5) -. 2.)

  let loop () =
    let c = Array.make (side * side) 0. in
    for i = 0 to side - 1 do
      for k = 0 to side - 1 do
        let aik = fa.((i * side) + k) in
        for j = 0 to side - 1 do
          c.((i * side) + j) <- c.((i * side) + j) +. (aik *. fb.((k * side) + j))
        done
      done
    done;
    let h = Hashtbl.create 16 in
    let l = List.init 20_000 (fun i -> (i, i * 7)) in
    List.iter (fun (i, v) -> Hashtbl.replace h (i * 31 mod 16_384) v) l;
    List.fold_left (fun acc (i, _) -> acc + Option.value (Hashtbl.find_opt h i) ~default:0) 0 l
    + int_of_float c.(side + 1)

  (* median of three timed loops *)
  let calibration () =
    let one () =
      let t0 = now () in
      ignore (Sys.opaque_identity (loop ()));
      now () -. t0
    in
    match List.sort compare [ one (); one (); one () ] with
    | [ _; m; _ ] -> m
    | _ -> assert false

  let speed ~before ~after = reference_s /. ((before +. after) /. 2.)

  (* [timed f] is [f ()] with its time in reference seconds *)
  let timed f =
    let before = calibration () in
    let t0 = now () in
    let x = f () in
    let wall = now () -. t0 in
    (x, wall *. speed ~before ~after:(calibration ()))
end

(* Spans around the benchmark's calls into the library. Spans do not
   nest: the benchmark calls one layer function at a time. Off, a span
   is one branch around the call. On, every span is a step of the pass:
   the host is calibrated at its start (unless a calibration has just
   ended) and at its end, and its wall time is converted to reference
   seconds at the mean of the two readings, so a pass of several long
   calls follows the host through regime changes inside it. With
   [record] also on, the span adds its reference time and minor-heap
   words to a per-name total (the traced run). *)
module Span = struct
  type stat = { s : float; words : float; calls : int }

  let on = ref false
  let record = ref false
  let table : (string, stat) Hashtbl.t = Hashtbl.create 32

  (* of the current pass: wall and reference seconds inside spans, and
     wall seconds and minor words spent calibrating *)
  let covered = ref 0.
  let reference = ref 0.
  let calibrating = ref 0.
  let calibration_words = ref 0.
  let last = ref (neg_infinity, nan)

  let calibrate () =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let c = Host.calibration () in
    let t1 = now () in
    calibrating := !calibrating +. (t1 -. t0);
    calibration_words := !calibration_words +. (Gc.minor_words () -. w0);
    last := (t1, c);
    c

  let start_pass () =
    Hashtbl.reset table;
    covered := 0.;
    reference := 0.;
    calibrating := 0.;
    calibration_words := 0.;
    last := (neg_infinity, nan)

  let time name f =
    if not !on then f ()
    else begin
      let before =
        let t, c = !last in
        if now () -. t < 0.05 then c else calibrate ()
      in
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let x = f () in
      let wall = now () -. t0 in
      let words = Gc.minor_words () -. w0 in
      let dt = wall *. Host.speed ~before ~after:(calibrate ()) in
      covered := !covered +. wall;
      reference := !reference +. dt;
      if !record then begin
        let st =
          Option.value (Hashtbl.find_opt table name) ~default:{ s = 0.; words = 0.; calls = 0 }
        in
        Hashtbl.replace table name { s = st.s +. dt; words = st.words +. words; calls = st.calls + 1 }
      end;
      x
    end

  (* Reference seconds of a pass of [wall] seconds, calibration
     excluded: its spans as converted, the rest at their mean speed. *)
  let pass_reference ~wall =
    let wall = wall -. !calibrating in
    let speed =
      if !covered > 0. then !reference /. !covered
      else Host.speed ~before:(calibrate ()) ~after:(calibrate ())
    in
    (wall, !reference +. ((wall -. !covered) *. speed))

  let snapshot () = Hashtbl.fold (fun k st acc -> (k, st) :: acc) table []

  (* [f ()] with every span recorded, and the spans' totals *)
  let recorded f =
    start_pass ();
    on := true;
    record := true;
    let x = Fun.protect f ~finally:(fun () -> on := false) in
    (x, snapshot ())

  (* A span's totals from the first snapshot that has it (a traced
     pass, then its probe, then its set-up); a span that never ran
     reads as zero. *)
  let lookup snapshots name =
    let rec find = function
      | [] -> { s = 0.; words = 0.; calls = 0 }
      | t :: rest -> ( match List.assoc_opt name t with Some st -> st | None -> find rest)
    in
    find snapshots
end

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* The process's resident-set high-water mark (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
