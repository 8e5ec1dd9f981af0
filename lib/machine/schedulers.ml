(* Schedulers: turn a compute order into a legal trace for the
   two-level machine. LRU, Belady and hybrid are settings of the
   [Sched_core] engine over the explicit workload's view (remaining
   uses as a decrementing counter); rematerialization keeps its own
   recursion over the engine's cache primitives. *)

module W = Workload
module D = Fmm_graph.Digraph
module C = Sched_core

type result = {
  trace : Trace.t; (* in execution order *)
  counters : Trace.counters;
}

let view work =
  let g = work.W.graph in
  let remaining = Array.init (W.n_vertices work) (D.out_degree g) in
  {
    C.n_vertices = W.n_vertices work;
    is_input = W.is_input work; is_output = W.is_output work; outputs = work.W.outputs;
    preds = D.in_neighbors g;
    remaining = (fun v -> remaining.(v));
    consume = (fun _ p -> remaining.(p) <- remaining.(p) - 1);
  }

let collect f =
  let events = ref [] in
  let counters = f (fun e -> events := e :: !events) in
  { trace = List.rev !events; counters }

let run who ?recompute ?max_flops ?(rule = C.Lru) work ~cache_size order =
  collect (fun emit ->
      C.run ~who ~rule ?recompute ?max_flops ~emit (view work) ~cache_size (fun f ->
          List.iter f order))

let run_lru work ~cache_size order = run "Schedulers.run_lru" work ~cache_size order

let run_hybrid ?(max_flops = 200_000_000) work ~cache_size ~recompute order =
  run "Schedulers.run_hybrid" ~recompute ~max_flops work ~cache_size order

(* MIN needs the future: the order positions referencing each vertex
   (as an operand, and at its own compute), consumed as steps pass. *)
let run_belady work ~cache_size order =
  let g = work.W.graph in
  let future = Array.make (W.n_vertices work) [] in
  let refer i p = future.(p) <- i :: future.(p) in
  List.iteri (fun i v -> List.iter (refer i) (v :: D.in_neighbors g v)) order;
  Array.iteri (fun v l -> future.(v) <- List.rev l) future;
  let rec next_use v now =
    match future.(v) with
    | t :: rest when t <= now -> future.(v) <- rest; next_use v now
    | [] -> max_int
    | t :: _ -> t
  in
  run "Schedulers.run_belady" ~rule:(C.Min next_use) work ~cache_size order

(* Rematerialization: nothing but inputs is ever reloaded, every
   intermediate is rebuilt from scratch, and an output is stored the
   moment it is computed. Victims are never written back. *)
let run_rematerialize ?(max_flops = 200_000_000) work ~cache_size order =
  let view = view work in
  collect (fun emit ->
      let c =
        C.create ~who:"Schedulers.run_rematerialize" ~view ~cache_size ~rule:C.Lru
          ~writeback:(fun _ -> false) ~max_flops ~emit
      in
      let pin = C.Bits.set c.C.pinned and unpin = C.Bits.clear c.C.pinned in
      let rec materialize v =
        if C.mem c.C.in_cache v then C.touch c v
        else if view.C.is_input v then (pin v; C.load c v)
        else begin
          let preds = view.C.preds v in
          List.iter materialize preds;
          (* re-pin operands: deep recursion may have unpinned them *)
          List.iter
            (fun p ->
              if not (C.mem c.C.in_cache p) then materialize p;
              pin p)
            preds;
          C.compute c v;
          pin v;
          List.iter unpin preds;
          if view.C.is_output v && not (C.mem c.C.in_slow v) then C.store c v
        end
      in
      List.iter (fun v -> materialize v; unpin v) order;
      C.finish c)
