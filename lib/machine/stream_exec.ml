(* Streaming LRU: the engine of [Schedulers.run_lru] over the implicit
   CDAG view, on the ascending-id order, in O(V / 8 + M) space. Operands
   come in reverse [Implicit.iter_preds] order, as [Digraph.in_neighbors]
   lists them; [w]'s remaining uses are #{s in succs(w) | s >= cur}, for
   [cur] the first vertex not yet computed (no parallel edges). *)

module Im = Fmm_cdag.Implicit

let view imp =
  let cur = ref (Im.n_inputs imp) in
  {
    Sched_core.n_vertices = Im.n_vertices imp;
    is_input = (fun v -> v < Im.n_inputs imp);
    is_output = Im.is_output imp;
    outputs = Im.outputs imp;
    preds =
      (fun v ->
        let l = ref [] in
        Im.iter_preds imp v ~f:(fun p _ -> l := p :: !l);
        !l);
    remaining =
      (fun w ->
        let k = ref 0 in
        Im.iter_succs imp w ~f:(fun s -> if s >= !cur then incr k);
        !k);
    consume = (fun v _ -> cur := v + 1);
  }

let run_lru imp ~cache_size ?(on_event = fun (_ : Trace.event) -> ()) () =
  if cache_size < 1 then invalid_arg "Stream_exec.run_lru: cache_size < 1";
  Sched_core.run ~who:"Stream_exec.run_lru" ~rule:Sched_core.Lru ~emit:on_event (view imp)
    ~cache_size (fun f ->
      for v = Im.n_inputs imp to Im.n_vertices imp - 1 do
        f v
      done)

(* Materializing variant for differential tests at small n. *)
let run_lru_collect imp ~cache_size =
  let events = ref [] in
  let counters =
    run_lru imp ~cache_size ~on_event:(fun e -> events := e :: !events) ()
  in
  ({ Schedulers.trace = List.rev !events; counters } : Schedulers.result)
