(* The one sequential scheduler. Every policy of [Schedulers] and
   [Stream_exec] sets a victim rule (dead-first LRU, or MIN), a
   per-value drop rule (spill a live victim, or drop and rebuild it)
   and a graph view (explicit [Workload], or implicit CDAG). State is
   cache-sized but for four bitsets over the vertex ids. *)

module Bits = struct
  let create n = Bytes.make ((n + 7) / 8) '\000'
  let get b i = Char.code (Bytes.unsafe_get b (i lsr 3))
  let mem b i = get b i land (1 lsl (i land 7)) <> 0
  let put b i c = Bytes.unsafe_set b (i lsr 3) (Char.unsafe_chr c)
  let set b i = put b i (get b i lor (1 lsl (i land 7)))
  let clear b i = put b i (get b i land lnot (1 lsl (i land 7)))
end

(* Residents on two recency lists threaded through cache-sized slot
   arrays: slot 0 heads the live list, slot 1 the dead list (values past
   their last use, the preferred victims). [next] runs from the most to
   the least recently touched and both lists stay sorted by touch stamp,
   so a list's tail is its least-recently-touched resident. Free slots
   are chained on [next] from [free]. A resident's slot is found by
   hashing into [bucket] and following [chain], so nothing allocates. *)
type recency = {
  vert : int array; stamp : int array; prev : int array; next : int array;
  chain : int array; bucket : int array;
  mutable free : int;
  mutable clock : int;
}

let recency cap =
  let size = cap + 2 in
  let rec pow2 k = if k >= size then k else pow2 (2 * k) in
  let next s = if s < 2 then s else if s + 1 < size then s + 1 else -1 in
  {
    vert = Array.make size (-1);
    stamp = Array.make size min_int;
    prev = Array.init size (fun s -> if s < 2 then s else -1);
    next = Array.init size next;
    chain = Array.make size (-1);
    bucket = Array.make (pow2 16) (-1);
    free = (if size > 2 then 2 else -1);
    clock = 0;
  }

let home r v = ((v * 0x9E3779B97F4A7C1) lsr 24) land (Array.length r.bucket - 1)
let rec find r v s = if s < 0 || r.vert.(s) = v then s else find r v r.chain.(s)
let slot r v = find r v r.bucket.(home r v)

let unlink r s =
  r.next.(r.prev.(s)) <- r.next.(s);
  r.prev.(r.next.(s)) <- r.prev.(s)

let link_after r h s =
  r.prev.(s) <- h;
  r.next.(s) <- r.next.(h);
  r.prev.(r.next.(h)) <- s;
  r.next.(h) <- s

(* A touch moves a resident to the live list's head: a dead value that
   a rebuild re-demands is live again for that consumer. *)
let touch_slot r v =
  r.clock <- r.clock + 1;
  let s = slot r v in
  let s =
    if s >= 0 then (unlink r s; s)
    else begin
      let s = r.free and h = home r v in
      r.free <- r.next.(s);
      r.vert.(s) <- v;
      r.chain.(s) <- r.bucket.(h);
      r.bucket.(h) <- s;
      s
    end
  in
  r.stamp.(s) <- r.clock;
  link_after r 0 s

(* A value usually dies in the step that touched it last, so the walk
   stops at the dead list's head; a rebuild can re-touch an operand out
   of step order, and the walk then keeps the list sorted. *)
let mark_dead r v =
  let s = slot r v in
  unlink r s;
  let rec older x = if r.stamp.(x) > r.stamp.(s) then older r.next.(x) else x in
  link_after r r.prev.(older r.next.(1)) s

let forget r v =
  let s = slot r v and h = home r v in
  if r.bucket.(h) = s then r.bucket.(h) <- r.chain.(s)
  else begin
    let rec before x = if r.chain.(x) = s then x else before r.chain.(x) in
    r.chain.(before r.bucket.(h)) <- r.chain.(s)
  end;
  unlink r s;
  r.next.(s) <- r.free;
  r.free <- s

(* --- the engine --- *)

(* [Min next_use]: [next_use v now] is the first order step after [now]
   that references [v], [max_int] if none. *)
type rule = Lru | Min of (int -> int -> int)

(* The graph as the engine sees it. [preds] lists operands in
   [Digraph.in_neighbors] order; [remaining v] counts the uses of [v]
   by order steps not yet computed; [consume v p] records that order
   vertex [v] has used its operand [p]. *)
type view = {
  n_vertices : int;
  is_input : int -> bool;
  is_output : int -> bool;
  outputs : int array;
  preds : int -> int list;
  remaining : int -> int;
  consume : int -> int -> unit;
}

type t = {
  who : string;  (** the entry point, for located failures *)
  view : view;
  rule : rule;
  writeback : int -> bool;  (** must a victim be stored first? *)
  cache_size : int; max_flops : int;
  emit : Trace.event -> unit;
  in_cache : Bytes.t; in_slow : Bytes.t; pinned : Bytes.t;
  seen : Bytes.t;  (** ever resident: a loaded input, or a computed value *)
  lru : recency;
  mutable occupancy : int; mutable loads : int; mutable stores : int;
  mutable computes : int; mutable recomputes : int; mutable step : int;
  mutable reloads : int;  (** loads of a value that was resident before *)
  mutable spill_stores : int;  (** stores of non-outputs *)
}

let create ~who ~view ~cache_size ~rule ~writeback ~max_flops ~emit =
  let bits () = Bits.create view.n_vertices in
  let in_slow = bits () in
  for v = 0 to view.n_vertices - 1 do if view.is_input v then Bits.set in_slow v done;
  {
    who; view; cache_size; rule; writeback; max_flops; emit; in_slow;
    in_cache = bits (); pinned = bits (); seen = bits ();
    lru = recency (max 0 (min cache_size view.n_vertices));
    occupancy = 0; loads = 0; stores = 0; computes = 0; recomputes = 0; reloads = 0;
    spill_stores = 0; step = 0;
  }

let fail c fmt = Printf.ksprintf (fun s -> failwith (c.who ^ ": " ^ s)) fmt
let mem = Bits.mem
let touch c v = touch_slot c.lru v

(* LRU takes the dead list's least-recently-touched unpinned resident,
   else the live list's. MIN takes the farthest next use; a tie goes to
   a clean victim (in slow memory, or never written back), whose
   eviction is free, then to the smallest id, so the scan order never
   matters. *)
let rec lru_walk c s =
  if s < 2 then -1
  else if mem c.pinned c.lru.vert.(s) then lru_walk c c.lru.prev.(s)
  else c.lru.vert.(s)

let min_victim c next_use =
  let r = c.lru in
  let best = ref (-1) and best_nu = ref (-1) and best_dirty = ref false in
  let rec scan s =
    if s >= 2 then begin
      let v = r.vert.(s) in
      if not (mem c.pinned v) then begin
        let nu = next_use v c.step and dirty = c.writeback v && not (mem c.in_slow v) in
        if
          nu > !best_nu
          || nu = !best_nu
             && ((!best_dirty && not dirty) || (!best_dirty = dirty && v < !best))
        then (best := v; best_nu := nu; best_dirty := dirty)
      end;
      scan r.next.(s)
    end
  in
  scan r.next.(0);
  scan r.next.(1);
  !best

let victim c =
  let v =
    match c.rule with
    | Lru ->
      let v = lru_walk c c.lru.prev.(1) in
      if v >= 0 then v else lru_walk c c.lru.prev.(0)
    | Min next_use -> min_victim c next_use
  in
  if v < 0 then
    Printf.ksprintf failwith "%s: cache too small (everything pinned)"
      (String.sub c.who 0 (String.index c.who '.'));
  v

let store c v =
  c.emit (Trace.Store v);
  Bits.set c.in_slow v;
  c.stores <- c.stores + 1;
  if not (c.view.is_output v) then c.spill_stores <- c.spill_stores + 1

(* Leave the cache without a write-back. *)
let drop c v =
  c.emit (Trace.Evict v);
  Bits.clear c.in_cache v;
  c.occupancy <- c.occupancy - 1;
  forget c.lru v

let ensure_room c =
  while c.occupancy >= c.cache_size do
    let v = victim c in
    if c.writeback v && not (mem c.in_slow v) then store c v;
    drop c v
  done

let enter c v =
  Bits.set c.in_cache v;
  Bits.set c.seen v;
  c.occupancy <- c.occupancy + 1;
  touch c v

let load c v =
  ensure_room c;
  c.emit (Trace.Load v);
  c.loads <- c.loads + 1;
  if mem c.seen v then c.reloads <- c.reloads + 1;
  enter c v

(* The flop cap is charged before each compute, deep inside a rebuild:
   a failed run never performs more than [max_flops] computations. *)
let compute c v =
  if c.computes >= c.max_flops then
    fail c "flop budget exceeded (cap %d) at compute of vertex %d" c.max_flops v;
  ensure_room c;
  c.emit (Trace.Compute v);
  c.computes <- c.computes + 1;
  if mem c.seen v then c.recomputes <- c.recomputes + 1;
  enter c v

(* The counters, once every output is computed (or is an input). *)
let finish c =
  Array.iter
    (fun o ->
      if not (mem c.seen o || c.view.is_input o) then
        fail c "output vertex %d never computed" o)
    c.view.outputs;
  { Trace.loads = c.loads; stores = c.stores; computes = c.computes;
    recomputes = c.recomputes }

(* Bring back a computed value that is not resident: reload it when slow
   memory holds it, rebuild it from its operands otherwise. *)
let rec materialize c v =
  if mem c.in_slow v then (Bits.set c.pinned v; load c v)
  else begin
    let preds = c.view.preds v in
    List.iter (fun p -> if mem c.in_cache p then touch c p else materialize c p) preds;
    (* re-pin: a sibling's rebuild may have unpinned or evicted one *)
    List.iter
      (fun p ->
        if not (mem c.in_cache p) then materialize c p;
        Bits.set c.pinned p)
      preds;
    compute c v;
    Bits.set c.pinned v;
    List.iter (Bits.clear c.pinned) preds
  end

(* Play the order. A live victim is written back unless [recompute]
   says drop it; dead values leave for free, or join the dead list when
   unstored outputs or unused. A located [Failure] reports a repeated
   order vertex, an operand or output never computed, a cache too small
   for an operand set, the flop cap, and a spill at [cache_size >=
   MAXLIVE], where dead-first eviction is spill-free. *)
let run ~who ~rule ?(recompute = fun _ -> false) ?(max_flops = max_int) ~emit view
    ~cache_size iter_order =
  let writeback v = (view.remaining v > 0 && not (recompute v)) || view.is_output v in
  let c = create ~who ~view ~cache_size ~rule ~writeback ~max_flops ~emit in
  (* Live-set size per Dataflow.order_liveness: an input is live from its
     first use, a value from its definition, both until their last use. *)
  let live = ref 0 and maxlive = ref 0 in
  iter_order (fun v ->
      if mem c.in_cache v || mem c.seen v then
        fail c "order step %d recomputes vertex %d" c.step v;
      let preds = view.preds v in
      List.iter
        (fun p ->
          if mem c.in_cache p then touch c p
          else if mem c.in_slow p || mem c.seen p then begin
            if view.is_input p && not (mem c.seen p) then incr live;
            materialize c p
          end
          else fail c "order step %d (vertex %d): operand %d lost" c.step v p;
          Bits.set c.pinned p)
        preds;
      compute c v;
      incr live;
      maxlive := Int.max !maxlive !live;
      List.iter
        (fun p ->
          Bits.clear c.pinned p;
          view.consume v p;
          if view.remaining p = 0 then begin
            decr live;
            if mem c.in_cache p then
              (* evicting an unstored output only pays its store early *)
              if view.is_output p then mark_dead c.lru p else drop c p
          end)
        preds;
      if view.remaining v = 0 then (decr live; mark_dead c.lru v);
      c.step <- c.step + 1);
  let dirty o = mem c.in_cache o && not (mem c.in_slow o) in
  Array.iter (fun o -> if dirty o then store c o) view.outputs;
  let counters = finish c in
  if cache_size >= !maxlive && (c.reloads > 0 || c.spill_stores > 0) then
    fail c "spill-free invariant violated: cache_size=%d >= maxlive=%d yet reloads=%d \
            spill_stores=%d" cache_size !maxlive c.reloads c.spill_stores;
  counters
