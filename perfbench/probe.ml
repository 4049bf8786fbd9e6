(* Host-clock instruments shared by the workloads: a monotonic
   nanosecond clock, latency sample buffers, allocation/heap readings,
   and the in-memory span recorder of the traced run. *)

(* Two host clocks. [now_ns] is the monotonic clock: cheap (no system
   call), used for spans, run budgets and coda-commit's microsecond
   operations. [cpu_ns] is this thread's CPU time: a system call (~0.5 µs
   here), but it leaves out time the vCPU was stolen or the thread was
   preempted, which otherwise dominated the spread of millisecond-scale
   timings (a 3 ms steal slice lands inside a 3 ms flush). It times
   throughput chunks, set-up, recovery, and the operations of
   tpca-server and ycsb-btree. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

external cpu_ns : unit -> int = "perfbench_thread_cpu_ns" [@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
let cpu_seconds_since t0 = float_of_int (cpu_ns () - t0) /. 1e9

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Latency samples in integer nanoseconds (host or simulated), kept in a
   Bigarray: recording a sample never allocates on the OCaml heap, so
   the buffers perturb neither [alloc_words_per_op] nor [peak_heap_mb]. *)
module Samples = struct
  module A = Bigarray.Array1

  type t = {
    mutable a : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
    mutable n : int;
    mutable marks : int list;  (** sample counts at chunk ends, latest first *)
  }

  let create () = { a = A.create Bigarray.int Bigarray.c_layout 4096; n = 0; marks = [] }

  let add s v =
    if s.n = A.dim s.a then begin
      let b = A.create Bigarray.int Bigarray.c_layout (2 * s.n) in
      A.blit s.a (A.sub b 0 s.n);
      s.a <- b
    end;
    A.unsafe_set s.a s.n v;
    s.n <- s.n + 1

  let count s = s.n

  (* Nearest-rank percentile of samples [lo, hi), divided by [scale]; 0
     for an empty range (callers never report one). *)
  let pct_range ~scale s ~lo ~hi p =
    let n = hi - lo in
    if n <= 0 then 0.
    else begin
      let c = Array.init n (fun i -> A.get s.a (lo + i)) in
      Array.sort compare c;
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      float_of_int c.(max 0 (min (n - 1) (rank - 1))) /. scale
    end

  let pct ?(scale = 1.) s p = pct_range ~scale s ~lo:0 ~hi:s.n p

  (* Close a chunk: the samples added since the previous mark form one
     chunk of [chunk_pct]. *)
  let mark s = match s.marks with m :: _ when m = s.n -> () | _ -> s.marks <- s.n :: s.marks

  (* The chunks between marks, as [lo, hi) ranges. A chunk of fewer than
     [min_chunk] samples is merged into the next one (the last into the
     one before it), so no percentile rests on a handful of samples. *)
  let min_chunk = 200

  let chunks s =
    let ends = List.rev (s.n :: s.marks) in
    let rec go lo acc = function
      | [] -> (
        match acc with
        | (l, _) :: rest when lo < s.n -> List.rev ((l, s.n) :: rest)
        | _ -> List.rev (if lo < s.n then (lo, s.n) :: acc else acc))
      | e :: rest when e - lo >= min_chunk -> go e ((lo, e) :: acc) rest
      | _ :: rest -> go lo acc rest
    in
    go 0 [] ends

  (* Median over chunks of each chunk's percentile: a stall of the
     machine inflates the tail of the chunks it falls in, not the
     reported value. Without marks this is the plain percentile. *)
  let chunk_pct ?(scale = 1.) s p =
    match chunks s with
    | [] -> 0.
    | cs -> median (List.map (fun (lo, hi) -> pct_range ~scale s ~lo ~hi p) cs)
end

(* Words allocated by this domain so far (minor + direct major
   allocations); deterministic for a deterministic program. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* {1 Spans}

   The traced run wraps the calls the benchmark makes into each layer's
   public functions. Each wrapped call is a span: name, start, end,
   parent span and the id of the operation that caused it. Every span is
   aggregated per name (calls, inclusive and self time, where self time
   is the duration minus the time covered by direct children); the first
   [keep] spans are also kept verbatim for the Chrome trace file. *)
module Span = struct
  type agg = {
    name : string;
    mutable calls : int;
    mutable incl : int;
    mutable self : int;
    mutable bytes : int;  (** payload bytes, for device spans *)
  }

  let names : (string, int) Hashtbl.t = Hashtbl.create 64
  let aggs : agg array ref = ref [||]

  let id name =
    match Hashtbl.find_opt names name with
    | Some k -> k
    | None ->
      let k = Array.length !aggs in
      Hashtbl.replace names name k;
      aggs := Array.append !aggs [| { name; calls = 0; incl = 0; self = 0; bytes = 0 } |];
      k

  let max_depth = 64
  let depth = ref 0
  let child_ns = Array.make (max_depth + 1) 0
  let id_stack = Array.make (max_depth + 1) 0
  let top_ns = ref 0
  let next_id = ref 0
  let op = ref 0

  let keep = 50_000
  let kept = ref 0
  let k_name = Array.make keep 0
  let k_start = Array.make keep 0
  let k_end = Array.make keep 0
  let k_id = Array.make keep 0
  let k_parent = Array.make keep 0
  let k_op = Array.make keep 0

  let reset () =
    Array.iter
      (fun a ->
        a.calls <- 0;
        a.incl <- 0;
        a.self <- 0;
        a.bytes <- 0)
      !aggs;
    depth := 0;
    top_ns := 0;
    next_id := 0;
    kept := 0

  let finish k d sid t0 =
    let t1 = now_ns () in
    let dur = t1 - t0 in
    let a = Array.unsafe_get !aggs k in
    a.calls <- a.calls + 1;
    a.incl <- a.incl + dur;
    a.self <- a.self + dur - child_ns.(d);
    depth := d;
    if d = 0 then top_ns := !top_ns + dur
    else child_ns.(d - 1) <- child_ns.(d - 1) + dur;
    if !kept < keep then begin
      let i = !kept in
      k_name.(i) <- k;
      k_start.(i) <- t0;
      k_end.(i) <- t1;
      k_id.(i) <- sid;
      k_parent.(i) <- (if d = 0 then 0 else id_stack.(d - 1));
      k_op.(i) <- !op;
      kept := i + 1
    end

  (* Spans are recorded only while [enabled]: a traced run switches it
     on for its traced slices. *)
  let enabled = ref false

  let run k f =
    let d = !depth in
    if (not !enabled) || d >= max_depth then f ()
    else begin
      incr next_id;
      let sid = !next_id in
      id_stack.(d) <- sid;
      child_ns.(d) <- 0;
      depth := d + 1;
      let t0 = now_ns () in
      match f () with
      | v ->
        finish k d sid t0;
        v
      | exception e ->
        finish k d sid t0;
        raise e
    end

  let add_bytes k n =
    if !enabled then begin
      let a = Array.unsafe_get !aggs k in
      a.bytes <- a.bytes + n
    end

  type snapshot = { spans : agg list; top_s : float  (** top-level span time *) }

  (* A copy of every aggregate, so later spans (recovery) do not leak
     into the numbers of the measured phase. *)
  let snapshot () =
    {
      spans =
        Array.to_list
          (Array.map
             (fun a -> { name = a.name; calls = a.calls; incl = a.incl; self = a.self; bytes = a.bytes })
             !aggs);
      top_s = float_of_int !top_ns /. 1e9;
    }

  let find name = Option.map (fun k -> !aggs.(k)) (Hashtbl.find_opt names name)
  let calls name = match find name with Some a -> a.calls | None -> 0

  let busy_s name =
    match find name with Some a -> float_of_int a.incl /. 1e9 | None -> 0.

  (* Chrome trace_event JSON ("X" complete events, microsecond times
     relative to the first kept span). *)
  let to_chrome ~layer_of =
    let module J = Rvm_obs.Json in
    let n = !kept in
    let base = if n = 0 then 0 else Array.fold_left min max_int (Array.sub k_start 0 n) in
    let us t = float_of_int (t - base) /. 1e3 in
    let ev i =
      let name = !aggs.(k_name.(i)).name in
      J.Obj
        [
          ("name", J.String name);
          ("cat", J.String (layer_of name));
          ("ph", J.String "X");
          ("ts", J.Float (us k_start.(i)));
          ("dur", J.Float (float_of_int (k_end.(i) - k_start.(i)) /. 1e3));
          ("pid", J.Int 1);
          ("tid", J.Int 1);
          ( "args",
            J.Obj
              [
                ("id", J.Int k_id.(i));
                ("parent", J.Int k_parent.(i));
                ("op", J.Int k_op.(i));
              ] );
        ]
    in
    J.Obj
      [
        ("traceEvents", J.List (List.init n ev));
        ("displayTimeUnit", J.String "ns");
      ]
end

let span = Span.run
