(* The measured phase shared by the closed-loop workloads, the
   alternation of untraced and traced slices in a traced run, and the
   end-to-end metric set every workload reports from its untraced run.
   What counts as an operation, a read, an update and a flush on each
   workload is stated in README.md. *)

module S = Probe.Samples

type phase = {
  mutable ops : int;
  mutable seconds : float;  (** monotonic *)
  mutable cpu_seconds : float;  (** thread CPU time *)
  mutable rates : float list;  (** ops per CPU second, per chunk *)
  op_ns : S.t;
  read_ns : S.t;
  update_ns : S.t;
  flush_ns : S.t;
  sim_ns : S.t;  (** simulated latency per operation *)
  mutable sim_us : float;
  mutable user_bytes : int;
  mutable alloc_words : float;
  mutable heap_words : int;
      (** major heap after set-up and a fixed warm-up (OCaml 5.1 never
          shrinks the major heap, so this is the peak until then) *)
}

let phase () =
  {
    ops = 0; seconds = 0.; cpu_seconds = 0.; rates = []; op_ns = S.create (); read_ns = S.create ();
    update_ns = S.create (); flush_ns = S.create (); sim_ns = S.create (); sim_us = 0.;
    user_bytes = 0; alloc_words = 0.; heap_words = 0;
  }

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* Run [step p] until [budget] is spent, accumulating into [p]. [step]
   performs one operation and records its samples; [sim_now] reads the
   simulated clock. A throughput and percentile chunk lasts [chunk_ns]
   (a [Budget.chunks]-th of [budget] by default). *)
let measure ?(p = phase ()) ?chunk_ns ~sim_now budget step =
  let chunk_ns = match chunk_ns with Some n -> n | None -> Budget.chunk_ns budget in
  let sim0 = sim_now () in
  let words0 = Probe.alloc_words () in
  let t_start = Probe.now_ns () and cpu_start = Probe.cpu_ns () in
  let ops = ref 0 and chunk_t = ref t_start and chunk_cpu = ref cpu_start and chunk_ops = ref 0 in
  let rates = ref [] in
  while not (Budget.over budget ~ops:!ops ~t_start) do
    for i = 1 to Budget.batch do
      Probe.Span.op := p.ops + !ops + i;
      step p
    done;
    ops := !ops + Budget.batch;
    chunk_ops := !chunk_ops + Budget.batch;
    let now = Probe.now_ns () in
    if now - !chunk_t >= chunk_ns then begin
      let cpu = Probe.cpu_ns () in
      rates := (float_of_int !chunk_ops /. (float_of_int (cpu - !chunk_cpu) /. 1e9)) :: !rates;
      List.iter S.mark [ p.op_ns; p.read_ns; p.update_ns; p.flush_ns ];
      chunk_t := now;
      chunk_cpu := cpu;
      chunk_ops := 0
    end
  done;
  let seconds = Probe.seconds_since t_start in
  let cpu_seconds = Probe.cpu_seconds_since cpu_start in
  p.alloc_words <- p.alloc_words +. (Probe.alloc_words () -. words0);
  p.sim_us <- p.sim_us +. (sim_now () -. sim0);
  p.ops <- p.ops + !ops;
  p.seconds <- p.seconds +. seconds;
  p.cpu_seconds <- p.cpu_seconds +. cpu_seconds;
  p.rates <- (if !rates = [] then [ float_of_int !ops /. cpu_seconds ] else !rates) @ p.rates;
  p

(* A traced run alternates [slices] untraced and [slices] traced slices
   of the budget on the same world, so drift over the run lands on both
   sides of the tracing-overhead ratio. [traced] runs with spans
   enabled. Returns the rates and total operations of the untraced
   slices, and the merged traced phase. *)
let slices = 5

let alternate budget ~plain ~traced =
  let per = Budget.split budget (2 * slices) in
  let rates = ref [] and trates = ref [] and ops = ref 0 and p = phase () in
  for _ = 1 to slices do
    let u = plain per in
    rates := (float_of_int u.ops /. u.cpu_seconds) :: !rates;
    ops := !ops + u.ops;
    Probe.Span.enabled := true;
    let ops0 = p.ops and s0 = p.cpu_seconds in
    traced p per;
    Probe.Span.enabled := false;
    trates := (float_of_int (p.ops - ops0) /. (p.cpu_seconds -. s0)) :: !trates
  done;
  p.rates <- !trates;
  ((!rates, !ops), p)

(* Printed but left out of the result. [read_p99_us] sat on a cliff
   (parked lookups on tpca-server, collections on the microsecond reads
   of the other two) and spread 29-30% over four seeds, above any bound
   the benchmark may set. [sim_p99_ms] lands on a fixed cost of the
   model on ycsb-btree (the same value for every seed), and a time that
   never changes cannot be told from one that is not measured. *)
let notes ~(p : phase) =
  let line name unit s scale =
    Printf.sprintf "%s %s %s (n=%d; printed only, not bounded)" name
      (Report.number (S.pct ~scale s 99.)) unit (S.count s)
  in
  [ line "read_p99_us" "us" p.read_ns 1e3; line "sim_p99_ms" "ms" p.sim_ns 1e6 ]

let e2e ~setup ~(p : phase) ~recover_ms ~sim_ops ~log_bytes =
  let m = Report.m in
  let pct name s q = m ~samples:(S.count s) name "us" (S.chunk_pct ~scale:1e3 s q) in
  [
    m ~samples:(List.length setup) "setup_s" "s" (Probe.median setup);
    m ~samples:(List.length p.rates) "ops_per_s" "1/s" (Probe.median p.rates);
    pct "op_p50_us" p.op_ns 50.;
    pct "op_p99_us" p.op_ns 99.;
    pct "flush_p99_us" p.flush_ns 99.;
    pct "update_p99_us" p.update_ns 99.;
    m ~samples:(List.length recover_ms) "recover_ms" "ms" (Probe.median recover_ms);
    m "sim_tps" "1/s" (float_of_int sim_ops /. (p.sim_us /. 1e6));
    m "log_bytes_per_user_byte" "ratio" (float_of_int log_bytes /. float_of_int p.user_bytes);
    m "alloc_words_per_op" "words" (p.alloc_words /. float_of_int p.ops);
    m "peak_heap_mb" "MB"
      (float_of_int (p.heap_words * (Sys.word_size / 8)) /. 1048576.);
  ]
