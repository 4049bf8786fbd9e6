(* Per-layer numbers of the traced run: the timing device wrapper, the
   deltas of the program's own counters over the measured phase, the
   layer table (self time per layer plus the residual of the benchmark's
   own loop, which must add up to the traced wall time) and the Chrome
   trace file. *)

module Device = Rvm_disk.Device
module Span = Probe.Span

(* A timing layer over a device the benchmark built itself. *)
let timed_device prefix (d : Device.t) =
  let r = Span.id (prefix ^ ".read")
  and w = Span.id (prefix ^ ".write")
  and s = Span.id (prefix ^ ".sync") in
  Device.layer
    ~read:(fun b ~off ~buf ~pos ~len ->
      Span.add_bytes r len;
      Probe.span r (fun () -> b.Device.read ~off ~buf ~pos ~len))
    ~write:(fun b ~off ~buf ~pos ~len ->
      Span.add_bytes w len;
      Probe.span w (fun () -> b.Device.write ~off ~buf ~pos ~len))
    ~sync:(fun b -> Probe.span s (fun () -> b.Device.sync ()))
    d

let delta c0 c1 name =
  let get c = Option.value (List.assoc_opt name c) ~default:0 in
  get c1 - get c0

(* Physical writes and syncs of the log devices. *)
let dev_stats (devs : Device.t list) =
  List.fold_left
    (fun (w, s) (d : Device.t) -> (w + d.Device.stats.Device.writes, s + d.Device.stats.Device.syncs))
    (0, 0) devs

let dev_delta (w0, s0) (w1, s1) = (w1 - w0, s1 - s0)

(* {1 Layers} *)

let layer_of name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> (
    match (String.sub name 0 i, name) with
    | _, ("engine.truncation_step" | "engine.truncate") -> "truncation"
    | "pbtree", _ -> "pds"
    | "scheduler", _ -> "server"
    | prefix, _ -> prefix)

let layers = [ "rvm"; "disk"; "engine"; "truncation"; "server"; "pds" ]

(* Self time per layer over the measured phase, plus [loop]: the
   part of the wall time no top-level span covers (the benchmark's own
   loop, generator and shadow model). *)
let shares ~wall_s (snap : Span.snapshot) =
  let spans = snap.Span.spans in
  let self l =
    List.fold_left
      (fun acc (a : Span.agg) -> if layer_of a.Span.name = l then acc + a.Span.self else acc)
      0 spans
  in
  let per = List.map (fun l -> (l, float_of_int (self l) /. 1e9)) layers in
  per @ [ ("loop", wall_s -. snap.Span.top_s) ]

(* Stated bound on |layers + loop - wall| / wall. Self times of
   properly nested spans sum to the top-level spans exactly, so a larger
   gap means a span escaped its parent. *)
let accounting_bound = 0.01

let table ~workload ~wall_s snap =
  let per = shares ~wall_s snap in
  let accounted = List.fold_left (fun acc (_, s) -> acc +. s) 0. per in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) per in
  let largest =
    List.find_opt (fun (l, s) -> l <> "loop" && s > 0.) sorted
    |> Option.map fst |> Option.value ~default:"none"
  in
  let gap = Float.abs (accounted -. wall_s) /. wall_s in
  let calls =
    List.sort (fun (a : Span.agg) b -> compare b.Span.self a.Span.self) snap.Span.spans
    |> List.filteri (fun i (a : Span.agg) -> i < 3 && a.Span.self > 0)
    |> List.map (fun (a : Span.agg) ->
           Printf.sprintf "%s %.2f%%" a.Span.name
             (100. *. float_of_int a.Span.self /. 1e9 /. wall_s))
  in
  ( [ Printf.sprintf "layer table (%s, traced wall %.4f s, self time per layer):"
        workload wall_s ]
    @ List.map
        (fun (l, s) -> Printf.sprintf "  %-12s %10.4f s  %6.2f%%" l s (100. *. s /. wall_s))
        sorted
    @ [
        Printf.sprintf "  layers + loop = %.4f s; gap %.4f%% of wall (bound %.0f%%)"
          accounted (100. *. gap) (100. *. accounting_bound);
        Printf.sprintf "largest layer: %s (largest calls by self time: %s)" largest
          (String.concat ", " calls);
      ],
    gap <= accounting_bound )

(* {1 The per-layer metric list}

   Every traced run reports every metric below, so a layer a workload
   bypasses reads 0 there: that is the "no change" prediction. *)

type server = {
  self_s : float;
  quanta : int;
  aborts : int;
  committed : int;
  reads : int;
  batches : int;
  shed : int;
  cross_committed : int;
  cross_aborted : int;
}

type vm = { faults : int; evictions : int; pageouts : int }

let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* [p] is the merged traced phase and [untraced] the rates and
   operation count of the untraced slices. [counters], [dev], [server]
   and [vm] cover both kinds of slice (tracing does not change them), so
   their per-operation ratios divide by both slices' operations. *)
let per_layer ~workload ~(p : Common.phase) ~untraced:(untraced_rates, untraced_ops)
    ~committed ~counters ~dev:(dev_writes, dev_syncs) ~(server : server option)
    ~(vm : vm option) ~recover snap =
  let wall_s = p.Common.seconds and ops = p.Common.ops + untraced_ops in
  let ops_per_s = Probe.median p.Common.rates
  and untraced_ops_per_s = Probe.median untraced_rates in
  let find name =
    List.find_opt (fun (a : Span.agg) -> a.Span.name = name) snap.Span.spans
  in
  let calls name = match find name with Some a -> a.Span.calls | None -> 0 in
  let busy name = match find name with Some a -> float_of_int a.Span.incl /. 1e9 | None -> 0. in
  let bytes name = match find name with Some a -> a.Span.bytes | None -> 0 in
  let m = Report.m in
  let timed prefix names =
    List.concat_map
      (fun n ->
        let s = prefix ^ "." ^ n in
        [ m (s ^ ".calls") "count" (float_of_int (calls s)); m (s ^ ".busy_s") "s" (busy s) ])
      names
  in
  let rvm =
    timed "rvm" [ "begin"; "set_range"; "load"; "store"; "end_noflush"; "end_flush"; "flush" ]
    @ [
        m "rvm.recover.calls" "count" (float_of_int (fst recover));
        m "rvm.recover.busy_s" "s" (snd recover);
      ]
  in
  let intra = counters "opt.intra.saved_bytes" and inter = counters "opt.inter.saved_bytes" in
  let original = counters "log.bytes_logged" + intra + inter in
  let opt =
    [
      m "opt.intra_saved_frac" "ratio" (frac intra original);
      m "opt.inter_saved_frac" "ratio" (frac inter original);
    ]
  in
  let log =
    [
      m "log.append_bytes_per_commit" "B" (frac (counters "log.append.bytes") committed);
      m "log.force_absorbed_frac" "ratio"
        (frac (counters "log.force.absorbed") (counters "log.force.count"));
    ]
  in
  let truncation =
    [
      m "truncation.epochs" "count" (float_of_int (counters "truncation.epoch.count"));
      m "truncation.steps" "count"
        (float_of_int (counters "truncation.incremental.step.count"));
    ]
  in
  let disk =
    List.concat_map
      (fun dev ->
        let p = "disk." ^ dev in
        List.concat_map
          (fun op ->
            let s = p ^ "." ^ op in
            [ m (s ^ ".calls") "count" (float_of_int (calls s)); m (s ^ ".busy_s") "s" (busy s) ]
            @ if op = "sync" then [] else [ m (s ^ ".bytes") "B" (float_of_int (bytes s)) ])
          [ "write"; "sync"; "read" ])
      [ "log"; "seg" ]
    @ [
        m "disk.syncs_per_commit" "ratio" (frac dev_syncs committed);
        m "disk.writes_per_commit" "ratio" (frac dev_writes committed);
      ]
  in
  let engine =
    timed "engine"
      [ "begin_txn"; "set_range"; "load"; "store"; "end_txn"; "abort"; "flush";
        "truncation_step"; "truncate" ]
  in
  let sv =
    match server with
    | None -> { self_s = 0.; quanta = 0; aborts = 0; committed = 0; reads = 0; batches = 0;
                shed = 0; cross_committed = 0; cross_aborted = 0 }
    | Some s -> s
  in
  let server =
    [
      m "server.self_s" "s" sv.self_s;
      m "server.quanta" "count" (float_of_int sv.quanta);
      m "server.abort_frac" "ratio" (frac sv.aborts (sv.aborts + sv.committed));
      m "server.commits_per_flush" "ratio" (frac sv.committed sv.batches);
      m "server.snapshot_read_frac" "ratio" (frac sv.reads (sv.reads + sv.committed));
      m "admission.shed" "count" (float_of_int sv.shed);
      m "shard.cross_abort_frac" "ratio"
        (frac sv.cross_aborted (sv.cross_committed + sv.cross_aborted));
    ]
  in
  let pds = timed "pbtree" [ "get"; "put" ] in
  let v = Option.value vm ~default:{ faults = 0; evictions = 0; pageouts = 0 } in
  let vm =
    [
      m "vm.faults_per_op" "ratio" (frac v.faults ops);
      m "vm.evictions_per_op" "ratio" (frac v.evictions ops);
      m "vm.pageouts_per_op" "ratio" (frac v.pageouts ops);
    ]
  in
  let per = shares ~wall_s snap in
  let accounted = List.fold_left (fun acc (_, s) -> acc +. s) 0. per in
  let share =
    List.map (fun (l, s) -> m ("layer." ^ l ^ ".self_frac") "ratio" (s /. wall_s)) per
  in
  let trace =
    [
      m "trace.untraced_ops_per_s" "1/s" untraced_ops_per_s;
      m "trace.traced_ops_per_s" "1/s" ops_per_s;
      m "trace.overhead_frac" "ratio" (1. -. (ops_per_s /. untraced_ops_per_s));
      m "trace.accounted_frac" "ratio" (accounted /. wall_s);
    ]
  in
  let table, within = table ~workload ~wall_s snap in
  (rvm @ opt @ log @ truncation @ disk @ engine @ server @ pds @ vm @ share @ trace, table, within)

let write_trace workload =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir ("trace-" ^ workload ^ ".json") in
  let oc = open_out path in
  output_string oc (Rvm_obs.Json.to_string (Span.to_chrome ~layer_of));
  close_out oc;
  Printf.sprintf "trace: %d spans written to %s" !Span.kept path
