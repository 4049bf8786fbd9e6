(* Host-clock benchmark entry point; see README.md. Run through run.py:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload all ...
     main.exe --selftest

   The last line of standard output is the JSON result. A failed
   correctness check exits with status 1. *)

let workloads =
  [
    ("coda-commit", Coda_commit.run);
    ("tpca-server", Tpca_server.run);
    ("ycsb-btree", Ycsb_btree.run);
  ]

let run name ~seed ~budget ~trace =
  Probe.Span.reset ();
  (List.assoc name workloads) ~seed ~budget ~trace

let json r =
  Report.result_json ~correct:(Report.correct r) ~attempted:r.Report.attempted
    ~failed:r.Report.failed r.Report.metrics

(* {1 Determinism self-test}

   At small fixed sizes, two runs with one seed must agree exactly on
   every count-type metric (untraced and traced) and pass their checks,
   and another seed must change the operation stream. Each run is a
   fresh process, so no state of an earlier run can leak into a later
   one. *)

let selftest_sizes = [ ("coda-commit", 4_000); ("tpca-server", 1_500); ("ycsb-btree", 2_000) ]

(* Metrics that count work rather than time it. *)
let count_type name =
  let ends s = String.ends_with ~suffix:s name in
  List.mem name
    [ "log_bytes_per_user_byte"; "alloc_words_per_op"; "sim_tps";
      "truncation.epochs"; "truncation.steps"; "server.quanta"; "admission.shed" ]
  || (ends ".calls" || ends ".bytes" || ends "_frac" || ends "_per_op" || ends "_per_commit")
     && not (String.starts_with ~prefix:"layer." name || String.starts_with ~prefix:"trace." name)

type child = {
  ok : bool;
  result : Rvm_obs.Json.t;
  digest : string;
  sim_p99 : string option;  (** the printed [sim_p99_ms] line *)
}

(* Run this executable on one fixed-size workload; its output goes to a
   file under perfbench/out. *)
let child name ~seed ~ops ~trace =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (Printf.sprintf "selftest-%s-%d-%b.txt" name seed trace) in
  let args =
    [ "--workload"; name; "--seed"; string_of_int seed; "--ops"; string_of_int ops;
      "--trace"; (if trace then "1" else "0") ]
  in
  let code = Sys.command (Filename.quote_command Sys.executable_name ~stdout:file args) in
  let ic = open_in file in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  close_in ic;
  let prefix = "  stream digest " in
  let digest =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix l then
          Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
        else None)
      lines
  in
  let result = Rvm_obs.Json.of_string (List.nth lines (List.length lines - 1)) in
  {
    ok = code = 0 && Rvm_obs.Json.member "correct" result = Some (Rvm_obs.Json.Bool true);
    result;
    digest = Option.value digest ~default:"";
    sim_p99 = List.find_opt (String.starts_with ~prefix:"  sim_p99_ms ") lines;
  }

let metrics_of c =
  match Rvm_obs.Json.member "metrics" c.result with
  | Some (Rvm_obs.Json.Obj ms) ->
    List.map (fun (name, m) -> (name, Option.get (Rvm_obs.Json.member "value" m))) ms
  | _ -> []

let selftest () =
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun s -> incr failures; print_endline ("  FAIL " ^ s)) fmt
  in
  List.iter
    (fun (name, ops) ->
      List.iter
        (fun trace ->
          let a = child name ~seed:11 ~ops ~trace and b = child name ~seed:11 ~ops ~trace in
          if not (a.ok && b.ok) then fail "%s (trace %b): a check failed" name trace;
          let field k c = Rvm_obs.Json.member k c.result in
          if field "attempted" a <> field "attempted" b || field "failed" a <> field "failed" b
          then fail "%s: error_rate (failed / attempted) differs" name;
          if a.sim_p99 <> b.sim_p99 then fail "%s: sim_p99_ms differs" name;
          let compared = ref 0 in
          List.iter2
            (fun (n, x) (_, y) ->
              if count_type n then begin
                incr compared;
                if x <> y then
                  fail "%s: %s differs between runs (%s vs %s)" name n
                    (Rvm_obs.Json.to_string x) (Rvm_obs.Json.to_string y)
              end)
            (metrics_of a) (metrics_of b);
          Printf.printf
            "  %s (trace %b): %d count-type metrics, error_rate and sim_p99_ms identical across two runs\n%!"
            name trace !compared;
          if not trace then begin
            let c = child name ~seed:12 ~ops ~trace in
            if c.digest = a.digest then
              fail "%s: seed 12 generated the same operation stream as seed 11" name
            else Printf.printf "  %s: seed 12 changes the operation stream\n%!" name
          end)
        [ false; true ])
    selftest_sizes;
  if !failures = 0 then begin
    print_endline "selftest: ok";
    0
  end
  else begin
    Printf.printf "selftest: %d failure(s)\n" !failures;
    1
  end

(* A 1M-word (8 MiB) minor heap instead of the default 256k words. At
   the default, coda-commit's ~2k allocated words per transaction put a
   minor collection in ~0.8% of operations, right at p99, so the p99
   flipped between runs on whether it landed on a collection; at 1M
   words collections hit ~0.2% of operations. The setting is the same
   for every commit measured, and collection cost still shows in
   ops_per_s and alloc_words_per_op. *)
let minor_heap_words = 1 lsl 20

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0
  and ops = ref 0 and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME coda-commit, tpca-server, ycsb-btree or all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of measurement");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--ops", Arg.Set_int ops, "N measure N operations instead of --seconds (self-test)");
      ("--selftest", Arg.Set self, " determinism self-test at small sizes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --selftest";
  if !self then exit (selftest ());
  let names =
    if !workload = "all" then List.map fst workloads
    else if List.mem_assoc !workload workloads then [ !workload ]
    else begin
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    end
  in
  let budget = if !ops > 0 then Budget.Ops !ops else Budget.Seconds !seconds in
  let trace = !trace = 1 in
  let reports = List.map (fun n -> run n ~seed:!seed ~budget ~trace) names in
  List.iter Report.print reports;
  let result =
    match reports with
    | [ r ] -> json r
    | rs ->
      Report.result_json
        ~correct:(List.for_all Report.correct rs)
        ~attempted:(List.fold_left (fun a r -> a + r.Report.attempted) 0 rs)
        ~failed:(List.fold_left (fun a r -> a + r.Report.failed) 0 rs)
        (List.concat_map
           (fun r ->
             List.map
               (fun (m : Report.metric) -> { m with Report.name = r.Report.workload ^ "/" ^ m.Report.name })
               r.Report.metrics)
           rs)
  in
  print_endline (Rvm_obs.Json.to_string result);
  if not (List.for_all Report.correct reports) then exit 1
