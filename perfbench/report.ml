(* What one workload run hands back to main.ml, and how it is printed:
   a human-readable block (metric, value, unit, sample count) followed by
   the one-line JSON result, always the last line of standard output. *)

module Json = Rvm_obs.Json

type metric = {
  name : string;
  value : float;
  unit : string;
  samples : int;  (** samples behind a percentile or median; 0 = a total *)
}

let m ?(samples = 0) name unit value = { name; value; unit; samples }

type t = {
  workload : string;
  checks : (string * bool) list;  (** named correctness checks *)
  attempted : int;
  failed : int;  (** refused (shed) or failed operations *)
  metrics : metric list;  (** end-to-end (untraced) or per-layer (traced) *)
  notes : string list;  (** extra human-readable lines (layer table) *)
  digest : int;  (** fingerprint of the generated operation stream *)
}

let correct r = r.checks <> [] && List.for_all snd r.checks

(* Shortest decimal that reads back as the same float, so values keep
   all their digits. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print r =
  Printf.printf "workload %s\n" r.workload;
  List.iter
    (fun mt ->
      Printf.printf "  %-34s %16s %-6s%s\n" mt.name (number mt.value) mt.unit
        (if mt.samples > 0 then Printf.sprintf "  (n=%d)" mt.samples else ""))
    r.metrics;
  List.iter (fun l -> Printf.printf "  %s\n" l) r.notes;
  List.iter
    (fun (name, ok) ->
      Printf.printf "  check %-50s %s\n" name (if ok then "ok" else "FAILED"))
    r.checks;
  Printf.printf "  attempted %d, failed (shed or failed) %d, error_rate %s\n  stream digest %d\n%!"
    r.attempted r.failed
    (number (float_of_int r.failed /. float_of_int r.attempted))
    r.digest

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun mt ->
               ( mt.name,
                 Json.Obj
                   [ ("value", Json.Float mt.value); ("unit", Json.String mt.unit) ]
               ))
             metrics) );
    ]
