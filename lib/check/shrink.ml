(* Replace the element at [i] with the ops [subst] (possibly empty). *)
let splice ops i subst =
  List.concat (List.mapi (fun j op -> if j = i then subst else [ op ]) ops)

let minimize ~candidates ~check ops =
  (* One pass over op positions: at each, keep the first candidate that
     still violates; after a drop, revisit the same position. *)
  let rec pass i ops =
    if i >= List.length ops then ops
    else
      match
        List.find_opt
          (fun subst -> check (splice ops i subst))
          (candidates (List.nth ops i))
      with
      | None -> pass (i + 1) ops
      | Some subst -> pass (if subst = [] then i else i + 1) (splice ops i subst)
  in
  let rec fix ops =
    let ops' = pass 0 ops in
    if ops' = ops then ops else fix ops'
  in
  fix ops

let drop _op = [ [] ]

(* Candidates that drop one range of a commit/abort. *)
let drop_ranges op =
  let without ranges =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) ranges) ranges
  in
  match op with
  | Workload.Commit { ranges; mode } when List.length ranges > 1 ->
    List.map (fun rs -> [ Workload.Commit { ranges = rs; mode } ]) (without ranges)
  | Workload.Abort ranges when List.length ranges > 1 ->
    List.map (fun rs -> [ Workload.Abort rs ]) (without ranges)
  | _ -> []

(* Candidates that shrink range lengths (halving, then to 1). *)
let shrink_lens op =
  let shrink_range (off, len, c) =
    List.filter_map
      (fun len' -> if len' > 0 && len' < len then Some (off, len', c) else None)
      [ len / 2; 1 ]
  in
  let variants ranges rebuild =
    List.concat
      (List.mapi
         (fun i r ->
           List.map
             (fun r' ->
               [ rebuild (List.mapi (fun j x -> if j = i then r' else x) ranges) ])
             (shrink_range r))
         ranges)
  in
  match op with
  | Workload.Commit { ranges; mode } ->
    variants ranges (fun rs -> Workload.Commit { ranges = rs; mode })
  | Workload.Abort ranges -> variants ranges (fun rs -> Workload.Abort rs)
  | _ -> []

let workload op = drop op @ drop_ranges op @ shrink_lens op
