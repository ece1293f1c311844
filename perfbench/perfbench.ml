(* The etap benchmark's entry point. One run measures one workload for a fixed
   wall-clock budget, checks the outputs, and prints every metric by
   name and unit; the last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With [--trace 0] the
   metrics are the end-to-end ones, with [--trace 1] the per-layer
   ledger. See perfbench/README.md. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME campaign | recheck | audit | serve");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S measured wall-clock budget");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer ledger");
  ]

let usage = "perfbench --workload W --seed N --seconds S --trace 0|1"

let json_metric (m : Util.metric) =
  ( m.Util.name,
    Report.Json.Obj
      [ ("value", Report.Json.Float m.Util.value); ("unit", Report.Json.Str m.Util.unit_) ] )

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let traced = !trace = 1 in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  let r =
    match !workload with
    | "campaign" -> Cells.run Cells.Campaign ~seed:!seed ~seconds:!seconds ~trace:traced
    | "audit" -> Cells.run Cells.Audit ~seed:!seed ~seconds:!seconds ~trace:traced
    | "recheck" -> Recheck.run ~seed:!seed ~seconds:!seconds ~trace:traced
    | "serve" -> Daemon.run ~seed:!seed ~seconds:!seconds ~trace:traced
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  Util.rm_rf Util.scratch;
  List.iter print_endline r.Util.notes;
  List.iter (fun (k, v) -> Printf.printf "counter %-28s %d\n" k v) r.Util.counters;
  (* The host-speed diagnostics, in every run, so a slow host phase
     shows next to the referenced figures. *)
  List.iter
    (fun (m : Util.metric) ->
      if String.length m.Util.name > 5 && String.sub m.Util.name 0 5 = "host." then
        Printf.printf "host    %-28s %14.4f %s\n" m.Util.name m.Util.value m.Util.unit_)
    r.Util.per_layer;
  let metrics = if traced then r.Util.per_layer else r.Util.end_to_end in
  List.iter
    (fun (m : Util.metric) ->
      Printf.printf "metric  %-28s %14.4f %s\n" m.Util.name m.Util.value m.Util.unit_)
    metrics;
  print_endline
    (Report.Json.to_compact_string
       (Report.Json.Obj
          [
            ("correct", Report.Json.Bool (r.Util.failed = 0));
            ("attempted", Report.Json.Int r.Util.attempted);
            ("failed", Report.Json.Int r.Util.failed);
            ("metrics", Report.Json.Obj (List.map json_metric metrics));
          ]))
