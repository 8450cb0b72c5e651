(* The repository benchmark: one seeded workload per run.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: explore-apps, serve-greedy, simulate-apps.
   With --trace 0 the run measures the end-to-end metrics with tracing
   off; with --trace 1 it measures the per-layer metrics from a traced
   replay. Either way it checks every output, and the last line of
   stdout is one JSON object:
   {"correct": bool, "attempted": int, "failed": int,
    "metrics": {NAME: {"value": float, "unit": string}, ...}}.
   Exits 1 (after printing the result) when an output check failed and
   2 on a usage error. *)

module Json = Mhla_util.Json

let workloads =
  [ ("explore-apps", Explore_apps.run);
    ("serve-greedy", Serve.run);
    ("simulate-apps", Simulate_apps.run) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (explore-apps|serve-greedy|simulate-apps) \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let run = match List.assoc_opt (get "workload") workloads with Some f -> f | None -> usage () in
  let seed = int_of "seed" in
  let seconds = match float_of_string_opt (get "seconds") with Some s -> s | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if not (seconds > 0.) then usage ();
  let o = run ~seed ~seconds ~trace in
  let m = o.Measure.metrics in
  if not trace then begin
    Measure.set m "ok_ratio"
      (float_of_int (o.Measure.attempted - o.Measure.failed) /. float_of_int o.Measure.attempted);
    Measure.set m "peak_rss_mb" (Measure.peak_rss_mb ())
  end;
  let spec = if trace then Spec.per_layer else Spec.end_to_end in
  let value name = Option.value ~default:0. (Hashtbl.find_opt m name) in
  Printf.printf "%s seed %d: %d attempted, %d failed (jobs %d)\n" (get "workload") seed
    o.Measure.attempted o.Measure.failed Measure.jobs;
  List.iter (fun (name, unit) -> Printf.printf "  %-46s %16.6g %s\n" name (value name) unit) spec;
  let metric (name, unit) =
    (name, Json.obj [ ("value", Json.float (value name)); ("unit", Json.str unit) ])
  in
  print_endline
    (Json.to_string
       (Json.obj
          [ ("correct", Json.bool o.Measure.correct);
            ("attempted", Json.int o.Measure.attempted);
            ("failed", Json.int o.Measure.failed);
            ("metrics", Json.obj (List.map metric spec)) ]));
  exit (if o.Measure.correct then 0 else 1)
