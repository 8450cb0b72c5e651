(* serve-greedy: generated solve requests as JSONL lines through
   [Service], the way [mhla batch] drives it. A closed loop: the client
   submits under [Block] admission at [mhla batch]'s default queue depth,
   so at most [queue_depth] requests wait and [jobs] are in service; each
   round is one batch through a fresh service, and responses are encoded
   to lines as they become ready.

   Each program is asked at three on-chip sizes, size by size, so a
   known share of requests repeats a program the service has already
   interned and the request path (parse, decode, verify, intern key,
   precompute, encode) is a large share of the work. The traced run also
   replays a sample of the programs with annealing search, which gives
   the annealing search's per-layer figures. *)

module Json = Mhla_util.Json
module Assign = Mhla_core.Assign
module Explore = Mhla_core.Explore
module Mapping = Mhla_core.Mapping
module Gen = Mhla_gen.Generate
module Request = Mhla_service.Request
module Response = Mhla_service.Response
module Service = Mhla_service.Service

let queue_depth = 16

(* Programs per batch, and the budgets each is asked at (as multiples of
   the generator's own budget for it). The programs rotate through the
   generator's three profiles — the [Mixed] population in equal shares
   rather than seed-drawn ones, which keeps the per-seed mix from moving
   the figures. *)
let programs = 512

let factors = [ 1.0; 0.5; 2.0 ]

(* The traced run's annealing sample: the first [anneal_sample]
   programs, each asked once at its own budget. *)
let anneal_sample = 48

let anneal_iterations = 2000

type line = { id : string; text : string }

let service_config =
  { Service.default_config with Service.jobs = Measure.jobs; queue_depth; admission = Service.Block }

let setup ~seed () =
  let cases =
    List.init programs (fun i ->
        let profile = List.nth [ Gen.Reuse_rich; Gen.Capacity_tight; Gen.Te_hostile ] (i mod 3) in
        Gen.case ~profile ~seed:(Int64.of_int ((seed * 100_000) + i)) ())
  in
  let lines =
    List.concat_map
      (fun factor ->
        List.mapi
          (fun i (c : Gen.case) ->
            let onchip_bytes = max 24 (int_of_float (factor *. float_of_int c.Gen.onchip_bytes)) in
            let id = Printf.sprintf "r%d-%d" i onchip_bytes in
            let req =
              Request.make ~search:Explore.Greedy ~id
                ~arch:(Request.Two_level { onchip_bytes; dma = true })
                c.Gen.program
            in
            { id; text = Json.to_string (Request.to_json req) })
          cases)
      factors
  in
  (* Service start-up and tear-down, as every batch pays it. *)
  Service.shutdown (Service.create ~config:service_config ());
  Array.of_list lines

(* One batch: every line submitted in order, each ready response encoded
   to a line as [mhla batch] prints it. *)
let round lines () =
  let service = Service.create ~config:service_config () in
  let out = ref [] in
  let emit (r : Response.t) = out := (r, Json.to_string (Response.to_json r)) :: !out in
  Array.iter
    (fun l ->
      ignore (Service.submit service l.text : [ `Queued | `Shed ]);
      List.iter emit (Service.ready service))
    lines;
  List.iter emit (Service.drain service);
  Service.shutdown service;
  List.rev !out

(* The direct solve of every line: the payload an ok response must
   carry (rendered), whether the independent verifier accepts the
   solution, and its figures. Kept small — the benchmark's own memory
   shows in [peak_rss_mb]. *)
type reference = {
  payload : string;
  verified : bool;
  after_te_cycles : float;
  cycles_ratio : float;
  energy_ratio : float;
}

let reference lines =
  Array.of_list
    (Mhla_util.Domain_pool.map ~jobs:Measure.jobs
       (fun l ->
         let req = Request.of_json (Json.parse_exn l.text) in
         let result = Service.solve req in
         {
           payload = Json.to_string (Service.ok_payload req result);
           verified = Pipeline.verified result;
           after_te_cycles = float_of_int result.Explore.after_te.Mhla_core.Cost.total_cycles;
           cycles_ratio = Pipeline.cycles_ratio result;
           energy_ratio = Pipeline.energy_ratio result;
         })
       (Array.to_list lines))

(* A response is right when it answers line [i], in order, ok, with the
   reference payload of a verified solution. *)
let response_ok lines refs ~i (r : Response.t) =
  r.Response.seq = i
  && r.Response.id = lines.(i).id
  && r.Response.status = Response.Ok
  && refs.(i).verified
  && match r.Response.result with Some p -> Json.to_string p = refs.(i).payload | None -> false

(* The calls [Service.run_request] makes for one line, in order, on one
   domain, each in its own span; the payload must equal the reference. *)
let replay tr lines refs =
  let totals = Pipeline.totals () in
  let intern = Hashtbl.create 64 in
  let repeats = ref 0 and bytes_out = ref 0 and ok = ref true in
  Array.iteri
    (fun i l ->
      Measure.set_op tr i;
      Measure.span tr "bench.request" @@ fun () ->
      let doc =
        Measure.span tr "util.json.parse" (fun () -> Json.parse_exn l.text)
      in
      let req = Measure.span tr "service.request.of_json" (fun () -> Request.of_json doc) in
      let report =
        Measure.span tr "analysis.verify.run" (fun () ->
            Mhla_analysis.Verify.run (Mhla_analysis.Pass.subject req.Request.program))
      in
      if not (Mhla_analysis.Verify.ok report) then ok := false;
      let key =
        Measure.span tr "ir.json_codec.program_key" (fun () ->
            Json.to_string (Mhla_ir.Json_codec.program_to_json req.Request.program))
      in
      let reuse =
        match Hashtbl.find_opt intern key with
        | Some r ->
          incr repeats;
          r
        | None ->
          let r =
            Measure.span tr "core.mapping.precompute" (fun () ->
                Mapping.precompute req.Request.program)
          in
          Hashtbl.add intern key r;
          r
      in
      let config =
        { Assign.default_config with
          Assign.objective = req.Request.objective;
          transfer_mode = req.Request.transfer_mode }
      in
      let result =
        Pipeline.run tr totals ~config ~search:req.Request.search ~reuse req.Request.program
          (Request.hierarchy req)
      in
      let payload, line =
        Measure.span tr "core.report.encode" (fun () ->
            let payload = Service.ok_payload req result in
            let resp = Response.ok ~id:req.Request.id ~seq:i ~elapsed_ns:0 payload in
            (payload, Json.to_string (Response.to_json resp)))
      in
      bytes_out := !bytes_out + String.length line;
      if Json.to_string payload <> refs.(i).payload then ok := false)
    lines;
  (!ok, totals, !repeats, !bytes_out)

(* The annealing sample: the first [anneal_sample] lines (one per
   program, at its own budget) asked with annealing search. *)
let anneal_lines ~seed lines =
  Array.init anneal_sample (fun i ->
      let req = Request.of_json (Json.parse_exn lines.(i).text) in
      let search =
        Explore.Annealing { seed = Int64.of_int ((seed * 7919) + i); iterations = anneal_iterations }
      in
      let req = { req with Request.search; id = "a" ^ req.Request.id } in
      { id = req.Request.id; text = Json.to_string (Request.to_json req) })

let run ~seed ~seconds ~trace =
  let lines, setup_s = Measure.timed_setup (setup ~seed) in
  let refs = reference lines in
  let n = Array.length lines in
  let attempted = ref 0 and failed = ref 0 and latencies = ref [] in
  let oks = ref 0 in
  let after responses =
    attempted := !attempted + n;
    if List.length responses <> n then failed := !failed + n;
    let lat = ref [] in
    List.iteri
      (fun i ((r : Response.t), _) ->
        if r.Response.status = Response.Ok then incr oks;
        if i < n && not (response_ok lines refs ~i r) then incr failed;
        lat := (float_of_int r.Response.elapsed_ns /. 1e6) :: !lat)
      responses;
    latencies := !lat :: !latencies
  in
  let seconds = if trace then seconds /. 2. else seconds in
  let walls, gc =
    Measure.gc_delta (fun () ->
        Measure.timed_rounds ~seconds ~round:(round lines) ~after)
  in
  let rounds = List.length walls in
  let round_wall = Measure.median walls in
  let m = Measure.metrics () in
  let refs_l = Array.to_list refs in
  let ok = ref (!failed = 0) in
  if not trace then begin
    let solves_per_s =
      float_of_int n *. (float_of_int !oks /. float_of_int !attempted) /. round_wall
    in
    (* Modelled application cycles solved per host second, at the
       geometric-mean request's cycle count: a seed's few huge programs
       would swing a plain sum. *)
    let cycles_per_solve = Measure.geomean (List.map (fun r -> r.after_te_cycles) refs_l) in
    Measure.set m "setup_s" setup_s;
    Measure.set m "points_per_s" solves_per_s;
    Measure.set m "solves_per_s" solves_per_s;
    Measure.set m "latency_p50_ms" (Measure.round_percentile 0.5 !latencies);
    Measure.set m "latency_p90_ms" (Measure.round_percentile 0.9 !latencies);
    Measure.set m "sim_mcycles_per_s" (solves_per_s *. cycles_per_solve /. 1e6);
    Measure.set m "cycles_ratio" (Measure.geomean (List.map (fun r -> r.cycles_ratio) refs_l));
    Measure.set m "energy_ratio" (Measure.geomean (List.map (fun r -> r.energy_ratio) refs_l))
  end
  else begin
    let per_op v = v /. float_of_int (rounds * n) in
    Measure.set m "gc.minor_words_per_op" (per_op gc.Measure.minor_words);
    Measure.set m "gc.minor_collections_per_op" (per_op (float_of_int gc.Measure.minor_collections));
    (* The replay covers every line of a batch: its repeat share needs
       them all. *)
    let overhead, tr, traced_wall, (replay_ok, totals, repeats, bytes) =
      Measure.traced_replay ~pairs:2 (fun tr -> replay tr lines refs)
    in
    if not replay_ok then ok := false;
    let per_line v = float_of_int v /. float_of_int n in
    Measure.set m "trace.overhead_ratio" overhead;
    Measure.layer_shares m tr ~wall:traced_wall;
    Measure.set m "service.pool_efficiency"
      (Measure.total_span_time tr "bench.request" /. (round_wall *. float_of_int Measure.jobs));
    Measure.set m "service.repeat_share" (per_line repeats);
    Measure.set m "service.bytes_in_per_op"
      (per_line (Array.fold_left (fun acc l -> acc + String.length l.text) 0 lines));
    Measure.set m "core.report.encode.bytes_per_op" (per_line bytes);
    (* The first budget's lines name every program once. *)
    Pipeline.isolated tr ~config:Assign.default_config ~reps:3
      (List.init programs (fun i ->
           let req = Request.of_json (Json.parse_exn lines.(i).text) in
           let p = req.Request.program in
           (p, Request.hierarchy req, Mapping.precompute p)));
    Measure.span_metrics m tr;
    (* Annealing, on its own tracer so the request-path figures above
       stay those of the greedy batch; only its search figures are kept. *)
    let alines = anneal_lines ~seed lines in
    let arefs = reference alines in
    let atr = Measure.tracer true in
    let anneal_ok, atotals, _, _ = replay atr alines arefs in
    if not anneal_ok then ok := false;
    Measure.span_metrics ~only:"core.assign.anneal" m atr;
    Pipeline.set_search_metrics m { totals with Pipeline.anneal = atotals.Pipeline.anneal };
    Measure.write_trace tr (Printf.sprintf "serve-greedy-%d" seed)
  end;
  { Measure.attempted = !attempted; failed = !failed; correct = !ok; metrics = m }
