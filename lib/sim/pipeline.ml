module Telemetry = Mhla_obs.Telemetry

type params = {
  issues : int;
  transfer_cycles : int;
  compute_cycles : int;
  lookahead : int;
  setup_cycles : int;
  channels : int;
}

type outcome = {
  total_cycles : int;
  stall_cycles : int;
  dma_busy_cycles : int;
}

let validate p =
  let reject fmt = Mhla_util.Error.invalidf ~context:"Pipeline.run" fmt in
  if p.issues <= 0 then reject "issues must be positive (got %d)" p.issues;
  if p.transfer_cycles < 0 || p.compute_cycles < 0 || p.lookahead < 0
     || p.setup_cycles < 0
  then reject "negative parameter";
  if p.channels < 1 then reject "channels must be >= 1 (got %d)" p.channels

(* Iteration [it] consumes buffer [it]. Transfer [it] is issued by the
   CPU at the start of iteration [it - lookahead] (time 0 when that is
   in the past), runs on a single serial DMA channel, and must finish
   before iteration [it] begins computing. *)
let run ?(telemetry = Telemetry.noop) p =
  validate p;
  Telemetry.span telemetry ~cat:"sim" "sim.pipeline"
    ~args:(fun () ->
      [ ("issues", Telemetry.Int p.issues);
        ("lookahead", Telemetry.Int p.lookahead);
        ("channels", Telemetry.Int p.channels) ])
  @@ fun () ->
  let completion = Array.make p.issues 0 in
  let cpu = ref 0 in
  let channel_free = Array.make p.channels 0 in
  let dma_busy = ref 0 in
  let stalls = ref 0 in
  let issue j =
    (* The CPU programs the engine, then the transfer queues on the
       earliest-free channel. *)
    cpu := !cpu + p.setup_cycles;
    let best = ref 0 in
    Array.iteri
      (fun c free -> if free < channel_free.(!best) then best := c)
      channel_free;
    let c = !best in
    let start = max !cpu channel_free.(c) in
    channel_free.(c) <- start + p.transfer_cycles;
    dma_busy := !dma_busy + p.transfer_cycles;
    completion.(j) <- channel_free.(c);
    Telemetry.instant telemetry ~cat:"sim" "dma.issue"
      ~args:(fun () ->
        [ ("transfer", Telemetry.Int j);
          ("channel", Telemetry.Int c);
          ("start", Telemetry.Int start);
          ("finish", Telemetry.Int channel_free.(c)) ])
  in
  for it = 0 to p.issues - 1 do
    (* Transfers whose initiation point is this iteration's start:
       iteration 0 primes the pipeline with the first lookahead+1
       buffers, later iterations top it up with one. *)
    if it = 0 then
      for j = 0 to min p.lookahead (p.issues - 1) do
        issue j
      done
    else if it + p.lookahead < p.issues then issue (it + p.lookahead);
    let ready = completion.(it) in
    if ready > !cpu then begin
      Telemetry.instant telemetry ~cat:"sim" "dma.stall"
        ~args:(fun () ->
          [ ("iteration", Telemetry.Int it);
            ("cycles", Telemetry.Int (ready - !cpu)) ]);
      stalls := !stalls + (ready - !cpu);
      cpu := ready
    end;
    Telemetry.instant telemetry ~cat:"sim" "dma.complete"
      ~args:(fun () ->
        [ ("transfer", Telemetry.Int it);
          ("ready", Telemetry.Int ready);
          ("consumed_at", Telemetry.Int !cpu) ]);
    cpu := !cpu + p.compute_cycles
  done;
  { total_cycles = !cpu; stall_cycles = !stalls; dma_busy_cycles = !dma_busy }

type fault_outcome = {
  fault_result : outcome;
  retries : int;
  fallbacks : int;
  failed_attempts : int;
  jitter_total_cycles : int;
}

(* Same issue/consume loop as [run], with every DMA attempt filtered
   through the fault model. A failed attempt still occupies its channel
   for the full (jittered) latency — the bus does not know the data is
   corrupt until the transfer ends — then backs off and retries on the
   same channel. Exhausted retries leave a [max_int] completion
   sentinel; the consuming iteration then degrades to a synchronous
   refetch (CPU pays setup and waits out the whole transfer) instead of
   blocking forever. [deadline_patience] applies the same fallback to
   transfers that are merely late. *)
let run_faulty ?(telemetry = Telemetry.noop) f p =
  validate p;
  Faults.validate f;
  Telemetry.span telemetry ~cat:"sim" "sim.pipeline_faulty"
    ~args:(fun () ->
      [ ("issues", Telemetry.Int p.issues);
        ("lookahead", Telemetry.Int p.lookahead);
        ("channels", Telemetry.Int p.channels);
        ("seed", Telemetry.Str (Int64.to_string f.Faults.seed)) ])
  @@ fun () ->
  let completion = Array.make p.issues 0 in
  let cpu = ref 0 in
  let channel_free = Array.make p.channels 0 in
  let dma_busy = ref 0 in
  let stalls = ref 0 in
  let retries = ref 0 in
  let fallbacks = ref 0 in
  let failed_attempts = ref 0 in
  let jitter_total = ref 0 in
  let issue j =
    cpu := !cpu + p.setup_cycles;
    let best = ref 0 in
    Array.iteri
      (fun c free -> if free < channel_free.(!best) then best := c)
      channel_free;
    let c = !best in
    let rec attempt_loop attempt earliest =
      let start =
        Faults.outage_release f ~channel:c
          ~at:(max earliest channel_free.(c))
      in
      let jitter = Faults.jitter_cycles f ~transfer:j ~attempt in
      jitter_total := !jitter_total + jitter;
      let latency = p.transfer_cycles + jitter in
      let finish = start + latency in
      channel_free.(c) <- finish;
      dma_busy := !dma_busy + latency;
      if Faults.attempt_fails f ~transfer:j ~attempt then begin
        incr failed_attempts;
        if attempt >= f.Faults.max_retries then max_int
        else begin
          incr retries;
          Telemetry.instant telemetry ~cat:"sim" "dma.retry"
            ~args:(fun () ->
              [ ("transfer", Telemetry.Int j);
                ("attempt", Telemetry.Int attempt);
                ("channel", Telemetry.Int c);
                ("failed_at", Telemetry.Int finish) ]);
          attempt_loop (attempt + 1)
            (finish + Faults.backoff_cycles f ~attempt)
        end
      end
      else begin
        Telemetry.instant telemetry ~cat:"sim" "dma.issue"
          ~args:(fun () ->
            [ ("transfer", Telemetry.Int j);
              ("channel", Telemetry.Int c);
              ("attempt", Telemetry.Int attempt);
              ("start", Telemetry.Int start);
              ("finish", Telemetry.Int finish) ]);
        finish
      end
    in
    completion.(j) <- attempt_loop 0 !cpu
  in
  (* Synchronous refetch: the CPU reprograms the engine and sits out
     the whole nominal transfer. The wait is a stall; the reissued
     burst is real bus traffic. *)
  let fallback ~it ~reason =
    incr fallbacks;
    Telemetry.instant telemetry ~cat:"sim" "dma.fallback"
      ~args:(fun () ->
        [ ("iteration", Telemetry.Int it);
          ("reason", Telemetry.Str reason) ]);
    cpu := !cpu + p.setup_cycles;
    stalls := !stalls + p.transfer_cycles;
    cpu := !cpu + p.transfer_cycles;
    dma_busy := !dma_busy + p.transfer_cycles
  in
  for it = 0 to p.issues - 1 do
    if it = 0 then
      for j = 0 to min p.lookahead (p.issues - 1) do
        issue j
      done
    else if it + p.lookahead < p.issues then issue (it + p.lookahead);
    let ready = completion.(it) in
    if ready = max_int then fallback ~it ~reason:"retries-exhausted"
    else begin
      match f.Faults.deadline_patience with
      | Some d when ready - !cpu > d -> fallback ~it ~reason:"deadline"
      | _ ->
        if ready > !cpu then begin
          Telemetry.instant telemetry ~cat:"sim" "dma.stall"
            ~args:(fun () ->
              [ ("iteration", Telemetry.Int it);
                ("cycles", Telemetry.Int (ready - !cpu)) ]);
          stalls := !stalls + (ready - !cpu);
          cpu := ready
        end
    end;
    cpu := !cpu + p.compute_cycles
  done;
  {
    fault_result =
      {
        total_cycles = !cpu;
        stall_cycles = !stalls;
        dma_busy_cycles = !dma_busy;
      };
    retries = !retries;
    fallbacks = !fallbacks;
    failed_attempts = !failed_attempts;
    jitter_total_cycles = !jitter_total;
  }

let analytic_stall p =
  validate p;
  let hidden = min p.transfer_cycles (p.lookahead * p.compute_cycles) in
  p.issues * (p.transfer_cycles - hidden)

let steady_state_stall p =
  validate p;
  if p.lookahead = 0 then p.issues * p.transfer_cycles
  else begin
    (* Up to [lookahead + 1] transfers are in flight at once (the one
       being awaited plus the ones issued ahead), bounded by the
       channel count; each iteration then waits for a
       [transfer / overlap] slice, of which the CPU covers compute plus
       one setup. *)
    let overlap = min (p.lookahead + 1) p.channels in
    let service = p.transfer_cycles / overlap in
    p.issues * max 0 (service - p.compute_cycles - p.setup_cycles)
  end

let pp_outcome ppf o =
  Fmt.pf ppf "total %d, stall %d, dma busy %d" o.total_cycles o.stall_cycles
    o.dma_busy_cycles
