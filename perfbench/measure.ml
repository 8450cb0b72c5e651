(* Clocks, statistics, metric collection and the in-memory span store
   shared by every workload. *)

let now () = Unix.gettimeofday ()

let wall f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let jobs = Mhla_util.Domain_pool.recommended_jobs ()

(* --- statistics --------------------------------------------------------- *)

(* Nearest-rank percentile of an unsorted sample, [p] in [0, 1]. *)
let percentile p samples =
  match List.sort compare samples with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
    List.nth sorted (max 0 (min (n - 1) rank))

let median samples = percentile 0.5 samples

let geomean = function
  | [] -> 0.
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> 0.
      in
      scan ())

(* --- set-up ------------------------------------------------------------- *)

(* Set-up runs [setup_reps] times; the median wall is [setup_s] and the
   last result is kept. The first repetition also pays one-time lazy
   initialisation, which the median discards. *)
let setup_reps = 11

let timed_setup f =
  let rec go k walls =
    Gc.compact ();
    let t0 = now () in
    let x = f () in
    let walls = (now () -. t0) :: walls in
    if k <= 1 then (x, median walls) else go (k - 1) walls
  in
  go setup_reps []

(* --- the timed phase ---------------------------------------------------- *)

(* The timed phase runs [round] once untimed as a warm-up (first-touch
   costs: heap growth, page faults), then again until the rounds' summed
   wall reaches [seconds] (at least three rounds). Only a round itself
   is timed: [after x] runs outside the clock, between rounds — that is
   where workloads check outputs. Returns each timed round's wall, in
   order. *)
let timed_rounds ~seconds ~round ~after =
  ignore (round ());
  let rec go k total acc =
    if k >= 3 && total >= seconds then List.rev acc
    else
      let x, dt = wall round in
      after x;
      go (k + 1) (total +. dt) (dt :: acc)
  in
  go 0 0. []

(* The median over rounds of [work / wall], for work that varies from
   round to round. Medians keep one slow round — a neighbour's burst, a
   major collection — from moving a figure. *)
let median_rate work walls = median (List.map2 ( /. ) work walls)

(* The median over rounds of each round's [p] percentile: like
   [median_rate], robust to a slow round. *)
let round_percentile p rounds = median (List.map (percentile p) rounds)

(* Allocation over a phase, summed over every domain that ran in it
   (worker domains are joined before the phase ends, so their counts
   are folded into the process totals). *)
type gc_delta = { minor_words : float; minor_collections : int }

let gc_delta f =
  let s0 = Gc.quick_stat () in
  let x = f () in
  let s1 = Gc.quick_stat () in
  ( x,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    } )

(* --- metrics ------------------------------------------------------------ *)

(* Metrics a workload reports, by name. Every name the run must print
   comes from [Spec]; a name a workload never sets prints 0 —
   the layer did no work on that workload. *)
type metrics = (string, float) Hashtbl.t

let metrics () : metrics = Hashtbl.create 64

let set (m : metrics) name v = Hashtbl.replace m name v

(* What a workload run returns: the operations it attempted, how many of
   them failed (an error response or an output that fails its check),
   whether every check passed, and its metrics. *)
type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metrics;
}

let add (m : metrics) name v =
  Hashtbl.replace m name
    (v +. Option.value ~default:0. (Hashtbl.find_opt m name))

(* --- spans ---------------------------------------------------------------

   The traced run wraps every call into a library in a span named
   [<layer>.<module>.<function>]: start, end, parent span, the id of the
   request or point it served, and the minor words the calling domain
   allocated in between. Spans are kept in memory and written out when
   the run ends. A span's self time (and self allocation) is its own
   minus what its child spans cover. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** [-1] at the top level *)
  op : int;  (** request or point id *)
  ops : int;  (** calls the span covers (batched micro-timings) *)
  t0 : float;
  t1 : float;
  words : float;
}

type tracer = {
  on : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
  mutable op : int;
}

let tracer on = { on; spans = []; next_id = 0; stack = []; op = 0 }

let set_op tr op = tr.op <- op

let span tr ?(ops = 1) name f =
  if not tr.on then f ()
  else begin
    let id = tr.next_id in
    tr.next_id <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let words = Gc.minor_words () -. w0 in
      tr.stack <- List.tl tr.stack;
      tr.spans <- { name; id; parent; op = tr.op; ops; t0; t1; words } :: tr.spans
    in
    Fun.protect ~finally:finish f
  end

(* Per span name: calls covered, self seconds, self words. *)
type self = { calls : int; self_s : float; self_words : float }

let self_table tr =
  let child_time = Hashtbl.create 256 and child_words = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let bump tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent))
        in
        bump child_time (s.t1 -. s.t0);
        bump child_words s.words
      end)
    tr.spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      let self_s = s.t1 -. s.t0 -. get child_time in
      let self_words = s.words -. get child_words in
      let prev =
        Option.value
          ~default:{ calls = 0; self_s = 0.; self_words = 0. }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        {
          calls = prev.calls + s.ops;
          self_s = prev.self_s +. self_s;
          self_words = prev.self_words +. self_words;
        })
    tr.spans;
  by_name

(* [<name>.us_per_op] and [<name>.words_per_op] of every span name, or
   of the one name [only]. *)
let span_metrics ?only m tr =
  Hashtbl.iter
    (fun name s ->
      if Option.fold ~none:true ~some:(String.equal name) only then begin
        let per v = v /. float_of_int (max 1 s.calls) in
        set m (name ^ ".us_per_op") (per (s.self_s *. 1e6));
        set m (name ^ ".words_per_op") (per s.self_words)
      end)
    (self_table tr)

(* Share of [wall] each library layer spent in its own spans. The layer
   is a span name's first component. *)
let layers = [ "util"; "service"; "ir"; "analysis"; "core"; "sim" ]

let layer_shares m tr ~wall =
  Hashtbl.iter
    (fun name s ->
      let layer = List.hd (String.split_on_char '.' name) in
      if List.mem layer layers then
        add m ("layer." ^ layer ^ ".self_share") (s.self_s /. wall))
    (self_table tr)

(* Run [replay] with spans off, then on, [pairs] times. The overhead
   ratio compares the fastest traced wall with the fastest untraced one;
   the last traced run's tracer, wall and result are returned. *)
let traced_replay ~pairs replay =
  let rec go k best_plain best_traced =
    let _, plain = wall (fun () -> replay (tracer false)) in
    let tr = tracer true in
    let x, traced = wall (fun () -> replay tr) in
    let best_plain = min best_plain plain and best_traced = min best_traced traced in
    if k <= 1 then (best_traced /. best_plain, tr, traced, x)
    else go (k - 1) best_plain best_traced
  in
  go pairs infinity infinity

let total_span_time tr name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0. tr.spans

(* Chrome trace-event JSON ("X" complete events), in start order, written
   to [.bench_out/trace-<name>.json]. *)
let write_trace tr name =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir ("trace-" ^ name ^ ".json") in
  let module Json = Mhla_util.Json in
  let spans = List.sort (fun a b -> compare a.t0 b.t0) tr.spans in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0. in
  let us t = Json.float ((t -. origin) *. 1e6) in
  let event s =
    Json.obj
      [ ("name", Json.str s.name);
        ("cat", Json.str (List.hd (String.split_on_char '.' s.name)));
        ("ph", Json.str "X");
        ("ts", us s.t0);
        ("dur", Json.float ((s.t1 -. s.t0) *. 1e6));
        ("pid", Json.int 1);
        ("tid", Json.int 1);
        ("args",
         Json.obj
           [ ("id", Json.int s.id);
             ("parent", Json.int s.parent);
             ("op", Json.int s.op);
             ("ops", Json.int s.ops);
             ("minor_words", Json.float s.words) ]) ]
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc
        (Json.obj [ ("traceEvents", Json.arr (List.map event spans)) ]);
      output_char oc '\n')
