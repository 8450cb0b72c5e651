module Error = Mhla_util.Error
module Prng = Mhla_util.Prng

type jitter =
  | No_jitter
  | Uniform of { max_extra_cycles : int }
  | Bursty of { permille : int; extra_cycles : int }

type outage = { channel : int; from_cycle : int; until_cycle : int }

type t = {
  seed : int64;
  jitter : jitter;
  failure_permille : int;
  outages : outage list;
  max_retries : int;
  backoff_base_cycles : int;
  backoff_cap_cycles : int;
  deadline_patience : int option;
}

let none =
  {
    seed = 0L;
    jitter = No_jitter;
    failure_permille = 0;
    outages = [];
    max_retries = 0;
    backoff_base_cycles = 0;
    backoff_cap_cycles = 0;
    deadline_patience = None;
  }

let validate t =
  let reject fmt = Error.invalidf ~context:"Faults.validate" fmt in
  (match t.jitter with
  | No_jitter -> ()
  | Uniform { max_extra_cycles } ->
    if max_extra_cycles < 0 then
      reject "jitter max_extra_cycles must be >= 0 (got %d)" max_extra_cycles
  | Bursty { permille; extra_cycles } ->
    if permille < 0 || permille > 1000 then
      reject "jitter permille must be in 0..1000 (got %d)" permille;
    if extra_cycles < 0 then
      reject "jitter extra_cycles must be >= 0 (got %d)" extra_cycles);
  if t.failure_permille < 0 || t.failure_permille > 1000 then
    reject "failure_permille must be in 0..1000 (got %d)" t.failure_permille;
  List.iter
    (fun o ->
      if o.channel < 0 then reject "outage channel must be >= 0 (got %d)" o.channel;
      if o.until_cycle < o.from_cycle then
        reject "outage window ends (%d) before it starts (%d)" o.until_cycle
          o.from_cycle)
    t.outages;
  if t.max_retries < 0 then
    reject "max_retries must be >= 0 (got %d)" t.max_retries;
  if t.backoff_base_cycles < 0 || t.backoff_cap_cycles < 0 then
    reject "backoff cycles must be >= 0 (base %d, cap %d)"
      t.backoff_base_cycles t.backoff_cap_cycles;
  match t.deadline_patience with
  | Some d when d < 0 -> reject "deadline_patience must be >= 0 (got %d)" d
  | _ -> ()

let make ?(jitter = No_jitter) ?(failure_permille = 0) ?(outages = [])
    ?(max_retries = 3) ?(backoff_base_cycles = 4) ?(backoff_cap_cycles = 64)
    ?deadline_patience ~seed () =
  let t =
    {
      seed;
      jitter;
      failure_permille;
      outages;
      max_retries;
      backoff_base_cycles;
      backoff_cap_cycles;
      deadline_patience;
    }
  in
  validate t;
  t

(* One throwaway generator per (purpose, transfer, attempt): the draw
   for a given attempt never depends on how many draws other transfers
   made, so traces stay reproducible under reordering. splitmix64's
   output function scrambles the derived seed. *)
let derive t ~salt ~transfer ~attempt =
  let open Int64 in
  let z = add t.seed (mul 0x9E3779B97F4A7C15L (of_int (transfer + 1))) in
  let z = add z (mul 0xBF58476D1CE4E5B9L (of_int (attempt + 1))) in
  let z = add z (mul 0x94D049BB133111EBL (of_int (salt + 1))) in
  Prng.create ~seed:z

let jitter_salt = 0

let failure_salt = 1

let jitter_cycles t ~transfer ~attempt =
  match t.jitter with
  | No_jitter -> 0
  | Uniform { max_extra_cycles } ->
    if max_extra_cycles = 0 then 0
    else
      Prng.int
        (derive t ~salt:jitter_salt ~transfer ~attempt)
        ~bound:(max_extra_cycles + 1)
  | Bursty { permille; extra_cycles } ->
    if permille = 0 || extra_cycles = 0 then 0
    else if
      Prng.int (derive t ~salt:jitter_salt ~transfer ~attempt) ~bound:1000
      < permille
    then extra_cycles
    else 0

let attempt_fails t ~transfer ~attempt =
  t.failure_permille > 0
  && Prng.int (derive t ~salt:failure_salt ~transfer ~attempt) ~bound:1000
     < t.failure_permille

let backoff_cycles t ~attempt =
  if t.backoff_base_cycles = 0 then 0
  else begin
    (* Saturating shift: past 62 doublings the cap has long won. *)
    let doubled =
      if attempt >= 62 then max_int else t.backoff_base_cycles lsl attempt
    in
    let doubled = if doubled < t.backoff_base_cycles then max_int else doubled in
    min t.backoff_cap_cycles doubled
  end

let outage_release t ~channel ~at =
  (* Windows may abut or overlap; iterate to a fixed point. *)
  let rec settle at =
    match
      List.find_opt
        (fun o ->
          o.channel = channel && o.from_cycle <= at && at < o.until_cycle)
        t.outages
    with
    | Some o -> settle o.until_cycle
    | None -> at
  in
  settle at

let pp_jitter ppf = function
  | No_jitter -> Fmt.string ppf "none"
  | Uniform { max_extra_cycles } ->
    Fmt.pf ppf "uniform(0..%d)" max_extra_cycles
  | Bursty { permille; extra_cycles } ->
    Fmt.pf ppf "bursty(%d/1000 x %d)" permille extra_cycles

let pp ppf t =
  Fmt.pf ppf
    "@[<h>faults: seed %Ld, jitter %a, failure %d/1000, %d outage(s), \
     retries %d (backoff %d..%d)%a@]"
    t.seed pp_jitter t.jitter t.failure_permille (List.length t.outages)
    t.max_retries t.backoff_base_cycles t.backoff_cap_cycles
    (Fmt.option (fun ppf d -> Fmt.pf ppf ", patience %d" d))
    t.deadline_patience
