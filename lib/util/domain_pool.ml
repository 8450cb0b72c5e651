let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

(* Outcome of one input slot. [Skipped] marks work that was never
   started because an earlier failure flipped the cancellation flag —
   it can only coexist with at least one [Error] slot. *)
type 'b slot = Done of 'b | Failed of exn | Skipped

(* Worker domains outlive the call that started them: a finished
   worker parks on its condition variable and the next call reuses it.
   Retiring a domain leaves part of its heap behind (live data stays
   flat while the heap grows with every domain retired), so a workload
   that fans out many short calls would otherwise grow its resident
   set with each one. The pool holds as many workers as the most calls
   ever needed at once; idle ones cost nothing but a blocked domain. *)
type worker = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable job : (unit -> unit) option;
  mutable outcome : (unit, exn * Printexc.raw_backtrace) result option;
}

let idle = ref []

let idle_lock = Mutex.create ()

let rec serve w =
  Mutex.lock w.lock;
  while Option.is_none w.job do
    Condition.wait w.wake w.lock
  done;
  let job = Option.get w.job in
  Mutex.unlock w.lock;
  let outcome =
    match job () with
    | () -> Ok ()
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock w.lock;
  w.job <- None;
  w.outcome <- Some outcome;
  Condition.broadcast w.wake;
  Mutex.unlock w.lock;
  serve w

(* Run [job] on an idle worker, or on a new one when none is idle. *)
let start job =
  let reused =
    Mutex.protect idle_lock (fun () ->
        match !idle with
        | w :: rest ->
          idle := rest;
          Some w
        | [] -> None)
  in
  let w =
    match reused with
    | Some w -> w
    | None ->
      let w =
        {
          lock = Mutex.create ();
          wake = Condition.create ();
          job = None;
          outcome = None;
        }
      in
      ignore (Domain.spawn (fun () -> serve w) : unit Domain.t);
      w
  in
  Mutex.protect w.lock (fun () ->
      w.job <- Some job;
      Condition.broadcast w.wake);
  w

(* Wait for [w]'s job, hand [w] back to the idle workers and return
   how the job ended. *)
let await w =
  let outcome =
    Mutex.protect w.lock (fun () ->
        while Option.is_none w.outcome do
          Condition.wait w.wake w.lock
        done;
        let o = Option.get w.outcome in
        w.outcome <- None;
        o)
  in
  Mutex.protect idle_lock (fun () -> idle := w :: !idle);
  outcome

let map_with ?jobs ~init ?(around = fun _ k -> k ()) ~finish f xs =
  let n = List.length xs in
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> recommended_jobs ()
  in
  let jobs = min jobs (max n 1) in
  if jobs <= 1 then begin
    let ctx = init 0 in
    let out = ref [] in
    (* [finish] must run even when a task raises (the mli promises the
       context state gathered up to the failure survives), so the
       failure is caught, the merge performed, and only then re-raised
       with its original backtrace. *)
    let failure = ref None in
    around ctx (fun () ->
        match List.map (f ctx) xs with
        | ys -> out := ys
        | exception e ->
          failure := Some (e, Printexc.get_raw_backtrace ()));
    finish [ ctx ];
    (match !failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    !out
  end
  else begin
    let input = Array.of_list xs in
    let out = Array.make n None in
    let cursor = Atomic.make 0 in
    (* Set by the first worker whose task fails; checked at the cursor,
       so work not yet started when a failure lands is skipped instead
       of running to completion — a batch with one early crash stops
       paying for the rest of the sweep. *)
    let cancelled = Atomic.make false in
    (* Contexts are created in the parent, in worker order, before any
       domain spawns — deterministic however the items land. *)
    let ctxs = Array.init jobs init in
    let worker i () =
      around ctxs.(i) (fun () ->
          let rec go () =
            let k = Atomic.fetch_and_add cursor 1 in
            if k < n then begin
              (* Distinct indices: no two domains ever write the same
                 slot. *)
              if Atomic.get cancelled then out.(k) <- Some Skipped
              else
                (out.(k) <-
                  (try Some (Done (f ctxs.(i) input.(k)))
                   with e ->
                     Atomic.set cancelled true;
                     Some (Failed e)));
              go ()
            end
          in
          go ())
    in
    let started = List.init (jobs - 1) (fun i -> start (worker (i + 1))) in
    let own =
      match worker 0 () with
      | () -> Ok ()
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    (* Every worker is awaited (and so returned to the pool) before a
       worker-level failure, e.g. from [around], re-raises. *)
    List.iter
      (function
        | Ok () -> ()
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      (own :: List.map await started);
    (* Merge worker contexts before any failure re-raises, so e.g.
       telemetry collected up to the failure is not lost. *)
    finish (Array.to_list ctxs);
    let slots = Array.to_list out in
    (* The earliest failing input wins, deterministically — later slots
       may be [Failed] too (already in flight when the flag flipped) or
       [Skipped] (never started). *)
    (match
       List.find_opt (function Some (Failed _) -> true | _ -> false) slots
     with
    | Some (Some (Failed e)) -> raise e
    | Some _ | None -> ());
    List.map
      (function
        | Some (Done v) -> v
        | Some (Failed _ | Skipped) | None ->
          assert false (* no failure: the cursor covered every index *))
      slots
  end

let map ?jobs f xs =
  map_with ?jobs
    ~init:(fun _ -> ())
    ~finish:(fun _ -> ())
    (fun () x -> f x)
    xs
