module Analysis = Mhla_reuse.Analysis
module Hierarchy = Mhla_arch.Hierarchy
module Telemetry = Mhla_obs.Telemetry

type move =
  | Set_placement of Analysis.access_ref * Mapping.placement
  | Set_array of string * int option

type stats = {
  probes : int;
  commits : int;
  contribs_reused : int;
  contribs_recomputed : int;
  entries_invalidated : int;
}

(* One cached block-transfer contribution, exactly the tuple
   [Cost.bt_contribution] returns (hidden = 0: the searches never
   overlap transfers — that is TE's job, after assignment). *)
type contrib = {
  c_stall : int;
  c_setup : int;
  c_energy : float;
  c_dma : float;
}

(* The dedupe key is computed and interned to a dense int id once per
   cached transfer (at refresh time); the totals fold then dedupes with
   a generation-stamped array instead of hashing keys per probe. *)
type cached_bt = { bt : Mapping.block_transfer; key_id : int; contrib : contrib }

type entry = {
  info : Analysis.info;
  mutable placement : Mapping.placement;
  mutable acc_stall : int;
  mutable acc_energy : float;
  mutable chain_bts : cached_bt list;
  (* Contributions memoised per (placement, home layer): a (placement,
     home) pair fully determines this entry's terms, and the searches
     probe the same physically-shared alternative placements over and
     over (greedy re-probes every move each round), so a revisit is a
     pointer-compare lookup with no hashing or key allocation. Bounded
     by [memo_cap]; stale entries (placements the caller no longer
     holds) age out at the tail. *)
  mutable memo : (Mapping.placement * int * int * float * cached_bt list) list;
}

let memo_cap = 64

type counters = {
  mutable n_probes : int;
  mutable n_commits : int;
  mutable n_reused : int;
  mutable n_recomputed : int;
  mutable n_invalidated : int;
}

type t = {
  objective : Cost.objective;
  mutable mapping : Mapping.t;
  entries : entry array;  (* in [mapping.infos] order *)
  index : (Analysis.access_ref, int) Hashtbl.t;
  by_array : (string, int list) Hashtbl.t;
  (* Mirror of [mapping.array_layers], updated with the same
     remove-then-prepend discipline as [Mapping.with_array_layer]: the
     promoted fill/drain transfers are folded in this list's order, and
     float sums are order-sensitive. *)
  mutable array_layers : (string * int) list;
  promoted : (string * int, cached_bt list) Hashtbl.t;
  (* Key interning and the stamp array behind the totals dedupe. A
     stamp equal to the current generation means "already folded this
     round" — bumping the generation clears the set in O(1). *)
  key_ids : (string * bool * int * int, int) Hashtbl.t;
  mutable stamps : int array;
  mutable generation : int;
  main : int;
  dma : Mhla_arch.Dma.t option;
  compute : int;
  counters : counters;
  telemetry : Telemetry.t;
}

let array_layer t array =
  match List.assoc_opt array t.array_layers with
  | Some level -> level
  | None -> t.main

(* [==] is exact for [Direct] (an immediate) and sound for chains: a
   physically-equal chain trivially has equal candidates and layers.
   Distinct-but-structurally-equal chains just miss and recompute. *)
let memo_find memo placement home =
  let rec go = function
    | [] -> None
    | (p, h, stall, energy, bts) :: rest ->
      if p == placement && h = home then Some (stall, energy, bts)
      else go rest
  in
  go memo

let intern_key t key =
  match Hashtbl.find_opt t.key_ids key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.key_ids in
    Hashtbl.replace t.key_ids key id;
    if id >= Array.length t.stamps then begin
      let grown = Array.make (max 16 (2 * (id + 1))) 0 in
      Array.blit t.stamps 0 grown 0 (Array.length t.stamps);
      t.stamps <- grown
    end;
    id

let bt_with_contrib t bt =
  let c_stall, c_setup, c_energy, c_dma =
    Cost.bt_contribution ~dma:t.dma t.mapping bt
  in
  t.counters.n_recomputed <- t.counters.n_recomputed + 1;
  {
    bt;
    key_id = intern_key t (Mapping.bt_dedupe_key bt);
    contrib = { c_stall; c_setup; c_energy; c_dma };
  }

(* Bring [e]'s cached terms in line with its placement and its array's
   current home layer, through the per-entry memo. *)
let refresh t (e : entry) =
  let home = array_layer t e.info.Analysis.array in
  match memo_find e.memo e.placement home with
  | Some (stall, energy, bts) ->
    e.acc_stall <- stall;
    e.acc_energy <- energy;
    e.chain_bts <- bts
  | None ->
    let level =
      match e.placement with
      | Mapping.Direct -> home
      | Mapping.Chain (link :: _) -> link.Mapping.layer
      | Mapping.Chain [] -> assert false
    in
    let stall, energy = Cost.access_contribution t.mapping ~level e.info in
    e.acc_stall <- stall;
    e.acc_energy <- energy;
    t.counters.n_recomputed <- t.counters.n_recomputed + 1;
    e.chain_bts <-
      (match e.placement with
      | Mapping.Direct -> []
      | Mapping.Chain links ->
        List.map (bt_with_contrib t)
          (Mapping.transfers_of_chain
             ~transfer_mode:t.mapping.Mapping.transfer_mode ~home links));
    let kept =
      if List.length e.memo >= memo_cap then
        List.filteri (fun i _ -> i < memo_cap - 1) e.memo
      else e.memo
    in
    e.memo <- (e.placement, home, e.acc_stall, e.acc_energy, e.chain_bts) :: kept

let promoted_contribs t array level =
  match Hashtbl.find_opt t.promoted (array, level) with
  | Some cs -> cs
  | None ->
    let cs =
      List.map (bt_with_contrib t)
        (Mapping.promoted_transfers t.mapping ~array ~level)
    in
    Hashtbl.replace t.promoted (array, level) cs;
    cs

let indices_of_array t array =
  Option.value ~default:[] (Hashtbl.find_opt t.by_array array)

(* Mutate the cached state by [move] and return the closure undoing
   it. The [mapping] field itself is untouched — [commit] advances it
   separately, through the validating [Mapping] updates. *)
let apply_internal t move =
  match move with
  | Set_placement (r, p) ->
    let i = Hashtbl.find t.index r in
    let e = t.entries.(i) in
    let old_p = e.placement in
    let old_stall = e.acc_stall in
    let old_energy = e.acc_energy in
    let old_bts = e.chain_bts in
    e.placement <- p;
    refresh t e;
    fun () ->
      e.placement <- old_p;
      e.acc_stall <- old_stall;
      e.acc_energy <- old_energy;
      e.chain_bts <- old_bts
  | Set_array (array, layer) ->
    let old_layers = t.array_layers in
    let removed = List.remove_assoc array t.array_layers in
    t.array_layers <-
      (match layer with
      | None -> removed
      | Some level -> (array, level) :: removed);
    let dirty = indices_of_array t array in
    t.counters.n_invalidated <- t.counters.n_invalidated + List.length dirty;
    Telemetry.count t.telemetry ~cat:"engine" "engine.entries_invalidated"
      (List.length dirty);
    let saved =
      List.map
        (fun i ->
          let e = t.entries.(i) in
          (e, e.acc_stall, e.acc_energy, e.chain_bts))
        dirty
    in
    (* Direct accesses follow the array; chained ones keep their
       serving layer but refill from the new home. The memo covers
       both, keyed by the new home. *)
    List.iter (fun i -> refresh t t.entries.(i)) dirty;
    fun () ->
      t.array_layers <- old_layers;
      List.iter
        (fun (e, stall, energy, bts) ->
          e.acc_stall <- stall;
          e.acc_energy <- energy;
          e.chain_bts <- bts)
        saved

(* Re-fold the cached contributions in the exact order [Cost.evaluate]
   folds the real units: accesses in infos order; chain transfers in
   placements order, first [bt_dedupe_key] occurrence kept; promoted
   fill/drain streams in [array_layers] order. Returns the breakdown
   and the number of contributions folded (for the hit/miss stats). *)
let totals t =
  let folded = ref 0 in
  let access_stall = ref 0 in
  let access_energy = ref 0. in
  Array.iter
    (fun e ->
      access_stall := !access_stall + e.acc_stall;
      access_energy := !access_energy +. e.acc_energy;
      incr folded)
    t.entries;
  let stall = ref 0 in
  let setup = ref 0 in
  let energy = ref 0. in
  let dma_energy = ref 0. in
  let add cached =
    let c = cached.contrib in
    stall := !stall + c.c_stall;
    setup := !setup + c.c_setup;
    energy := !energy +. c.c_energy;
    dma_energy := !dma_energy +. c.c_dma;
    incr folded
  in
  t.generation <- t.generation + 1;
  let gen = t.generation in
  Array.iter
    (fun e ->
      List.iter
        (fun cached ->
          if t.stamps.(cached.key_id) <> gen then begin
            t.stamps.(cached.key_id) <- gen;
            add cached
          end)
        e.chain_bts)
    t.entries;
  List.iter
    (fun (array, level) -> List.iter add (promoted_contribs t array level))
    t.array_layers;
  let breakdown =
    {
      Cost.compute_cycles = t.compute;
      access_stall_cycles = !access_stall;
      transfer_stall_cycles = !stall;
      dma_setup_cycles = !setup;
      total_cycles = t.compute + !access_stall + !stall + !setup;
      access_energy_pj = !access_energy;
      transfer_energy_pj = !energy;
      dma_energy_pj = !dma_energy;
      total_energy_pj = !access_energy +. !energy +. !dma_energy;
    }
  in
  (breakdown, !folded)

let create ?(telemetry = Telemetry.noop) ~objective (m : Mapping.t) =
  let entries =
    Array.of_list
      (List.map
         (fun (info : Analysis.info) ->
           {
             info;
             placement = Mapping.placement_of m info.Analysis.ref_;
             acc_stall = 0;
             acc_energy = 0.;
             chain_bts = [];
             memo = [];
           })
         m.Mapping.infos)
  in
  let index = Hashtbl.create (Array.length entries) in
  let by_array = Hashtbl.create 8 in
  Array.iteri
    (fun i e ->
      Hashtbl.replace index e.info.Analysis.ref_ i;
      let arr = e.info.Analysis.array in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_array arr) in
      Hashtbl.replace by_array arr (prev @ [ i ]))
    entries;
  let t =
    {
      objective;
      mapping = m;
      entries;
      index;
      by_array;
      array_layers = m.Mapping.array_layers;
      promoted = Hashtbl.create 8;
      key_ids = Hashtbl.create 16;
      stamps = Array.make 16 0;
      generation = 0;
      main = Hierarchy.main_memory_level m.Mapping.hierarchy;
      dma =
        (if Hierarchy.has_dma m.Mapping.hierarchy then
           Some (Hierarchy.dma_exn m.Mapping.hierarchy)
         else None);
      compute = Mhla_ir.Program.total_work_cycles m.Mapping.program;
      counters =
        {
          n_probes = 0;
          n_commits = 0;
          n_reused = 0;
          n_recomputed = 0;
          n_invalidated = 0;
        };
      telemetry;
    }
  in
  Telemetry.span telemetry ~cat:"engine" "engine.create" (fun () ->
      Array.iter (refresh t) t.entries);
  t

let mapping t = t.mapping

let objective_value t = Cost.scalar t.objective (fst (totals t))

let move_kind = function
  | Set_placement _ -> "set_placement"
  | Set_array _ -> "set_array"

let probe t move =
  Telemetry.span t.telemetry ~cat:"engine" "engine.probe"
    ~args:(fun () -> [ ("move", Telemetry.Str (move_kind move)) ])
    (fun () ->
      t.counters.n_probes <- t.counters.n_probes + 1;
      let before = t.counters.n_recomputed in
      let undo = apply_internal t move in
      let b, folded = totals t in
      undo ();
      let recomputed = t.counters.n_recomputed - before in
      let reused = max 0 (folded - recomputed) in
      t.counters.n_reused <- t.counters.n_reused + reused;
      if Telemetry.enabled t.telemetry then begin
        Telemetry.count t.telemetry ~cat:"engine" "engine.probes" 1;
        Telemetry.count t.telemetry ~cat:"engine" "engine.cache_hits" reused;
        Telemetry.count t.telemetry ~cat:"engine" "engine.cache_misses"
          recomputed
      end;
      Cost.scalar t.objective b)

let commit t move =
  Telemetry.span t.telemetry ~cat:"engine" "engine.commit"
    ~args:(fun () -> [ ("move", Telemetry.Str (move_kind move)) ])
    (fun () ->
      (* Validate through the real [Mapping] update first: if it rejects
         the move we raise before any cached state is dirtied. *)
      let mapping' =
        match move with
        | Set_placement (r, p) -> Mapping.with_placement t.mapping r p
        | Set_array (a, l) ->
          Mapping.with_array_layer t.mapping ~array:a ~layer:l
      in
      ignore (apply_internal t move : unit -> unit);
      t.mapping <- mapping';
      t.counters.n_commits <- t.counters.n_commits + 1;
      Telemetry.count t.telemetry ~cat:"engine" "engine.commits" 1)

let stats t =
  {
    probes = t.counters.n_probes;
    commits = t.counters.n_commits;
    contribs_reused = t.counters.n_reused;
    contribs_recomputed = t.counters.n_recomputed;
    entries_invalidated = t.counters.n_invalidated;
  }
