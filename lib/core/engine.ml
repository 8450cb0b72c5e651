module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Hierarchy = Mhla_arch.Hierarchy
module Occupancy = Mhla_lifetime.Occupancy
module Schedule = Mhla_lifetime.Schedule
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
  infeasible : int;
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
  mutable n_infeasible : int;
}

(* --- Capacity feasibility ----------------------------------------------

   [Mapping.occupancy_ok] rebuilds every on-chip layer's blocks and
   sweeps them from scratch. The engine keeps the same occupancy
   incrementally instead: per tracked level (on-chip, with a capacity)
   a timeline of the bytes alive in each schedule slot — a single slot
   holding the plain total under [Sum]. A move changes only the blocks
   of the share groups it touches (or of one promoted array), so [fits]
   swaps their old blocks for the new ones, reads the touched levels
   and swaps back. The state is a handful of flat arrays, allocated
   once per engine. *)

type capacity = {
  sum : bool;  (* [Occupancy.Sum]: one slot per level *)
  n : int;  (* tracked levels *)
  width : int;  (* slots per tracked level *)
  levels : int array;  (* tracked index -> hierarchy level *)
  level_slot : int array;  (* hierarchy level -> tracked index, or -1 *)
  caps : int array;
  occ : int array;  (* [slot * width + s]: bytes alive in schedule slot s *)
  over : bool array;  (* the current position exceeds the level *)
  (* Every access's candidates, infos order: entry [i] owns
     [cand_start.(i)] to [cand_start.(i + 1) - 1]. [Assign]'s
     alternatives hold these very values. *)
  cands : Candidate.t array;
  cand_start : int array;
  (* [fp.(4c)] to [fp.(4c + 3)]: candidate [c]'s lifetime lo and hi,
     its bytes and its interned share key. *)
  fp : int array;
  links : int array;  (* [entry * n + slot]: candidate held there, or -1 *)
  (* The entries owning a candidate of share key [k], in infos order —
     the order [Mapping.layer_blocks] merges sharers in:
     [members.(member_start.(k))] to [members.(member_start.(k + 1) - 1)]. *)
  member_start : int array;
  members : int array;
  array_names : string array;
  a_fp : int array;  (* [a_fp.(3a)] to [a_fp.(3a + 2)]: lo, hi, bytes *)
  a_slot : int array;  (* tracked index holding the array, or -1 *)
  (* Scratch for the move being staged: the groups it changes
     ([key * n + slot]) with their blocks before and after it (live,
     lo, hi, bytes at [4k]), the links it replaced, and per level
     whether it was touched and whether an addition took it over
     capacity. *)
  mutable n_staged : int;
  staged : int array;
  before : int array;
  after : int array;
  saved : int array;
  touched : bool array;
  exceeded : bool array;
}

(* Add [bytes] (negative to remove) to one block on a tracked level.
   Empty lifetimes are widened to one slot, as [Occupancy.peak_bytes]
   does; under [Sum] every block lands on the level's single slot. *)
let add_block c slot lo hi bytes =
  let first = if c.sum then 0 else lo in
  let last = if c.sum then 0 else if lo = hi then lo else hi - 1 in
  let base = slot * c.width in
  let cap = c.caps.(slot) in
  c.touched.(slot) <- true;
  for s = base + first to base + last do
    let v = c.occ.(s) + bytes in
    c.occ.(s) <- v;
    if v > cap then c.exceeded.(slot) <- true
  done

let peak c slot =
  let base = slot * c.width in
  let p = ref 0 in
  for s = base to base + c.width - 1 do
    p := Int.max !p c.occ.(s)
  done;
  !p

(* A candidate of entry [i], by physical identity first ([Assign]
   hands the analysis' own values around), then by its unique id. *)
let rec by_id c (cand : Candidate.t) k stop =
  if k = stop then
    invalid_arg "Engine: candidate outside the mapping's analysis"
  else if String.equal c.cands.(k).Candidate.id cand.Candidate.id then k
  else by_id c cand (k + 1) stop

let rec by_identity c i cand k =
  let stop = c.cand_start.(i + 1) in
  if k = stop then by_id c cand c.cand_start.(i) stop
  else if c.cands.(k) == cand then k
  else by_identity c i cand (k + 1)

let rec link_on c i level = function
  | [] -> -1
  | (link : Mapping.chain_link) :: rest ->
    if link.Mapping.layer = level then
      by_identity c i link.Mapping.candidate c.cand_start.(i)
    else link_on c i level rest

let rec array_index c name k =
  if k = Array.length c.array_names then
    invalid_arg "Engine: array outside the program"
  else if String.equal c.array_names.(k) name then k
  else array_index c name (k + 1)

(* Write to [dst.(4 row)] the block share group [key] has on [slot]
   under the current links: the members' lifetimes merged in infos
   order with [Interval.hull] (an empty lifetime yields to a non-empty
   one), and the largest member's bytes. *)
let group_block c key slot dst row =
  let live = ref false and lo = ref 0 and hi = ref 0 and bytes = ref 0 in
  for j = c.member_start.(key) to c.member_start.(key + 1) - 1 do
    let l = c.links.((c.members.(j) * c.n) + slot) in
    if l >= 0 && c.fp.((4 * l) + 3) = key then begin
      let f_lo = c.fp.(4 * l) and f_hi = c.fp.((4 * l) + 1) in
      if not !live then begin
        live := true;
        lo := f_lo;
        hi := f_hi
      end
      else if !lo = !hi then begin
        lo := f_lo;
        hi := f_hi
      end
      else if f_lo <> f_hi then begin
        lo := Int.min !lo f_lo;
        hi := Int.max !hi f_hi
      end;
      bytes := Int.max !bytes c.fp.((4 * l) + 2)
    end
  done;
  dst.(4 * row) <- (if !live then 1 else 0);
  dst.((4 * row) + 1) <- !lo;
  dst.((4 * row) + 2) <- !hi;
  dst.((4 * row) + 3) <- !bytes

let stage_group c key slot =
  let k = c.n_staged in
  c.staged.(k) <- (key * c.n) + slot;
  group_block c key slot c.before k;
  c.n_staged <- k + 1

(* Point entry [i]'s links at [placement], staging every group whose
   membership that changes with its blocks before and after; the
   replaced links go to [saved]. *)
let stage_placement c i placement =
  for slot = 0 to c.n - 1 do
    let idx = (i * c.n) + slot in
    let old_l = c.links.(idx) in
    let new_l =
      match placement with
      | Mapping.Direct -> -1
      | Mapping.Chain links -> link_on c i c.levels.(slot) links
    in
    c.saved.(slot) <- old_l;
    if old_l <> new_l then begin
      let old_key = if old_l >= 0 then c.fp.((4 * old_l) + 3) else -1 in
      let new_key = if new_l >= 0 then c.fp.((4 * new_l) + 3) else -1 in
      let first = c.n_staged in
      if old_key >= 0 then stage_group c old_key slot;
      if new_key >= 0 && new_key <> old_key then stage_group c new_key slot;
      c.links.(idx) <- new_l;
      for k = first to c.n_staged - 1 do
        group_block c (c.staged.(k) / c.n) slot c.after k
      done
    end
  done

let shift_block c blocks k sign =
  if blocks.(4 * k) = 1 then
    add_block c (c.staged.(k) mod c.n)
      blocks.((4 * k) + 1)
      blocks.((4 * k) + 2)
      (sign * blocks.((4 * k) + 3))

(* Swap the staged groups' blocks in the timelines, before -> after or
   back. All removals run before any addition, so an addition that
   takes a level over capacity marks the final state. *)
let swap_groups c ~forward =
  for k = 0 to c.n_staged - 1 do
    shift_block c (if forward then c.before else c.after) k (-1)
  done;
  for k = 0 to c.n_staged - 1 do
    shift_block c (if forward then c.after else c.before) k 1
  done

let move_array c k slot =
  let lo = c.a_fp.(3 * k) and hi = c.a_fp.((3 * k) + 1) in
  let bytes = c.a_fp.((3 * k) + 2) in
  let old = c.a_slot.(k) in
  if old >= 0 then add_block c old lo hi (-bytes);
  c.a_slot.(k) <- slot;
  if slot >= 0 then add_block c slot lo hi bytes

let slot_of_level c = function
  | Some level when level >= 0 && level < Array.length c.level_slot ->
    c.level_slot.(level)
  | Some _ | None -> -1

(* Whether every tracked level is within capacity once the staged
   change is in the timelines. A level the current position already
   overflows is re-read in full; any other level can only have gone
   over through an addition, which [add_block] flagged. *)
let verdict c =
  let ok = ref true in
  for slot = 0 to c.n - 1 do
    if c.over.(slot) then begin
      if (not c.touched.(slot)) || peak c slot > c.caps.(slot) then
        ok := false
    end
    else if c.exceeded.(slot) then ok := false
  done;
  !ok

(* Stage [move] into the timelines, run [f] on the moved state, then
   undo the move or, with [keep], make it the current position. *)
let with_move c index move ~keep f =
  c.n_staged <- 0;
  Array.fill c.touched 0 c.n false;
  Array.fill c.exceeded 0 c.n false;
  match move with
  | Set_placement (r, p) ->
    let i = Hashtbl.find index r in
    stage_placement c i p;
    swap_groups c ~forward:true;
    let result = f c in
    if not keep then begin
      swap_groups c ~forward:false;
      Array.blit c.saved 0 c.links (i * c.n) c.n
    end;
    result
  | Set_array (array, level) ->
    let k = array_index c array 0 in
    let old = c.a_slot.(k) in
    move_array c k (slot_of_level c level);
    let result = f c in
    if not keep then move_array c k old;
    result

let capacity_fits c index move = with_move c index move ~keep:false verdict

let capacity_commit c index move =
  with_move c index move ~keep:true (fun c ->
      for slot = 0 to c.n - 1 do
        if c.touched.(slot) then c.over.(slot) <- peak c slot > c.caps.(slot)
      done)

let create_capacity policy (m : Mapping.t) (infos : Analysis.info array)
    index =
  let h = m.Mapping.hierarchy in
  let tracked =
    List.filter_map
      (fun level ->
        Option.map
          (fun cap -> (level, cap))
          (Hierarchy.layer h level).Mhla_arch.Layer.capacity_bytes)
      (Hierarchy.on_chip_levels h)
  in
  let levels = Array.of_list (List.map fst tracked) in
  let caps = Array.of_list (List.map snd tracked) in
  let n = Array.length levels in
  let level_slot = Array.make (Hierarchy.levels h) (-1) in
  Array.iteri (fun slot level -> level_slot.(level) <- slot) levels;
  let schedule = m.Mapping.schedule in
  let program = m.Mapping.program in
  let cand_lists =
    Array.map (fun (info : Analysis.info) -> info.Analysis.candidates) infos
  in
  let cand_start = Array.make (Array.length infos + 1) 0 in
  Array.iteri
    (fun i cs -> cand_start.(i + 1) <- cand_start.(i) + List.length cs)
    cand_lists;
  let cands = Array.of_list (List.concat (Array.to_list cand_lists)) in
  (* Share keys are interned in first-seen order. *)
  let key_ids = Hashtbl.create 64 in
  let fp = Array.make (4 * Array.length cands) 0 in
  Array.iteri
    (fun k (cand : Candidate.t) ->
      let iv = Schedule.candidate_interval schedule cand in
      let key =
        match Hashtbl.find_opt key_ids cand.Candidate.share_key with
        | Some id -> id
        | None ->
          let id = Hashtbl.length key_ids in
          Hashtbl.replace key_ids cand.Candidate.share_key id;
          id
      in
      fp.(4 * k) <- iv.Mhla_util.Interval.lo;
      fp.((4 * k) + 1) <- iv.Mhla_util.Interval.hi;
      fp.((4 * k) + 2) <- cand.Candidate.footprint_bytes;
      fp.((4 * k) + 3) <- key)
    cands;
  (* Each key's members in infos order; an entry owning two
     candidates of one key joins once. *)
  let n_keys = Hashtbl.length key_ids in
  let by_key = Array.make n_keys [] in
  for i = Array.length infos - 1 downto 0 do
    for k = cand_start.(i) to cand_start.(i + 1) - 1 do
      let key = fp.((4 * k) + 3) in
      match by_key.(key) with
      | j :: _ when j = i -> ()
      | entries -> by_key.(key) <- i :: entries
    done
  done;
  let member_start = Array.make (n_keys + 1) 0 in
  Array.iteri
    (fun key entries ->
      member_start.(key + 1) <- member_start.(key) + List.length entries)
    by_key;
  let members = Array.of_list (List.concat (Array.to_list by_key)) in
  let array_names = Array.of_list (Mhla_ir.Program.array_names program) in
  let a_fp = Array.make (3 * Array.length array_names) 0 in
  Array.iteri
    (fun k a ->
      let iv = Schedule.array_interval schedule program a in
      a_fp.(3 * k) <- iv.Mhla_util.Interval.lo;
      a_fp.((3 * k) + 1) <- iv.Mhla_util.Interval.hi;
      a_fp.((3 * k) + 2) <-
        (match Mhla_ir.Program.find_array program a with
        | Some decl -> Mhla_ir.Array_decl.size_bytes decl
        | None -> assert false))
    array_names;
  (* Every lifetime lies in [0, horizon], so a widened empty one ends
     at [horizon + 1] at the latest. *)
  let width =
    if policy = Occupancy.Sum then 1 else Schedule.horizon schedule + 1
  in
  let scratch = max 1 (2 * n) in
  let c =
    {
      sum = policy = Occupancy.Sum;
      n;
      width;
      levels;
      level_slot;
      caps;
      occ = Array.make (n * width) 0;
      over = Array.map (fun cap -> 0 > cap) caps;
      cands;
      cand_start;
      fp;
      links = Array.make (Array.length infos * n) (-1);
      member_start;
      members;
      array_names;
      a_fp;
      a_slot = Array.make (Array.length array_names) (-1);
      n_staged = 0;
      staged = Array.make scratch 0;
      before = Array.make (4 * scratch) 0;
      after = Array.make (4 * scratch) 0;
      saved = Array.make n (-1);
      touched = Array.make n false;
      exceeded = Array.make n false;
    }
  in
  (* Position on [m]: commit each placement and promotion in turn. *)
  List.iter
    (fun (r, p) ->
      match p with
      | Mapping.Direct -> ()
      | Mapping.Chain _ -> capacity_commit c index (Set_placement (r, p)))
    m.Mapping.placements;
  List.iter
    (fun (array, level) ->
      capacity_commit c index (Set_array (array, Some level)))
    m.Mapping.array_layers;
  c

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
  capacity : capacity;
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

let create ?(telemetry = Telemetry.noop) ?(policy = Occupancy.In_place)
    ~objective (m : Mapping.t) =
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
      capacity =
        create_capacity policy m (Array.map (fun e -> e.info) entries) index;
      counters =
        {
          n_probes = 0;
          n_commits = 0;
          n_reused = 0;
          n_recomputed = 0;
          n_invalidated = 0;
          n_infeasible = 0;
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

let fits t move =
  let ok = capacity_fits t.capacity t.index move in
  if not ok then begin
    t.counters.n_infeasible <- t.counters.n_infeasible + 1;
    Telemetry.count t.telemetry ~cat:"engine" "engine.infeasible" 1
  end;
  ok

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
      capacity_commit t.capacity t.index move;
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
    infeasible = t.counters.n_infeasible;
  }
