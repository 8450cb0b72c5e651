(* Per-dimension value ranges of an access over its loops' full
   domains: the bounding box of everything the access can ever touch. *)
let access_box (loops : (string * int) list) (a : Mhla_ir.Access.t) =
  let trip name =
    match List.assoc_opt name loops with Some t -> t | None -> 1
  in
  List.map
    (fun e ->
      (Mhla_ir.Affine.min_value e ~trip, Mhla_ir.Affine.max_value e ~trip))
    a.Mhla_ir.Access.index

let boxes_intersect b1 b2 =
  List.length b1 = List.length b2
  && List.for_all2
       (fun (lo1, hi1) (lo2, hi2) -> lo1 <= hi2 && lo2 <= hi1)
       b1 b2

(* A producer under [iter] only races a prefetch when the region it
   writes can overlap the region the prefetch reads; a deferred drain
   is additionally racing any {e reader} of the drained region.
   Disjoint bounding boxes leave the loop free. [owner] is the
   candidate's own access, which never blocks itself. *)
let loop_carries_dependence (program : Mhla_ir.Program.t) ~iter ~array
    ~source_box ~writeback ~owner =
  let owner_stmt, owner_index = owner in
  let check acc (ctx : Mhla_ir.Program.context) =
    acc
    ||
    if not (List.mem_assoc iter ctx.Mhla_ir.Program.loops) then false
    else begin
      let stmt = ctx.Mhla_ir.Program.stmt in
      List.exists
        (fun (k, (a : Mhla_ir.Access.t)) ->
          let is_owner =
            stmt.Mhla_ir.Stmt.name = owner_stmt && k = owner_index
          in
          (not is_owner)
          && a.Mhla_ir.Access.array = array
          && (Mhla_ir.Access.is_write a || writeback)
          && boxes_intersect source_box
               (access_box ctx.Mhla_ir.Program.loops a))
        (List.mapi (fun k a -> (k, a)) stmt.Mhla_ir.Stmt.accesses)
    end
  in
  Mhla_ir.Program.fold_stmts program ~init:false ~f:check

(* dep_analysis + loops_between of Figure 1: walk outward from the
   refresh loop; a loop is free when advancing the prefetch across it
   cannot race a producer, i.e. no statement under it writes the
   source array. The first writing loop stops the walk. *)
let freedom_loops program (info : Analysis.info) (c : Candidate.t) =
  match c.Candidate.refresh_iter with
  | None -> []
  | Some refresh ->
    let loops = info.Analysis.loops in
    let source_box =
      match
        Mhla_ir.Program.find_context program ~stmt:c.Candidate.stmt
      with
      | Some ctx ->
        access_box loops
          (List.nth ctx.Mhla_ir.Program.stmt.Mhla_ir.Stmt.accesses
             c.Candidate.access_index)
      | None -> []
    in
    (* Enclosing loops come outermost-first; the extension walks from
       the refresh loop outward, so keep the prefix up to the refresh
       loop and orient it refresh-first: [refresh; next-outer; ...]. *)
    let rec outward acc = function
      | [] -> [] (* refresh not found: no freedom *)
      | (iter, _) :: _ when iter = refresh -> iter :: acc
      | (iter, _) :: rest -> outward (iter :: acc) rest
    in
    let innermost_first = outward [] loops in
    let rec take_free = function
      | [] -> []
      | iter :: rest ->
        if
          loop_carries_dependence program ~iter ~array:c.Candidate.array
            ~source_box
            ~writeback:(c.Candidate.direction = Mhla_ir.Access.Write)
            ~owner:(c.Candidate.stmt, c.Candidate.access_index)
        then []
        else iter :: take_free rest
    in
    take_free innermost_first
