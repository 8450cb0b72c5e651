(** Array accesses inside statements. *)

type direction = Read | Write

type t = private {
  array : string;  (** name of the accessed {!Array_decl.t} *)
  direction : direction;
  index : Affine.t list;  (** one affine subscript per array dimension *)
}

val make : array:string -> direction:direction -> index:Affine.t list -> t
(** @raise Mhla_util.Error.Error on an empty array name or empty index. *)

val read : string -> Affine.t list -> t

val write : string -> Affine.t list -> t

val is_read : t -> bool

val is_write : t -> bool

val iterators : t -> string list
(** All iterators appearing in any subscript, sorted, deduplicated. *)

val pp : t Fmt.t
