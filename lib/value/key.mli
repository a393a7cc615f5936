(** Value-level hash keys for the plan engine's join, semi-join and
    grouping tables.

    [equal] holds exactly when the {!Value.canonical} forms are equal, and
    [hash] agrees with it, so a table keyed on values groups the same rows
    as one keyed on canonical strings, without building the strings: [Int 1]
    matches [Float 1.0], integral floats join the integer form only up to
    the 4e18 cut-off, [Null] matches [Null], and NaNs match by sign. NULL
    exclusion under three-valued logic is the caller's job. *)

val equal : Value.t -> Value.t -> bool
val hash : Value.t -> int

val equal_array : Value.t array -> Value.t array -> bool
val hash_array : Value.t array -> int

module Tbl : Hashtbl.S with type key = Value.t array
(** Composite keys: one value per key term, compared element-wise. *)
