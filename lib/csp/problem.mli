(** A constraint satisfaction problem: variables with finite domains plus
    constraints (the paper's [CSP_initial] and its CGA offspring).

    Every variable carries a category matching the paper's Table 4
    breakdown: architectural constants, loop lengths, tunable parameters,
    and auxiliary helpers. *)

type category = Architectural | Loop_length | Tunable | Auxiliary

val category_to_string : category -> string

type t

type builder

val builder : unit -> builder

val add_var : builder -> ?category:category -> string -> Domain.t -> unit
(** @raise Invalid_argument if the variable already exists. *)

val declare_var : builder -> ?category:category -> string -> Domain.t -> unit
(** Like {!add_var} but intersects domains if the variable exists. *)

val domain_of : builder -> string -> Domain.t
(** Current domain of a declared variable.
    @raise Invalid_argument on unknown variables. *)

val add_cons : builder -> Cons.t -> unit
(** @raise Invalid_argument if the constraint mentions an unknown variable. *)

val freeze : builder -> t

val of_parts : (string * Domain.t) list -> Cons.t list -> t
(** Convenience constructor; all variables are categorized [Tunable]. *)

val vars : t -> string array
(** Variable names in declaration order. *)

val n_vars : t -> int
val n_cons : t -> int
val domain : t -> string -> Domain.t
val category : t -> string -> category
val constraints : t -> Cons.t list
val vars_of_category : t -> category -> string list

val with_extra : t -> Cons.t list -> t
(** [with_extra p cs] is [p] plus additional constraints — the CSP
    transformation at the heart of constraint-based crossover.
    Unknown variables in [cs] are rejected like {!add_cons}. *)

val decompose : t -> t * Cons.t list
(** [decompose p] is [(root, extras)] where [root] is the underlying
    problem [p] was derived from by (possibly nested) {!with_extra}
    calls and [extras] lists the layered constraints in application
    order, so [root] extended with [extras] has exactly [p]'s
    constraint list. For a problem built directly, it is [(p, [])].
    The root is returned by physical identity, letting the solver key a
    compiled-template cache on it. *)

val check : t -> Assignment.t -> (unit, Cons.t) result
(** First violated constraint, if any. Also fails when a value falls
    outside its declared domain (reported as an [In] constraint). *)

val violations : t -> Assignment.t -> int
(** Number of violated constraints (domain violations included). *)
