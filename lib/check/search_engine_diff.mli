(** Differential properties: the interned flat-pool search engine
    ({!Heron_search.Cga} / {!Heron_search.Env.Recorder}) against the
    frozen pre-overhaul loop ({!Cga_ref} / {!Env_ref}) — results,
    checkpoint bytes and RNG consumption byte-identical at --jobs 1 and 4,
    with and without faults, across resume splits; plus pool-independence
    of the [search.*] counters. *)

val tests : ?count:int -> unit -> QCheck.Test.t list
