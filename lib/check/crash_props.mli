(** Exhaustive crash-point verification of the storage protocols: each
    scenario (store publish, tuning-queue checkpoint, CGA checkpoint
    replace and append, nets composite checkpoint, serve daemon end to
    end) runs once under a
    site-recording {!Heron_util.Io_faults} injector to enumerate its N I/O
    sites, then replays with a simulated process death at {e every} site,
    checks mid-crash invariants (never torn, never version-regressed) and
    requires recovery to converge on the uninterrupted run's final state. *)

val tests : ?count:int -> unit -> QCheck.Test.t list
