(** Fault-campaign invariants of the resilient measurement pipeline:

    - a CGA run under injected faults still only ever reports a best
      assignment that satisfies the original CSP;
    - a quarantined configuration is never measured again — its attempt
      count is bounded by the retry policy no matter how often the search
      revisits it;
    - a zero-rate fault spec is byte-for-byte inert: trace, incumbent and
      invalid count equal the resilience-free run;
    - killing a run at any iteration boundary and resuming from the
      checkpoint snapshot reproduces the uninterrupted run exactly;
    - under injected torn writes and ENOSPC, a checkpoint write that
      returned reads back as the snapshot it wrote, one that raised
      leaves the log as it was, and resuming in place from the final log
      reproduces the fault-free run. *)

val tests : ?count:int -> unit -> QCheck.Test.t list
(** [count] cases per property (default 20). *)
