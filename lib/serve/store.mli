(** Versioned on-disk schedule store: monotonically numbered immutable
    library snapshots plus a manifest naming the latest one.

    Publishing writes the snapshot file, then a [.sum] checksum sidecar,
    then the manifest — all three through {!Heron_util.Atomic_io} (tmp +
    rename) with [~fsync:true] and bounded retry on transient errors — so a
    crash at any syscall boundary leaves either the previous published
    state or the new one, never a torn or regressed library, even across
    power loss. Startup loads the manifest's snapshot after verifying its
    checksum; an unreadable or lying manifest falls back to scanning the
    snapshot files in descending version order and taking the newest one
    whose sidecar checksum verifies (legacy snapshots without a sidecar
    are accepted only when they parse warning-free). *)

module Library = Heron.Library

type t

val open_ : dir:string -> t
(** Opens (creating if needed) the store directory. Never loads anything. *)

val dir : t -> string

type loaded = {
  version : int;
  library : Library.t;
  recovered : bool;
      (** the manifest was missing/corrupt and a snapshot scan recovered
          the state *)
  warnings : Library.load_warning list;  (** skipped snapshot lines *)
}

val load_latest : t -> loaded option
(** The latest valid published state, or [None] for an empty store. Never
    raises: corruption degrades to recovery, recovery degrades to [None]. *)

val publish : t -> Library.t -> int
(** Atomically publishes the library as the next version (monotone even
    across manifest corruption: 1 + the max of the manifest version and
    every snapshot file version on disk) and returns it. The four newest
    snapshot files are retained, older ones pruned. Counts on the
    [serve.publishes] counter inside a [serve.publish] span. *)

val versions : t -> int list
(** Snapshot versions present on disk, ascending. *)

val snapshot_path : t -> int -> string
(** Path of one version's snapshot file (for tests). *)

val sum_path : t -> int -> string
(** Path of one version's checksum sidecar ([snapshot_path ^ ".sum"]). *)

val manifest_path : t -> string
