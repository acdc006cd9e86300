(** Deterministic fault injection for the measurement pipeline.

    Real DLA measurements fail in ways the simulator never does: compiles
    time out, kernels crash, boards hang, timings come back noisy. This
    module injects exactly those failures on top of any base measurer,
    keyed purely on [(fault seed, configuration key, attempt number)] via
    stable hashing — no RNG state is consumed, so a fault campaign is
    reproducible from its spec alone, identical for any [--jobs] value,
    and a spec of all-zero rates is byte-for-byte inert. *)

type spec = {
  seed : int;  (** fault-universe seed; independent of the search seed *)
  timeout_rate : float;  (** transient per-attempt timeout probability *)
  crash_rate : float;  (** transient per-attempt crash probability *)
  hang_rate : float;
      (** transient per-attempt hang probability: the measurement never
          returns and is only reclaimed at the candidate's deadline *)
  noise : float;
      (** max multiplicative latency noise: a successful measurement is
          scaled by a per-(config, attempt) factor in [1 ± noise] *)
  persistent : float;
      (** fraction of configurations that fail {e every} attempt (a
          config-dependent miscompile), keyed on the config alone *)
}

val zero : spec
(** All rates and noise zero, seed 0: injects nothing. *)

(** What the injector decides for one measurement attempt. *)
type decision =
  | Noise of float  (** proceed; scale a successful latency by the factor *)
  | Timeout  (** transient: the attempt times out *)
  | Crash  (** transient: the attempt crashes *)
  | Hang  (** transient: the attempt hangs until the candidate deadline *)
  | Persistent  (** this configuration fails every attempt *)

val decide : spec -> key:string -> attempt:int -> decision
(** Pure function of [(spec, key, attempt)]. [Persistent] depends on
    [(spec.seed, key)] only, so it is stable across attempts. With
    [spec = zero] (or any all-zero rates), always [Noise 1.0]. *)

val parse : string -> (spec option, string) result
(** Parse a [--faults] spec: either [off] / [none] / [""] for [Ok None],
    or comma-separated [key=value] pairs over [seed], [timeout], [crash],
    [hang], [noise], [persistent] (unmentioned fields are zero), e.g.
    [timeout=0.1,crash=0.05,noise=0.2,persistent=0.1,seed=3]. Rates and
    the persistent fraction must lie in [0, 1]; noise must be
    non-negative. *)

val to_string : spec -> string
(** Canonical rendering; [parse (to_string s) = Ok (Some s)]. *)

val set_default : spec option -> unit
(** Install (or clear) the process-default fault spec ([--faults] on the
    binaries). {!Heron.Pipeline.tune} reads it, and it is the only way to
    give a tuning run a fault spec. *)

val default : unit -> spec option
