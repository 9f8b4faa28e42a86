(** Job lifecycle journal: the service-level analogue of the master's
    write-ahead {!Gridsat_core.Journal}.

    Every admission decision and every job state transition is appended
    as a CRC-sealed record, so a service brought back after a crash can
    replay the log and recover which jobs were in flight, which had
    already reached a terminal state, and what that state was — run-level
    recovery (split trees, checkpoints) stays the per-run journal's
    business. *)

type entry =
  | Submitted of {
      id : int;
      tenant : string;
      priority : string;
      digest : string;
      deadline : float option;
    }
  | Admitted of { id : int }
  | Shed of { id : int; retry_after : float }
  | Cache_hit of { id : int; answer : string }
  | Started of { id : int; hosts : int list }
  | Requeued of { id : int; reason : string }  (** preempted back into the queue *)
  | Finished of { id : int; terminal : string }
      (** [terminal] is {!Job.terminal_string} of the outcome *)

type jstate = Queued | Running | Done of string

type state = {
  jobs : (int, jstate) Hashtbl.t;
  mutable submitted : int;
  mutable admitted : int;
  mutable shed : int;
  mutable cache_hits : int;
  mutable requeues : int;
}

val empty_state : unit -> state

val apply : state -> entry -> unit

val digest : state -> string
(** Canonical digest of a replayed state (sorted job ids), for
    determinism checks. *)

(** The joblog is an append-only {!Gridsat_core.Sealed_log}: records are
    sealed, scrubbed before replay and quota-accounted as described
    there.  With nothing to compact, degraded mode ends only on quota
    relief. *)
include Gridsat_core.Sealed_log.S with type entry := entry and type state := state

val create : ?obs:Obs.t -> ?quota:int -> unit -> t
(** [quota] (estimated bytes, default 0 = unlimited) is the disk quota of
    the joblog's backing store.  With a flight recorder in [obs], every
    appended record is also noted there. *)
