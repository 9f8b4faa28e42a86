(** The master's write-ahead journal (durability layer).

    Every master state transition that matters for recovery — client
    registration, problem assignment, split grants and completions,
    clause-share accounting, suspicion, death, adoption, verdict — is
    appended to the journal {e before} the transition's messages go out.
    The journal models the master's stable storage: a crashed master loses
    all volatile state (reservations, in-flight transfers, backlogs) but
    the journal survives, and {!replay} folds it back into the state a
    restarted master needs to resume the run.

    Entries pending since the last snapshot are folded into a base
    snapshot every [compact_every] appends, bounding replay work.  A
    quota crossing compacts first and degrades only if still over.

    Replay is deterministic: {!digest} renders the replayed state in
    canonical (sorted) order, so two replays of the same journal always
    produce identical digests. *)

(** Re-export of {!Protocol.journal_entry}: the constructors are defined
    on the protocol side so a {!Protocol.Ship} message can carry entries
    to a hot-standby replica, but the journal remains the authority on
    their meaning. *)
type entry = Protocol.journal_entry =
  | Registered of { client : int }
  | Assigned of { pid : Protocol.pid; dst : int; path : Sat.Types.lit list }
      (** the master sent [pid] (with guiding-path lineage [path]) to [dst] *)
  | Started of { pid : Protocol.pid; client : int }
      (** [client] confirmed it is working on [pid] *)
  | Granted of { requester : int; partner : int }
  | Split of {
      donor : int;
      donor_pid : Protocol.pid;
      donor_path : Sat.Types.lit list;
      pid : Protocol.pid;
      dst : int;
      path : Sat.Types.lit list;
    }
      (** a completed split: the donor kept [donor_pid] (its lineage grew
          to [donor_path]) and handed the complementary branch [pid] with
          lineage [path] to [dst] *)
  | Refuted of { pid : Protocol.pid }
  | Shared of { clauses : int }
  | Suspected of { client : int }
  | Died of { client : int }
  | Adopted of { pid : Protocol.pid; client : int; path : Sat.Types.lit list }
      (** reconciliation: a resyncing client reported live work *)
  | Verdict of { answer : string }

type client_state = Alive | Dead

type state = {
  clients : (int, client_state) Hashtbl.t;
  live : (Protocol.pid, Sat.Types.lit list) Hashtbl.t;
      (** every unrefuted subproblem and its guiding-path lineage — enough
          to re-derive the subproblem from the original CNF *)
  holder : (Protocol.pid, int) Hashtbl.t;  (** last known holder of each live pid *)
  refuted : (Protocol.pid, unit) Hashtbl.t;
      (** tombstones: every pid ever refuted.  Pids are never reused, so a
          registration entry for a tombstoned pid is ignored on replay —
          a [Refuted] that was journaled before a reordered [Split] or
          [Adopted] entry must not resurrect the subproblem. *)
  mutable problem_assigned : bool;
  mutable splits : int;
  mutable share_batches : int;
  mutable shared_clauses : int;
  mutable verdict : string option;
}

val empty_state : unit -> state

val apply : state -> entry -> unit

val digest : state -> string
(** Canonical hex digest of a replayed state (order-independent). *)

(** The journal is a {!Sealed_log} whose snapshot is a [state]: records
    are sealed, scrubbed before replay, quota-accounted and compacted as
    described there. *)
include Sealed_log.S with type entry := entry and type state := state

val create : ?obs:Obs.t -> ?quota:int -> compact_every:int -> unit -> t
(** [compact_every] is clamped to at least 1.  [obs] (default
    [Obs.disabled]) receives the [journal.*] counters, the occupancy gauge
    and a compaction instant-span on the master track.  [quota] (estimated
    bytes, default 0 = unlimited) is the disk quota. *)

val compactions : t -> int
(** How many times pending entries were folded into the snapshot. *)

val forced_compactions : t -> int
(** Emergency compactions forced by a quota crossing (in addition to the
    periodic [compact_every] ones, which {!compactions} also counts). *)
