(** A sealed append-only log over modelled stable storage.

    This is the one storage engine under the master's write-ahead
    {!Journal} and the service's job log.  Each record is sealed at append
    time with the CRC-32 of its [Marshal] encoding ([No_sharing]), an
    encoding the log computes itself, so no entry type needs a printer to
    be sealable.  A record whose seal no longer matches (torn or rotted at
    rest) is scrubbed before anything reads the log: it is dropped and
    counted, never folded into replayed state.

    Records sit on top of a snapshot.  With [compact_every > 0] the
    surviving records are folded into the snapshot every [compact_every]
    appends (the classical WAL + checkpoint scheme), so replay starts from
    the snapshot rather than from the first record.  With
    [compact_every = 0] the log is append-only and the snapshot stays
    empty.

    Storage is accounted in deterministic estimated bytes against a quota
    (0 = unlimited), so quota crossings replay at the same virtual
    instants under the same seed.  A new crossing first forces a
    compaction, when the log compacts at all.  If occupancy is still over
    the quota the log enters degraded mode: appends keep landing (losing
    recovery records would be worse than overrunning an advisory quota)
    but each is counted, and the owner is expected to alarm.  Degraded
    mode is entered and left only by {!S.append} and {!S.set_quota}, the
    two calls an owner watches. *)

(** What an owner supplies: its entry type and the state machine the
    entries drive. *)
module type RECORD = sig
  type entry

  type state

  val name : string
  (** Prefix of the log's Obs instruments, e.g. ["journal"]. *)

  val entry_bytes : entry -> int
  (** Estimated on-disk size of one record. *)

  val empty : unit -> state

  val copy : state -> state

  val apply : state -> entry -> unit

  val state_bytes : state -> int
  (** Estimated on-disk size of a snapshot. *)
end

(** The operations both logs share. *)
module type S = sig
  type entry

  type state

  type t

  val append : t -> entry -> unit
  (** Seals and appends one record, compacts when [compact_every]
      records have accumulated, then applies the quota rule. *)

  val replay : t -> state
  (** Scrubs, then folds the surviving records into a copy of the
      snapshot.  Replaying twice yields equal states. *)

  val entries : t -> entry list
  (** Records not yet compacted, oldest first.  No scrub: a rotted record
      stays listed until the next {!replay} or compaction. *)

  val set_quota : t -> quota:int -> unit
  (** Change the quota (0 lifts it) and apply the quota rule at once. *)

  val quota : t -> int

  val occupancy : t -> int
  (** Estimated bytes: the snapshot plus the records. *)

  val bytes_peak : t -> int
  (** Highest occupancy ever reached. *)

  val degraded : t -> bool

  val degraded_entries : t -> int
  (** Records appended while degraded. *)

  val appended : t -> int
  (** Records ever appended. *)

  val records_dropped : t -> int
  (** Records scrubbed because their seal no longer matched. *)

  val corrupt_tail : t -> n:int -> unit
  (** Fault injection: rot the newest [n] records not yet compacted.  A
      rotted record stays rotted; the next {!replay} or compaction
      discards it. *)
end

module Make (R : RECORD) : sig
  include S with type entry := R.entry and type state := R.state

  val create : ?obs:Obs.t -> ?quota:int -> compact_every:int -> unit -> t
  (** [obs] (default [Obs.disabled]) receives the append, drop and
      degraded-entry counters and an occupancy gauge; a compacting log
      adds compaction counters and a compaction instant-span. *)

  val compactions : t -> int
  (** Times the records were folded into the snapshot. *)

  val forced_compactions : t -> int
  (** Compactions forced by a quota crossing (also in {!compactions}). *)

  val obs : t -> Obs.t
  (** The handle given to {!create}, for an owner's own taps. *)
end = struct
  (* The seal covers every field of the record, through an encoding no
     entry type has to maintain. *)
  let seal e = Integrity.crc32_string (Marshal.to_string e [ Marshal.No_sharing ])

  type t = {
    compact_every : int;  (* 0 = append-only *)
    base : R.state;  (* the snapshot *)
    mutable base_bytes : int;
    mutable records : (R.entry * int) list;  (* newest first, each with its seal *)
    mutable pending : int;
    mutable record_bytes : int;
    mutable appended : int;
    mutable records_dropped : int;
    mutable compactions : int;
    mutable forced_compactions : int;
    mutable quota : int;  (* bytes; 0 = unlimited *)
    mutable bytes_peak : int;
    mutable degraded : bool;
    mutable degraded_entries : int;
    obs : Obs.t;
    obs_on : bool;
    c_appends : Obs.Metrics.counter;
    c_dropped : Obs.Metrics.counter;
    c_degraded : Obs.Metrics.counter;
    c_compactions : Obs.Metrics.counter;
    c_forced : Obs.Metrics.counter;
    g_bytes : Obs.Metrics.gauge;
  }

  let create ?(obs = Obs.disabled) ?(quota = 0) ~compact_every () =
    let m = Obs.metrics obs in
    let counter suffix = Obs.Metrics.counter m (R.name ^ suffix) in
    (* an append-only log registers no compaction instruments *)
    let compaction_counter suffix =
      if compact_every > 0 then counter suffix else Obs.Metrics.counter Obs.Metrics.disabled suffix
    in
    let base = R.empty () in
    let base_bytes = R.state_bytes base in
    {
      compact_every = max 0 compact_every;
      base;
      base_bytes;
      records = [];
      pending = 0;
      record_bytes = 0;
      appended = 0;
      records_dropped = 0;
      compactions = 0;
      forced_compactions = 0;
      quota = max 0 quota;
      bytes_peak = base_bytes;
      degraded = false;
      degraded_entries = 0;
      obs;
      obs_on = Obs.enabled obs;
      c_appends = counter ".appends";
      c_dropped = counter ".records.dropped";
      c_degraded = counter ".degraded_entries";
      c_compactions = compaction_counter ".compactions";
      c_forced = compaction_counter ".forced_compactions";
      g_bytes = Obs.Metrics.gauge m (R.name ^ ".bytes");
    }

  let occupancy t = t.base_bytes + t.record_bytes

  let note_peak t = t.bytes_peak <- max t.bytes_peak (occupancy t)

  let over_quota t = t.quota > 0 && occupancy t > t.quota

  (* Each bad record is counted once: it leaves the log here, before any
     replay or compaction reads it.  Losing a record degrades recovery
     precision but never corrupts state. *)
  let scrub t =
    let ok, bad = List.partition (fun (e, d) -> seal e = d) t.records in
    if bad <> [] then begin
      let dropped = List.length bad in
      t.records <- ok;
      t.pending <- t.pending - dropped;
      t.record_bytes <- List.fold_left (fun a (e, _) -> a + R.entry_bytes e) 0 ok;
      t.records_dropped <- t.records_dropped + dropped;
      if t.obs_on then Obs.Metrics.add t.c_dropped dropped
    end

  let fold_records t st = List.iter (fun (e, _) -> R.apply st e) (List.rev t.records)

  let compact t =
    scrub t;
    let folded = t.pending in
    fold_records t t.base;
    t.records <- [];
    t.pending <- 0;
    t.record_bytes <- 0;
    t.base_bytes <- R.state_bytes t.base;
    t.compactions <- t.compactions + 1;
    note_peak t;
    if t.obs_on then begin
      Obs.Metrics.incr t.c_compactions;
      (* only the master's run journal compacts *)
      ignore
        (Obs.Span.instant (Obs.spans t.obs) ~tid:Obs.Span.master_tid ~cat:R.name
           ~args:[ ("entries_folded", Obs.Json.Int folded) ]
           (R.name ^ ".compact"))
    end

  (* A new crossing forces a compaction first (folding records into the
     snapshot is the only way this storage can shrink); degraded mode
     starts only if that did not bring occupancy back under the quota,
     and ends as soon as occupancy is under it again. *)
  let enforce_quota t =
    if (not t.degraded) && over_quota t then begin
      if t.compact_every > 0 then begin
        t.forced_compactions <- t.forced_compactions + 1;
        if t.obs_on then Obs.Metrics.incr t.c_forced;
        compact t
      end;
      t.degraded <- over_quota t
    end
    else if t.degraded && not (over_quota t) then t.degraded <- false

  let set_gauge t = if t.obs_on then Obs.Metrics.set t.g_bytes (float_of_int (occupancy t))

  let append t e =
    t.records <- (e, seal e) :: t.records;
    t.pending <- t.pending + 1;
    t.record_bytes <- t.record_bytes + R.entry_bytes e;
    t.appended <- t.appended + 1;
    if t.obs_on then Obs.Metrics.incr t.c_appends;
    note_peak t;
    if t.compact_every > 0 && t.pending >= t.compact_every then compact t;
    enforce_quota t;
    if t.degraded then begin
      t.degraded_entries <- t.degraded_entries + 1;
      if t.obs_on then Obs.Metrics.incr t.c_degraded
    end;
    set_gauge t

  let set_quota t ~quota =
    t.quota <- max 0 quota;
    enforce_quota t;
    set_gauge t

  let replay t =
    scrub t;
    let st = R.copy t.base in
    fold_records t st;
    st

  let corrupt_tail t ~n =
    let rec rot k = function
      | (e, d) :: rest when k > 0 ->
          (* rotting a rotted seal again must not heal it *)
          let d = if d = seal e then Integrity.corrupted d else d in
          (e, d) :: rot (k - 1) rest
      | rest -> rest
    in
    t.records <- rot n t.records

  let entries t = List.rev_map fst t.records

  let quota t = t.quota

  let bytes_peak t = t.bytes_peak

  let degraded t = t.degraded

  let degraded_entries t = t.degraded_entries

  let appended t = t.appended

  let records_dropped t = t.records_dropped

  let compactions t = t.compactions

  let forced_compactions t = t.forced_compactions

  let obs t = t.obs
end
