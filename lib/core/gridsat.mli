(** GridSAT: the distributed solver, end to end.

    [solve ~testbed cnf] stands up the whole apparatus on the simulated
    Grid — network, messaging, NWS probes, master, one client per host,
    the batch job if any — runs the master-client protocol to completion,
    and returns the answer with full run metrics and the event log.

    {[
      let testbed = Gridsat_core.Testbed.grads () in
      let result = Gridsat_core.Gridsat.solve ~testbed cnf in
      match result.Gridsat_core.Master.answer with
      | Gridsat_core.Master.Sat model -> ...
      | Gridsat_core.Master.Unsat -> ...
      | Gridsat_core.Master.Unknown reason -> ...
    ]} *)

val launch :
  sim:Grid.Sim.t ->
  net:Grid.Network.t ->
  obs:Obs.t ->
  ?health:Health.t ->
  config:Config.t ->
  testbed:Testbed.t ->
  fault_plan:Grid.Fault.spec list ->
  fault_seed:int ->
  Sat.Cnf.t ->
  Master.t
(** The one way a run starts, shared by {!solve} and the job service.
    Creates the run's message bus over [sim] and [net], then the master
    (which ranks the testbed's hosts and starts the clients), and, for a
    non-empty [fault_plan], arms the plan against that master: host and
    master faults fire on the simulation clock, and message faults and
    payload corruption apply to every send on the bus.  [fault_seed]
    seeds the plan's private RNG.  Nothing runs until the caller steps
    [sim].  Raises [Invalid_argument] if [fault_plan] fails
    {!Grid.Fault.validate}; [config] is assumed valid. *)

val solve :
  ?config:Config.t ->
  ?fault_plan:Grid.Fault.spec list ->
  ?obs:Obs.t ->
  ?health:Health.t ->
  ?on_master:(Master.t -> unit) ->
  testbed:Testbed.t ->
  Sat.Cnf.t ->
  Master.result
(** Runs to termination (answer, timeout, or unrecoverable failure).
    Raises [Invalid_argument] if [config] is inconsistent (see
    {!Config.validate}).  The run starts through {!launch}.
    [fault_plan] arms the fault-injection subsystem against the run:
    host crashes, hangs, and master crash/restart cycles fire on the
    simulation clock, and message faults (drops, delays, duplicates,
    partitions) are applied to every send.  The plan is evaluated with a
    private RNG seeded from the config's seed, so the same plan and seed
    replay the identical failure schedule.  [health] wires a
    (possibly shared) host-health model into the run's scheduling; see
    {!Master.create}.  [on_master] exposes
    the master right after construction — tests use it to inject failures
    at scheduled times.  [obs] (default [Obs.disabled]) collects metrics
    and spans across every layer of the run; its span clock is pointed at
    the simulation's virtual clock, so exported traces are deterministic
    for a given config and seed. *)

val answer_string : Master.answer -> string
(** "SAT", "UNSAT" or "UNKNOWN(reason)". *)

val pp_result : Format.formatter -> Master.result -> unit
(** One-paragraph run summary (answer, time, peak clients, traffic). *)
