"""Cycle-interleaved co-simulation of host core(s), CFI stage(s) and RoT.

The simulator advances a global cycle counter.  Each hart carries a
cycle *debt*: after retiring an instruction costing N cycles it stays
busy for N global ticks.  The CFI log-writer FSM ticks every cycle.
This interleaving is what lets the reproduction observe the paper's
end-to-end behaviour: CVA6 stalling on a full CFI queue while Ibex is
still busy checking, the doorbell→wake latency, and the completion
hand-back — all in one coherent timeline.

A topology has N application harts (N=1 is the paper's SoC) sharing the
one RoT monitor.  Per cycle the application harts tick in hart-id
order, then the RoT agent (the Ibex core or a mounted policy host),
then every CFI stage in hart-id order — the ordering every engine
replays identically, which is what makes the shared-mailbox doorbell
arbitration deterministic.  The fast engines use one planner for every
N: a scan over the agents either jumps the clock over cycles in which
all of them are inert, or runs the ready ones through a batched window
while the inert ones are replayed in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.log_writer import LogWriter
from repro.errors import CfiViolation, ConfigError, SimulationError
from repro.system.soc import TitanCfiSoc


@dataclass
class SimulationReport:
    """Outcome of one co-simulated run.

    Attributes:
        cycles: global cycles until the host halted (and the CFI path
            drained).
        host_instructions: instructions the host retired (summed over
            application harts in multi-hart runs).
        host_stall_cycles: cycles the commit stage was inhibited
            (summed over application harts).
        violation: the CFI violation that ended the run, if any (in
            multi-hart runs: the raised one, else the lowest-hart
            latched fault).
        cfi: CFI stage statistics summary (empty when CFI is absent;
            aggregated over stages in multi-hart runs).
        ibex_instructions: instructions the RoT core retired.
        detection_latency: cycles from the first violating commit log
            entering the mailbox path to its verdict — stable even when
            violations are latched rather than raised — or ``None`` when
            no violation was flagged.
        faults: fault-injection statistics when a fault controller was
            attached to the SoC (see :mod:`repro.faults`), else ``None``.
        per_hart: per-application-hart breakdown for multi-hart runs
            (one dict per hart: instructions, stalls, verdict, latency,
            CFI stats); ``None`` on single-hart runs, whose report is
            unchanged from the historic shape.
    """

    cycles: int
    host_instructions: int
    host_stall_cycles: int
    violation: Optional[CfiViolation]
    cfi: Dict[str, object] = field(default_factory=dict)
    ibex_instructions: int = 0
    detection_latency: Optional[int] = None
    faults: Optional[Dict[str, object]] = None
    per_hart: Optional[List[Dict[str, object]]] = None

    @property
    def detected(self) -> bool:
        """True when a CFI violation was flagged."""
        return self.violation is not None


#: Skip bound meaning "this component cannot originate the next event"
#: (shared with the log writer so its parked-state sentinel compares
#: correctly against hart bounds).
_UNBOUNDED = LogWriter.UNBOUNDED


#: Execution modes, slowest to fastest.  All three are cycle-exact; the
#: fast ones only change *how* the timeline is traversed.
MODE_BUSY = "busy"
MODE_EVENT = "event-driven"
MODE_BATCHED = "batched"

_MODES = (MODE_BUSY, MODE_EVENT, MODE_BATCHED)


#: Who serves the CFI mailbox — the policy-backend axis of a cosim run.
#:
#: * ``"firmware"`` — the RV32 firmware executing on the Ibex ISS (the
#:   shadow-stack policy, the paper's reference configuration);
#: * ``"host"`` — a mounted :class:`repro.policyhost.PolicyHost`
#:   running any Python policy on the firmware-calibrated cycle model
#:   (the RoT core is left frozen).
#:
#: The simulator derives the axis from the SoC: a mounted policy host
#: selects ``"host"``; see :attr:`SystemSimulator.policy_backend`.
POLICY_BACKEND_FIRMWARE = "firmware"
POLICY_BACKEND_HOST = "host"

POLICY_BACKENDS = (POLICY_BACKEND_FIRMWARE, POLICY_BACKEND_HOST)


class SystemSimulator:
    """Drives a :class:`TitanCfiSoc` cycle by cycle.

    Args:
        soc: the platform under simulation.
        run_rot: step the Ibex RoT core (False freezes the firmware).
        mode: execution engine:

            * ``"busy"`` — one :meth:`tick` per cycle;
            * ``"event-driven"`` — jump the clock over cycles in which
              provably nothing can change (hart cycle debt, WFI sleep,
              stalls only a log-writer transition releases, log-writer
              and policy-host countdowns);
            * ``"batched"`` (default) — additionally run the agents
              that are ready to retire through whole instruction
              *windows* in a tight in-hart loop
              (:meth:`repro.hart.core.Hart.run_n`) whenever the
              interaction analysis proves no cross-component event can
              occur inside the window.  The agents are the application
              harts and the Ibex core; one planner serves every hart
              count (see :meth:`_fast_forward`).

            The observable timeline is cycle-exact in every mode: all
            ``SimulationReport`` fields and every per-cycle statistic
            match the busy-loop simulation.
        start_delays: optional per-hart start offsets in cycles
            (staggered boot): hart ``i`` retires its first instruction
            after ``start_delays[i]`` cycles.  Modelled as initial cycle
            debt, so it is engine-invariant by construction.
    """

    def __init__(self, soc: TitanCfiSoc, run_rot: bool = True,
                 mode: Optional[str] = None,
                 start_delays: Optional[Sequence[int]] = None):
        if mode is None:
            mode = MODE_BATCHED
        if mode not in _MODES:
            raise ValueError(f"unknown execution mode {mode!r} (have: {_MODES})")
        self.soc = soc
        # A mounted policy host replaces the firmware as the mailbox
        # agent: the RoT core stays frozen and the host is scheduled as
        # a clocked component in its place (every engine).
        self._phost = getattr(soc, "policy_host", None)
        if self._phost is not None:
            run_rot = False
        self.run_rot = run_rot
        self.mode = mode
        self.event_driven = mode != MODE_BUSY
        self.batched = mode == MODE_BATCHED
        self.now = 0
        self.violation: Optional[CfiViolation] = None
        # Application side, plural; index = topology hart id.
        self._apps = list(soc.harts)
        self._commits = list(soc.commits)
        self._stages = list(soc.cfi_stages)
        self._live_stages = [s for s in self._stages if s is not None]
        self._n = len(self._apps)
        # (hart id, hart, commit stage) per application hart, hoisted
        # once: every per-cycle loop below iterates these lanes.
        self._lanes = tuple(zip(range(self._n), self._apps, self._commits))
        self._debts = [0] * self._n
        if start_delays is not None:
            delays = list(start_delays)
            if len(delays) != self._n:
                raise ConfigError(
                    f"{len(delays)} start delays for {self._n} harts"
                )
            for i, delay in enumerate(delays):
                # bool subclasses int, but True is no cycle count.
                if (isinstance(delay, bool) or not isinstance(delay, int)
                        or delay < 0):
                    raise ConfigError(f"invalid start delay {delay!r}")
                self._debts[i] = delay
        self._ibex = soc.rot.ibex
        self._ibex_debt = 0
        # Store-safe windows for the batched loops: a hart running alone
        # may write DRAM freely (mailboxes are cross-component), Ibex
        # anything on its private TL-UL fabric below the TL2AXI bridge
        # (mailbox writes through the bridge are the firmware's
        # handshake).  Concurrent windows confine each application hart
        # to its own disjoint DRAM segment instead (at N=1 the segment
        # is the whole DRAM).
        addresses = soc.addresses
        self._host_window = (
            addresses.dram_base, addresses.dram_base + soc.dram.size
        )
        self._ibex_window = (0, addresses.ot_bridge_base)
        self._seg_windows = [
            (p.dram_base, p.dram_base + p.dram_size)
            for p in soc.topology.placements(addresses)
        ]

    @property
    def policy_backend(self) -> str:
        """Which agent serves the CFI mailbox (the policy-backend axis):
        ``"host"`` when a policy host is mounted, else ``"firmware"``."""
        if self._phost is not None:
            return POLICY_BACKEND_HOST
        return POLICY_BACKEND_FIRMWARE

    def tick(self) -> None:
        """Advance the whole platform by one cycle.

        Component order within the cycle (identical in every engine,
        and the source of the doorbell arbiter's determinism): the
        application harts in hart-id order, the RoT core / policy host,
        then every CFI stage in hart-id order.
        """
        self.now += 1
        debts = self._debts

        # Host side: commit stage(s) (includes CFI stall protocol).
        for i, hart, commit in self._lanes:
            if debts[i] > 0:
                debts[i] -= 1
            elif not hart.halted:
                result = commit.try_advance()
                if result is not None and result.cycles > 1:
                    debts[i] = result.cycles - 1

        # RoT side: Ibex services mailbox interrupts / polls.
        if self.run_rot:
            if self._ibex_debt > 0:
                self._ibex_debt -= 1
            elif not self._ibex.halted:
                result = self._ibex.step()
                if result.cycles > 1:
                    self._ibex_debt = result.cycles - 1

        # Policy host (when mounted): serves the mailbox in the RoT's
        # slot, so its completion write lands before the same cycle's
        # log-writer tick — exactly where the firmware's store lands.
        if self._phost is not None:
            self._phost.tick()

        # CFI log writer FSM(s) (may raise CfiViolation on a bad verdict).
        for stage in self._live_stages:
            stage.tick()

    # -- fast paths (event-driven and batched) -------------------------------------

    def _fast_forward(self, max_cycles: int) -> bool:
        """Take one clock jump or one batched window; ``False`` when the
        next cycle has to be ticked.

        One scan classifies the agents — the application harts, then
        the Ibex core — as *ready* (able to retire on the next cycle)
        or *inert*: halted, frozen, debt-bound (the debt bounds the
        step), asleep with no interrupt pending (whoever raises it is
        bounded elsewhere), or stalled until a log-writer transition
        releases the CFI queue.  An agent in any other state (waking
        up, or stalled on a queue that frees next cycle) can act at
        once and refuses the step, and so does a log writer or policy
        host about to transition; their countdowns bound it otherwise.

        With no agent ready the clock jumps to the nearest bound.  In
        the batched engine the ready agents instead run one window
        (:meth:`_window`), bounded by the inert ones, which are then
        replayed in bulk by :meth:`_advance` — the same replay a jump
        uses.  Every step re-validates its own preconditions, so any
        sequence of steps stays cycle-exact.
        """
        bound = _UNBOUNDED
        debts = self._debts
        ready = []
        for lane in self._lanes:
            i, hart, commit = lane
            if hart.halted:
                continue
            debt = debts[i]
            if debt > 0:
                if debt < bound:
                    bound = debt
            elif hart.sleeping:
                if hart.interrupt_pending:
                    return False
            elif not commit.stalled:
                ready.append(lane)
            elif not commit.stall_skippable():
                return False
        ibex_ready = False
        if self.run_rot:
            ibex = self._ibex
            if not ibex.halted:
                debt = self._ibex_debt
                if debt > 0:
                    if debt < bound:
                        bound = debt
                elif not ibex.sleeping:
                    ibex_ready = True
                elif ibex.interrupt_pending:
                    return False
        jump = not (ready or ibex_ready)
        if not (jump or self.batched):
            return False
        phost = self._phost
        if phost is not None:
            # The policy host is exactly as window-friendly as the log
            # writer: parked (a batched window pushes no commit logs,
            # so no doorbell can start a check) or countdown-bounded.
            host_bound = phost.skippable_cycles()
            if host_bound <= 0:
                return False
            if host_bound < bound:
                bound = host_bound
        for stage in self._live_stages:
            # A window pushes no commit logs, so a parked writer stays
            # parked and an in-flight countdown just melts.
            writer_bound = stage.skippable_cycles()
            if writer_bound <= 0:
                return False
            if writer_bound < bound:
                bound = writer_bound
        if jump and bound >= _UNBOUNDED:
            return False
        # Stay one cycle short of the budget so the exhaustion path
        # fires on the same cycle as the busy loop's.
        budget = max_cycles - self.now - 1
        if bound < budget:
            budget = bound
        if budget <= 0:
            return False
        if jump:
            self._advance(budget)
            # The jump lands on the nearest event: only a window can
            # follow it without a tick.
            return self.batched
        return self._window(budget, ready, ibex_ready)

    def _window(self, budget: int, ready: List[tuple],
                ibex_ready: bool) -> bool:
        """Run the ready agents through one window of ``budget`` cycles.

        One ready agent runs alone: an application hart may load from
        anywhere and store anywhere in DRAM, stopping before CFI-relevant
        instructions; Ibex may end its window by *executing* an
        out-of-window store (mailbox verdict or completion, doorbell
        clear), whose retire cycle the log writers then tick through
        for real — they observe it exactly as the busy loop's same-cycle
        writer ticks would (and may raise the resulting CfiViolation,
        caught by :meth:`run`).

        Several ready agents run *confined*: each one's loads and
        stores stay in its private range (Ibex: the TL-UL fabric below
        the bridge; hart ``i``: its own DRAM segment), so the streams
        cannot observe each other.  Ibex runs first, interrupts
        disabled (``mret`` and ``mstatus``/``mie`` writes end a
        confined window, so it cannot become interrupt-sensitive), and
        may run ahead of the globally-accounted clock; the harts, none
        with a wired interrupt line, then run only up to Ibex's
        accounted span, so the platform they see never lags them.  The
        clock advances to the shortest runner's span and every
        runner's run-ahead melts as cycle debt.
        """
        confined = len(ready) + ibex_ready > 1
        ibex = self._ibex
        if confined:
            if ibex_ready and ibex.csrs.mie_enabled:
                return False
            for lane in ready:
                if lane[1]._irq_wired:
                    return False
        span = budget
        retired_any = landed = ibex_spent = 0
        if ibex_ready:
            retired_any, ibex_spent, landed = ibex.run_n(
                budget, *self._ibex_window,
                confined=confined, terminate_on_store=not confined,
            )
            if not retired_any:
                return False
            # A boundary stop pins the span to the cycles executed (the
            # next instruction runs on the per-cycle path); a budget
            # stop accounts the whole budget, the overshoot melting as
            # debt.  A landed store ends the span on its retire cycle.
            if landed:
                span = ibex_spent - landed + 1
            elif ibex_spent < budget:
                span = ibex_spent
        advanced = span
        runs = []
        for i, hart, commit in ready:
            retired, spent, _term = hart.run_n(
                span, *(self._seg_windows[i] if confined
                        else self._host_window),
                stop_before_cfi=True, confined=confined,
            )
            retired_any += retired
            if spent < advanced:
                advanced = spent
            runs.append((i, commit, retired, spent))
        if not retired_any:
            return False
        # The runners enter with no debt and leave neither asleep nor
        # stalled, so the replay only moves the inert agents; their
        # run-ahead is recorded after it.  A zero span (a hart stopped
        # on an immediate boundary) leaves the clock where it is, and
        # the next scan re-plans with that hart on the per-cycle path.
        if advanced:
            self._advance(advanced, tick_writers=landed > 0)
        if ibex_ready:
            self._ibex_debt = ibex_spent - advanced
        debts = self._debts
        for i, commit, retired, spent in runs:
            debts[i] = spent - advanced
            if retired:
                commit.note_batch_retired(retired)
        return True

    def _advance(self, cycles: int, tick_writers: bool = False) -> None:
        """Replay ``cycles`` cycles of every inert agent in one step.

        Replicates exactly what ``cycles`` calls to :meth:`tick` would
        have done — debts melt, sleeping harts accrue sleep cycles,
        stalled commits accrue stall cycles, the policy host's and log
        writers' counters advance — without per-cycle dispatch.  The
        caller (:meth:`_fast_forward`) has proven every agent it does
        not run inert for the whole span.  With ``tick_writers`` the
        writers skip all but the last cycle and tick it for real, in
        hart order.
        """
        self.now += cycles
        debts = self._debts
        for i, hart, commit in self._lanes:
            debt = debts[i]
            if debt > 0:
                debts[i] = debt - cycles if debt > cycles else 0
            elif hart.halted:
                continue
            elif hart.sleeping:
                hart.sleep_for(cycles)
            elif commit.stalled:
                commit.skip_stall(cycles)
        if self.run_rot:
            ibex = self._ibex
            debt = self._ibex_debt
            if debt > 0:
                self._ibex_debt = debt - cycles if debt > cycles else 0
            elif ibex.sleeping and not ibex.halted:
                ibex.sleep_for(cycles)
        if self._phost is not None:
            self._phost.skip(cycles)
        stages = self._live_stages
        if tick_writers:
            for stage in stages:
                stage.skip(cycles - 1)
            for stage in stages:
                stage.tick()
        else:
            for stage in stages:
                stage.skip(cycles)

    def run(self, max_cycles: int = 10_000_000) -> SimulationReport:
        """Run until every application hart halts and the CFI pipeline
        drains.

        A CFI violation stops the run immediately and is reported, not
        re-raised — detection is the expected outcome of attack runs.
        """
        event_driven = self.event_driven
        try:
            while self.now < max_cycles:
                self.tick()
                if self._all_halted() and self._quiescent():
                    break
                if event_driven:
                    # Apply clock jumps and batched windows to a fixed
                    # point: a window that ends in cycle debt is
                    # followed by a jump (and possibly another window)
                    # without paying for a full tick in between.  The
                    # next tick then lands on a provably interesting
                    # cycle.
                    while self._fast_forward(max_cycles):
                        pass
            else:
                raise SimulationError(
                    f"co-simulation exceeded {max_cycles} cycles"
                )
        except CfiViolation as violation:
            self.violation = violation
        return self.report()

    def _all_halted(self) -> bool:
        for hart in self._apps:
            if not hart.halted:
                return False
        return True

    def _quiescent(self) -> bool:
        for stage, commit in zip(self._stages, self._commits):
            if stage is not None and not stage.quiescent:
                return False
            if commit.stalled:
                return False
        return True

    def report(self) -> SimulationReport:
        """Snapshot the run's statistics.

        One pass over the application harts builds the per-hart rows and
        their aggregate.  A single-hart run keeps the historic report
        shape: its CFI statistics are the stage's own summary and there
        is no per-hart breakdown.
        """
        per_hart: List[Dict[str, object]] = []
        aggregate: Dict[str, object] = {}
        first_violation: Optional[CfiViolation] = None
        first_latency: Optional[int] = None
        latency_samples = 0
        latency_sum = 0.0
        arbiter = getattr(self.soc, "doorbell_arbiter", None)
        for i in range(self._n):
            stage = self._stages[i]
            stats = stage.stats_summary() if stage is not None else {}
            hart_violation = stage.violation if stage is not None else None
            entry: Dict[str, object] = {
                "hart": i,
                "instructions": self._apps[i].instret,
                "stall_cycles": self._commits[i].stall_cycles,
                "detected": hart_violation is not None,
                "violation_kind": (
                    hart_violation.kind if hart_violation is not None else None
                ),
                "detection_latency": (
                    stats.get("first_violation_latency")
                    if hart_violation is not None else None
                ),
                "quarantined": bool(
                    arbiter is not None and arbiter.quarantined(i)
                ),
                "cfi": stats,
            }
            per_hart.append(entry)
            if hart_violation is not None and first_violation is None:
                first_violation = hart_violation
                first_latency = entry["detection_latency"]
            for key in ("examined", "selected", "full_stalls",
                        "conflict_stalls", "dropped", "logs_sent",
                        "checks_completed", "violations"):
                if key in stats:
                    aggregate[key] = aggregate.get(key, 0) + stats[key]
            checks = stats.get("checks_completed", 0)
            if checks:
                latency_samples += checks
                latency_sum += stats.get("mean_check_latency", 0.0) * checks
            if "queue_high_water" in stats:
                aggregate["queue_high_water"] = max(
                    aggregate.get("queue_high_water", 0),
                    stats["queue_high_water"],
                )
        violation = self.violation or first_violation
        if self._n == 1:
            # Re-deriving the mean latency from the aggregate need not
            # give the same float, so one hart reports its stage as is.
            cfi = per_hart[0]["cfi"]
            first_latency = cfi.get("first_violation_latency")
            per_hart = None
        else:
            aggregate["mean_check_latency"] = (
                latency_sum / latency_samples if latency_samples else 0.0
            )
            aggregate["first_violation_latency"] = first_latency
            cfi = aggregate
        return SimulationReport(
            cycles=self.now,
            host_instructions=sum(h.instret for h in self._apps),
            host_stall_cycles=sum(c.stall_cycles for c in self._commits),
            violation=violation,
            cfi=cfi,
            ibex_instructions=self._ibex.instret,
            detection_latency=first_latency if violation is not None else None,
            faults=(
                self.soc.faults.stats_summary()
                if getattr(self.soc, "faults", None) is not None
                else None
            ),
            per_hart=per_hart,
        )
