"""Scenario execution: one process per shard, one verdict per scenario.

``run_scenario`` executes a single :class:`~repro.campaign.spec.Scenario`
on its backend and returns a plain-dict result (JSON-ready, picklable).
The reference backend replays a bare hart's CFI stream through a Python
policy.  The cosim backend runs every cell, one hart or many, through
one code path: N application harts of a ``Topology(n_harts)`` share one
RoT monitor (firmware or policy host), each hart gets its own verdict
row, and fault cells are graded against a memoised fault-free sibling
run.

``run_campaign`` fans a scenario list out over a ``multiprocessing``
worker pool — scenarios are self-describing data, so each worker
rebuilds programs and policies from the registries by name — with a
serial in-process fallback (``jobs=1``) for debugging and determinism
checks.

Determinism: every scenario derives its seed from the campaign seed and
its own identity (:func:`~repro.campaign.spec.derive_seed`), and results
carry no wall-clock fields, so a parallel run and a serial run of the
same matrix aggregate to identical artifacts.

Shard-level caching: victim programs are pure functions of
``(victim, seed)`` and firmware images of their variant, so each worker
process memoises them (:class:`ShardCache`) — per-scenario setup stays
off the hot path when a shard executes many scenarios.  The cache never
changes results: entries are keyed on every input that feeds the build,
and :func:`configure_shard_cache` can disable it to prove it
(cold = warm = disabled, asserted by ``tests/campaign/test_cache.py``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue as queue_mod
import random
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.programs import GADGET_MARKER
from repro.campaign.spec import (
    BACKEND_COSIM,
    BACKEND_REFERENCE,
    POLICY_BACKEND_HOST,
    POLICY_COARSE,
    POLICY_COMPOSITE,
    POLICY_CRYPTO_RETURN,
    POLICY_FORWARD_EDGE,
    POLICY_NONE,
    POLICY_SHADOW_STACK,
    VICTIMS,
    Scenario,
    derive_seed,
    expected_detection,
)
from repro.core.commit_log import CommitLog
from repro.core.config import TitanCfiConfig
from repro.core.filter import CfiFilter
from repro.cva6.scoreboard import ScoreboardEntry
from repro.errors import (
    ConfigError,
    ScenarioTimeout,
    SimulationError,
    WorkerCrash,
)
from repro.faults import (
    attach_faults,
    build_plan,
    evaluate_contract,
    evaluate_hart_contract,
    predict_adversarial,
    predict_verdict,
)
from repro.faults.contract import ROLE_ATTACKER, ROLE_BENIGN
from repro.firmware.policies import (
    COMPOSITE_MEMBERS,
    CheckResult,
    CoarseGrainedPolicy,
    CompositePolicy,
    CryptoReturnPolicy,
    ForwardEdgePolicy,
    ShadowStackPolicy,
)
from repro.hart.core import Hart
from repro.hart.ports import MapPort
from repro.hart.timing import Cva6Timing
from repro.isa.asm import Program
from repro.mem.map import MemoryMap
from repro.mem.memory import Ram
from repro.policyhost.host import mount_policy_host
from repro.system.addresses import AddressMap
from repro.system.sim import SystemSimulator
from repro.system.soc import build_soc
from repro.system.topology import Topology

#: Result-dict schema version (bumped on breaking field changes).
RESULT_SCHEMA = "repro.campaign/v1"


# --------------------------------------------------------------------------
# Shard-level build cache
# --------------------------------------------------------------------------

class ShardCache:
    """Per-process memo of assembled victim programs and firmware images.

    Both artifacts are deterministic functions of their key — a victim
    builder consumes only the address map defaults and its seeded RNG,
    a firmware image only its variant — so memoising them cannot change
    any scenario result; it only keeps assembly and layout work off the
    per-scenario hot path.  Each ``multiprocessing`` worker owns an
    independent instance (module state is per-process), which is what
    makes this a *shard*-level cache.
    """

    def __init__(self):
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._programs: Dict[Tuple[str, int], Program] = {}
        self._firmware: Dict[str, bytes] = {}
        self._memo: Dict[Tuple, object] = {}

    def clear(self) -> None:
        """Drop every cached artifact (counters included)."""
        self._programs.clear()
        self._firmware.clear()
        self._memo.clear()
        self.hits = 0
        self.misses = 0

    def memo(self, key: Tuple, compute: Callable[[], object]):
        """Generic deterministic memo (fault baselines, oracle streams).

        ``key`` must cover every input that feeds ``compute`` — same
        contract as the program/firmware memos, same cold = warm = off
        guarantee.
        """
        if not self.enabled:
            return compute()
        if key in self._memo:
            self.hits += 1
            return self._memo[key]
        self.misses += 1
        value = compute()
        self._memo[key] = value
        return value

    def program(self, victim: str, seed: int,
                addresses: Optional[AddressMap] = None) -> Program:
        """The victim's assembled image for ``seed`` (memoised).

        ``addresses`` relocates the build (multi-hart cells lay each
        hart's program in its own DRAM segment); the memo key carries
        the placement base, so differently-placed builds never alias.
        """
        amap = addresses or AddressMap()
        if not self.enabled:
            return VICTIMS[victim].builder(amap, random.Random(seed))
        key = (victim, seed, amap.dram_base)
        program = self._programs.get(key)
        if program is None:
            self.misses += 1
            program = VICTIMS[victim].builder(amap, random.Random(seed))
            self._programs[key] = program
        else:
            self.hits += 1
        return program

    def firmware(self, variant: str) -> bytes:
        """The shadow-stack firmware image for ``variant`` (memoised)."""
        if not self.enabled:
            return _build_firmware(variant)
        image = self._firmware.get(variant)
        if image is None:
            self.misses += 1
            image = _build_firmware(variant)
            self._firmware[variant] = image
        else:
            self.hits += 1
        return image


def _build_firmware(variant: str) -> bytes:
    from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware

    return shadow_stack_firmware(variant, FirmwareLayout(AddressMap())).data


#: The process-wide shard cache (one per worker process).
SHARD_CACHE = ShardCache()


def configure_shard_cache(enabled: bool) -> None:
    """Enable/disable the shard cache (clears it either way)."""
    SHARD_CACHE.enabled = enabled
    SHARD_CACHE.clear()


def _resolve_symbols(program: Program, names: Sequence[str]) -> set:
    """Resolve label-set names against the victim's symbol table.

    Unknown names raise: a typo'd registry entry must fail loudly, not
    silently shrink a policy's target set into false positives.
    """
    missing = [name for name in names if name not in program.symbols]
    if missing:
        raise ConfigError(f"label set names unknown symbols: {missing}")
    return {program.symbols[name] for name in names}


def build_policy(
    policy: str,
    program: Program,
    entry_points: Sequence[str],
    function_entries: Sequence[str],
):
    """Instantiate a policy by registry name, with its label sets
    resolved against ``program``'s symbol table.

    ``entry_points`` feeds the fine-grained forward-edge set,
    ``function_entries`` the coarse function-entry set.  Shared by the
    campaign runner and :mod:`repro.synth.verify` (which replays
    minimized reproducers outside any scenario).
    """
    if policy == POLICY_NONE:
        return None
    if policy == POLICY_SHADOW_STACK:
        return ShadowStackPolicy()
    if policy == POLICY_FORWARD_EDGE:
        return ForwardEdgePolicy(_resolve_symbols(program, entry_points))
    if policy == POLICY_COARSE:
        return CoarseGrainedPolicy(
            valid_entries=_resolve_symbols(program, function_entries)
        )
    if policy == POLICY_COMPOSITE:
        members = []
        for member in COMPOSITE_MEMBERS:
            if member is ForwardEdgePolicy:
                members.append(member(_resolve_symbols(program, entry_points)))
            elif member is CoarseGrainedPolicy:
                members.append(member(
                    valid_entries=_resolve_symbols(program, function_entries)
                ))
            else:
                members.append(member())
        return CompositePolicy(members)
    if policy == POLICY_CRYPTO_RETURN:
        return CryptoReturnPolicy()
    raise ConfigError(f"unknown policy {policy!r}")


def _victim_bundle(scenario: Scenario, seed: int):
    """The :class:`repro.synth.SynthBundle` behind a synthetic scenario
    (``None`` for hand-written victims) — the per-program source of
    label sets and of the oracle's expected verdict."""
    spec = VICTIMS[scenario.victim]
    if not spec.synthetic:
        return None
    from repro.synth import bundle_for_seed

    return bundle_for_seed(spec.synth_family, seed, AddressMap().dram_base,
                           features=spec.synth_features)


#: Memoised per-victim coverage shapes: one scenario's program is run
#: under every policy, but its shape only needs extracting once.
_SHAPES: Dict[Tuple[str, int], object] = {}
_SHAPE_CACHE_LIMIT = 1024


def _scenario_shape(victim: str, seed: int, bundle):
    """The (memoised) coverage shape of a synthetic scenario's program."""
    key = (victim, seed)
    cached = _SHAPES.get(key)
    if cached is None:
        from repro.coverage.shape import shape_vector

        if len(_SHAPES) >= _SHAPE_CACHE_LIMIT:
            _SHAPES.clear()
        cached = _SHAPES[key] = shape_vector(bundle.model,
                                             program=bundle.program)
    return cached


def _build_policy(scenario: Scenario, program: Program, bundle=None,
                  victim: Optional[str] = None):
    """Policy for one of a scenario's programs (``victim``, default the
    cell's own): label sets come from the victim registry, or from the
    synth bundle for generated victims."""
    labels = bundle if bundle is not None else VICTIMS[victim or scenario.victim]
    return build_policy(scenario.policy, program, labels.entry_points,
                        labels.function_entries)


def capture_commit_logs(program: Program, addresses: AddressMap,
                        max_steps: int = 400_000):
    """Run ``program`` on a bare CVA6 ISS and capture the CFI stream.

    Returns ``(logs, hart)``: the commit logs the CFI filter would have
    selected (same :class:`~repro.core.filter.CfiFilter` code path as
    the hardware model) and the halted hart for architectural state.

    Execution is batched: the hart free-runs through
    :meth:`~repro.hart.core.Hart.run_n` windows that stop exactly at
    CFI-relevant instructions, which are then stepped individually and
    offered to the filter — only the selected stream ever pays the
    per-step bookkeeping.  Architectural state, ``cycle``/``instret``
    and the captured log stream are identical to a pure step loop
    (asserted by ``tests/campaign/test_cache.py``).
    """
    bus = MemoryMap("host")
    bus.add(addresses.dram_base, Ram(addresses.dram_size), name="dram")
    bus.write_bytes(program.base, program.data)
    hart = Hart(MapPort(bus), Cva6Timing(), xlen=64, reset_pc=program.base)
    cfi_filter = CfiFilter()
    logs: List[CommitLog] = []

    window_lo = addresses.dram_base
    window_hi = addresses.dram_base + addresses.dram_size
    remaining = max_steps
    while remaining > 0 and not hart.halted:
        retired, _spent, _term = hart.run_n(
            1 << 60, window_lo, window_hi,
            stop_before_cfi=True, max_insns=remaining,
        )
        remaining -= retired
        if hart.halted or remaining <= 0:
            break
        result = hart.step()
        remaining -= 1
        entry = ScoreboardEntry.from_step(result)
        log = cfi_filter.examine(entry)
        if log is not None:
            logs.append(log)
        if hart.halted:
            break
    if not hart.halted:
        raise SimulationError(
            f"{hart.name}: capture exceeded {max_steps} steps"
        )
    return logs, hart


def _run_reference(scenario: Scenario, seed: int,
                   bundle=None) -> Dict[str, object]:
    """Trace-check backend: bare-hart execution + Python policy."""
    addresses = AddressMap()
    program = SHARD_CACHE.program(scenario.victim, seed)
    # max_cycles doubles as the step bound here (steps <= cycles), so
    # the knob — and the scenario-name suffix it carries — means the
    # same thing on both backends.
    logs, hart = capture_commit_logs(program, addresses,
                                     max_steps=scenario.max_cycles)

    policy = _build_policy(scenario, program, bundle=bundle)
    detected = False
    violation_kind: Optional[str] = None
    events_checked = 0
    if policy is not None:
        for log in logs:
            events_checked += 1
            if policy.check(log) is CheckResult.VIOLATION:
                detected = True
                violation_kind = log.kind.value
                break

    return {
        "cycles": hart.cycle,
        "host_instructions": hart.instret,
        "cf_events": len(logs),
        "events_checked": events_checked,
        "detected": detected,
        "violation_kind": violation_kind,
        "detection_latency": None,
        "stall_cycles": 0,
        "overhead_percent": 0.0,
        "gadget_executed": hart.regs.read(10) == GADGET_MARKER,
    }


def _simulate_cosim(scenario: Scenario, seed: int, sim_mode: Optional[str],
                    bundle, plan):
    """Build and run one cosim cell's SoC.

    Hart ``i`` runs :meth:`Scenario.victim_for_hart` built under seed
    ``seed + i`` in its own DRAM segment of ``Topology(n_harts)`` (at
    N = 1 that is the whole DRAM, i.e. the historic single-hart SoC).
    The mailbox agent is the shard-cached RV32 firmware image or the
    scenario's policy mounted as a policy host, with one shadow context
    per hart.  ``plan`` (already hart-scoped, or ``None``) is attached
    before the run.

    Returns ``(report, rows, programs)``: one verdict row and one
    program per hart, in hart order.
    """
    n_harts = scenario.n_harts
    topo = Topology(n_harts=n_harts)
    amap = AddressMap()
    config = TitanCfiConfig(
        queue_depth=scenario.queue_depth,
        blocking=scenario.blocking,
        lossy=scenario.lossy,
        # A lone hart stops at its detection; many harts latch it, so
        # one hart's violation never aborts its peers.
        raise_on_violation=n_harts == 1,
    )
    soc = build_soc(cfi_config=config, fabric=scenario.fabric, addresses=amap,
                    topology=topo)
    victims = [scenario.victim_for_hart(hart_id) for hart_id in range(n_harts)]
    programs: List[Program] = []
    for hart_id, victim_name in enumerate(victims):
        # Per-hart seed: peers running the same seeded victim still get
        # distinct program shapes, deterministically.
        program = SHARD_CACHE.program(
            victim_name, seed + hart_id,
            addresses=topo.address_map(hart_id, amap))
        soc.load_host_program(program, hart_id=hart_id)
        programs.append(program)

    if scenario.resolved_policy_backend == POLICY_BACKEND_HOST:
        policy = _build_policy(scenario, programs[0], bundle, victims[0])
        for hart_id in range(1, n_harts):
            policy.install_context(hart_id, _build_policy(
                scenario, programs[hart_id], bundle, victims[hart_id]))
        mount_policy_host(soc, policy, variant=scenario.firmware,
                          defense=scenario.defense)
    else:
        soc.load_firmware(SHARD_CACHE.firmware(scenario.firmware))
    attach_faults(soc, plan)

    delays = None
    if scenario.stagger:
        delays = [hart_id * scenario.stagger for hart_id in range(n_harts)]
    simulator = SystemSimulator(soc, mode=sim_mode, start_delays=delays)
    report = simulator.run(max_cycles=scenario.max_cycles)

    # ``report.per_hart`` is ``None`` at N = 1: the headline fields
    # are then the lone hart's row.
    entries = report.per_hart or [{
        "detected": report.detected,
        "violation_kind": report.violation.kind if report.violation else None,
        "detection_latency": report.detection_latency,
        "instructions": report.host_instructions,
        "stall_cycles": report.host_stall_cycles,
        "cfi": report.cfi,
    }]
    rows: List[Dict[str, object]] = []
    for hart_id, entry in enumerate(entries):
        victim_name = victims[hart_id]
        expected = expected_detection(victim_name, scenario.policy)
        detected = bool(entry["detected"])
        rows.append({
            "hart": hart_id,
            "victim": victim_name,
            "attack": VICTIMS[victim_name].attack,
            "detected": detected,
            "violation_kind": entry["violation_kind"],
            "detection_latency": entry["detection_latency"],
            "instructions": entry["instructions"],
            "stall_cycles": entry["stall_cycles"],
            "cf_events": entry["cfi"].get("selected", 0),
            "events_checked": entry["cfi"].get("checks_completed", 0),
            "dropped": entry["cfi"].get("dropped", 0),
            "quarantined": bool(entry.get("quarantined", False)),
            "expected_detected": expected,
            "expectation_met": detected == expected,
            "gadget_executed": (
                soc.harts[hart_id].regs.read(10) == GADGET_MARKER
            ),
        })
    return report, rows, programs


def _grade_row(row: Dict[str, object], base_row: Dict[str, object],
               expected: bool, role: str, degradation: str,
               contract_ok: bool) -> None:
    """Record one hart's fault grading on its verdict row, in place."""
    row["expected_detected"] = expected
    row["expectation_met"] = row["detected"] == expected
    row.update({
        "role": role,
        "degradation": degradation,
        "contract_ok": contract_ok,
        "baseline_detected": base_row["detected"],
        "baseline_detection_latency": base_row["detection_latency"],
    })


def _run_cosim(scenario: Scenario, seed: int,
               sim_mode: Optional[str] = None,
               bundle=None) -> Dict[str, object]:
    """Full-platform backend: N application harts, one RoT monitor.

    Runs the cell through :func:`_simulate_cosim`; one hart is the
    ``n_harts == 1`` case of the same code path.  The headline columns
    come from the attack hart's row; multi-hart cells also carry every
    hart's row (``per_hart``) and the quarantined hart ids.

    Fault cells are graded against a memoised fault-free sibling run
    (same topology and per-hart seeds, plan detached):

    - an adversarial plan (multi-hart only) grades every hart against
      the per-hart contract: the compromised ``fault_hart`` must end
      the run quarantined, and every benign peer's verdict, violation
      kind and detection latency must be bit-identical to the baseline;
    - any other plan grades the faulted hart (``fault_hart``, or hart 0)
      by oracle replay of its own fault-free event stream plus the
      degradation contract against its baseline row.  Peers keep their
      table expectations: a shared-monitor fault may shift their
      latencies, never their verdicts.
    """
    plan = None
    if scenario.fault_plan is not None:
        plan = build_plan(scenario.fault_plan, seed)
        if scenario.fault_hart is not None:
            plan = plan.scoped(scenario.fault_hart)
    report, rows, programs = _simulate_cosim(scenario, seed, sim_mode,
                                             bundle, plan)

    if plan is not None:
        base = dataclasses.replace(scenario, fault_plan=None, fault_hart=None)
        base_rows = SHARD_CACHE.memo(
            ("fault-baseline", base.name, seed, sim_mode),
            lambda: _simulate_cosim(base, seed, sim_mode, bundle, None)[1],
        )
        fault_hart = scenario.fault_hart or 0
        if plan.adversarial:
            graded = rows
            for hart_id, row in enumerate(rows):
                role = ROLE_ATTACKER if hart_id == fault_hart else ROLE_BENIGN
                base_row = base_rows[hart_id]
                label, contract_ok = evaluate_hart_contract(
                    plan, role, base_row, row, bool(row["quarantined"])
                )
                expected = row["expected_detected"]
                if role == ROLE_ATTACKER:
                    # The fault oracle owns the compromised hart's
                    # verdict expectation (its stream is adversarial,
                    # not its victim's).
                    expected = predict_adversarial(
                        plan, bool(base_row["detected"])
                    )
                _grade_row(row, base_row, expected, role, label, contract_ok)
        else:
            victim_name = scenario.victim_for_hart(fault_hart)
            program = programs[fault_hart]
            hart_amap = Topology(n_harts=scenario.n_harts).address_map(
                fault_hart, AddressMap())

            def compute_logs():
                logs, _hart = capture_commit_logs(
                    program, hart_amap, max_steps=scenario.max_cycles)
                return logs

            logs = SHARD_CACHE.memo(
                ("fault-logs", victim_name, seed + fault_hart,
                 hart_amap.dram_base, scenario.max_cycles),
                compute_logs,
            )
            # The oracle replays the delivered stream through a *fresh*
            # policy instance — the mounted one has live run state.
            oracle_policy = _build_policy(scenario, program, bundle,
                                          victim_name)
            prediction = predict_verdict(logs, plan, oracle_policy)
            base_row = base_rows[fault_hart]
            row = rows[fault_hart]
            label, contract_ok = evaluate_contract(
                getattr(oracle_policy, "monitor_state", "stateful"),
                plan,
                bool(base_row["detected"]),
                bool(row["detected"]),
                base_row["detection_latency"],
                row["detection_latency"],
            )
            graded = [row]
            _grade_row(row, base_row, prediction.detected, "faulted", label,
                       contract_ok)

    attack_row = rows[scenario.attack_hart]
    busy = report.cycles - report.host_stall_cycles
    result: Dict[str, object] = {
        "cycles": report.cycles,
        "host_instructions": report.host_instructions,
        "cf_events": report.cfi.get("selected", 0),
        "events_checked": report.cfi.get("checks_completed", 0),
        "detected": attack_row["detected"],
        "violation_kind": attack_row["violation_kind"],
        "detection_latency": attack_row["detection_latency"],
        "stall_cycles": report.host_stall_cycles,
        "overhead_percent": (
            round(100.0 * report.host_stall_cycles / busy, 3) if busy else 0.0
        ),
        "gadget_executed": attack_row["gadget_executed"],
    }
    if scenario.multihart:
        result["per_hart"] = rows
        result["quarantined_harts"] = [
            row["hart"] for row in rows if row["quarantined"]
        ]
    if plan is not None:
        faulted_row = rows[fault_hart]
        base_row = base_rows[scenario.attack_hart]
        result.update({
            "fault_stats": report.faults,
            # The headline expectation follows the attack hart's row
            # (the oracle's, when the attack hart is the faulted one;
            # its victim's table verdict otherwise).
            "predicted_detected": attack_row["expected_detected"],
            "degradation": faulted_row["degradation"],
            "contract_ok": all(row["contract_ok"] for row in graded),
            "baseline_detected": base_row["detected"],
            "baseline_detection_latency": base_row["detection_latency"],
        })
    return result


def _identity_columns(scenario: Scenario, seed: int) -> Dict[str, object]:
    """The cell-identity columns every result row carries, verdict or
    not, in row order.  Knobs a cell ignores are ``None``; the
    grading columns start ``None`` and fault cells fill them in."""
    cosim = scenario.backend == BACKEND_COSIM
    multihart = scenario.multihart
    return {
        "fault_plan": scenario.fault_plan,
        "fault_hart": scenario.fault_hart,
        "lossy": scenario.lossy if cosim else None,
        "defense": scenario.defense if multihart else None,
        "degradation": None,
        "contract_ok": None,
        "baseline_detected": None,
        "baseline_detection_latency": None,
        "name": scenario.name,
        "backend": scenario.backend,
        "victim": scenario.victim,
        "attack": scenario.attack,
        "policy": scenario.policy,
        "policy_backend": scenario.resolved_policy_backend,
        "firmware": scenario.firmware if cosim else None,
        "queue_depth": scenario.queue_depth if cosim else None,
        "blocking": scenario.blocking if cosim else None,
        "fabric": scenario.fabric if cosim else None,
        "max_cycles": scenario.max_cycles,
        "seed": seed,
        # Marks results whose victim actually varies with the seed, so
        # artifact consumers know which rows a seed sweep perturbs.
        "seeded": VICTIMS[scenario.victim].seeded,
        "n_harts": scenario.n_harts,
        "attack_hart": scenario.attack_hart if multihart else None,
        "hart_victims": (
            list(scenario.resolved_hart_victims) if multihart else None
        ),
        "stagger": scenario.stagger if multihart else None,
        "per_hart": None,
    }


def run_scenario(scenario: Scenario, campaign_seed: int = 0,
                 sim_mode: Optional[str] = None) -> Dict[str, object]:
    """Execute one scenario; returns its JSON-ready result dict.

    ``sim_mode`` selects the co-simulator engine (``"busy"``,
    ``"event-driven"``, ``"batched"``; ``None`` = engine default) for
    the cosim backend — every mode is cycle-exact, so results are
    engine-independent; the knob exists so CI can assert exactly that.

    Expected verdicts: hand-written victims use the (attack × policy)
    ground-truth table; synthesized victims use the static oracle's
    per-program prediction (``expected_source`` records which).
    """
    seed = derive_seed(campaign_seed, scenario)
    bundle = _victim_bundle(scenario, seed)
    if scenario.backend == BACKEND_REFERENCE:
        outcome = _run_reference(scenario, seed, bundle=bundle)
    elif scenario.backend == BACKEND_COSIM:
        outcome = _run_cosim(scenario, seed, sim_mode=sim_mode,
                             bundle=bundle)
    else:
        raise ConfigError(f"unknown backend {scenario.backend!r}")

    if scenario.fault_plan is not None:
        # Under fault the fault-aware oracle owns the expectation: it
        # replays the delivered (post-fault) event stream statically.
        expected = bool(outcome["predicted_detected"])
        expected_source = "fault-oracle"
    elif bundle is not None:
        expected = bundle.expected[scenario.policy]
        expected_source = "oracle"
    else:
        expected = scenario.expected_detected
        expected_source = "table"
    detected = bool(outcome["detected"])
    result: Dict[str, object] = {
        "status": "ok",
        **_identity_columns(scenario, seed),
        "expected_detected": expected,
        "expected_source": expected_source,
        "expectation_met": detected == expected,
    }
    result.update(outcome)
    if bundle is not None:
        # Synthetic victims carry their coverage shape so campaign
        # artifacts feed the same map the guided fuzz loop steers by.
        vector = _scenario_shape(scenario.victim, seed, bundle)
        result["coverage_points"] = len(vector.points)
        result["coverage_digest"] = vector.digest
        result["coverage"] = {
            "digest": vector.digest,
            "points": list(vector.points),
        }
    else:
        result["coverage_points"] = None
        result["coverage_digest"] = None
        result["coverage"] = None
    if scenario.multihart:
        # A multi-hart cell meets its expectation only when *every*
        # hart's verdict matches its own victim's ground truth.
        result["expectation_met"] = all(
            row["expectation_met"] for row in outcome["per_hart"]
        )
    return result


# --------------------------------------------------------------------------
# Sharded campaign driver (hardened: timeouts, crash quarantine, retries)
# --------------------------------------------------------------------------

#: Test hooks (set via the environment, read only inside shards/retries):
#: force a worker to die / hang / fail transiently on a named scenario,
#: so the hardening paths are exercised end to end without mocking.
ENV_CRASH_SCENARIO = "REPRO_CAMPAIGN_CRASH_SCENARIO"
ENV_HANG_SCENARIO = "REPRO_CAMPAIGN_HANG_SCENARIO"
ENV_FLAKY_SCENARIO = "REPRO_CAMPAIGN_FLAKY_SCENARIO"
ENV_FLAKY_DIR = "REPRO_CAMPAIGN_FLAKY_DIR"


def _flaky_hook(scenario: Scenario) -> None:
    """Raise on the named scenario's first attempts (retry-path test).

    Marker files under :data:`ENV_FLAKY_DIR` count attempts across
    worker processes, so the scenario fails until its retry budget has
    been spent at least once.
    """
    if os.environ.get(ENV_FLAKY_SCENARIO) != scenario.name:
        return
    marker_dir = os.environ.get(ENV_FLAKY_DIR)
    if not marker_dir:
        return
    attempts = len([p for p in os.listdir(marker_dir)
                    if p.startswith("attempt-")])
    with open(os.path.join(marker_dir, f"attempt-{attempts}"), "w"):
        pass
    if attempts < 1:
        raise SimulationError(f"flaky-hook failure for {scenario.name}")


def _failure_result(scenario: Scenario, campaign_seed: int, status: str,
                    detail: str) -> Dict[str, object]:
    """Placeholder result for a scenario that produced no verdict.

    Shaped like a normal result (same identity columns, zeroed counters,
    ``None`` verdict fields) so checkpoints, aggregation and CSV export
    handle it uniformly; ``status`` records why it is not ``"ok"``.
    """
    return {
        "status": status,
        "error": detail,
        "coverage_points": None,
        "coverage_digest": None,
        "coverage": None,
        **_identity_columns(scenario, derive_seed(campaign_seed, scenario)),
        "expected_detected": None,
        "expected_source": None,
        "expectation_met": None,
        "cycles": 0,
        "host_instructions": 0,
        "cf_events": 0,
        "events_checked": 0,
        "detected": None,
        "violation_kind": None,
        "detection_latency": None,
        "stall_cycles": 0,
        "overhead_percent": 0.0,
        "gadget_executed": None,
    }


def _shard_main(wid: int, task_q, result_q, campaign_seed: int,
                sim_mode: Optional[str]) -> None:
    """Worker process loop: one task at a time, sentinel ``None`` exits.

    Single-task dispatch (no prefetch) is what makes crash attribution
    exact: a dead worker had at most one scenario in flight, and the
    parent knows which.
    """
    while True:
        item = task_q.get()
        if item is None:
            return
        idx, scenario = item
        if os.environ.get(ENV_CRASH_SCENARIO) == scenario.name:
            os._exit(3)
        if os.environ.get(ENV_HANG_SCENARIO) == scenario.name:
            time.sleep(3600)
        try:
            _flaky_hook(scenario)
            result = run_scenario(scenario, campaign_seed, sim_mode=sim_mode)
            result_q.put(("done", wid, idx, result))
        except Exception as exc:  # noqa: BLE001 - shard boundary
            result_q.put(("error", wid, idx,
                          f"{type(exc).__name__}: {exc}"))


def _run_serial(
    scenarios: Sequence[Scenario],
    campaign_seed: int,
    stream: Optional[Callable[[Dict[str, object]], None]],
    sim_mode: Optional[str],
    retries: int,
    backoff: float,
) -> List[Dict[str, object]]:
    """In-process execution with the same retry contract as the pool."""
    results: List[Dict[str, object]] = []
    for scenario in scenarios:
        attempt = 0
        while True:
            try:
                _flaky_hook(scenario)
                result = run_scenario(scenario, campaign_seed,
                                      sim_mode=sim_mode)
                break
            except Exception as exc:  # noqa: BLE001 - sweep must survive
                attempt += 1
                if attempt > retries:
                    result = _failure_result(
                        scenario, campaign_seed, "error",
                        f"{type(exc).__name__}: {exc}")
                    break
                if backoff > 0:
                    time.sleep(backoff * (2 ** (attempt - 1)))
        if stream is not None:
            stream(result)
        results.append(result)
    return results


def _run_pool(
    scenarios: Sequence[Scenario],
    jobs: int,
    campaign_seed: int,
    stream: Optional[Callable[[Dict[str, object]], None]],
    sim_mode: Optional[str],
    timeout: Optional[float],
    retries: int,
    backoff: float,
) -> List[Dict[str, object]]:
    """Hardened process pool: per-worker task queues, crash quarantine.

    Each worker owns a private task queue and is handed one scenario at
    a time; a shared result queue carries verdicts back.  The parent
    polls for three failure modes:

    - worker death → the in-flight scenario is recorded as
      ``status: "crashed"`` (:class:`~repro.errors.WorkerCrash`),
      quarantined (never re-dispatched — it killed a process once), and
      the worker is respawned;
    - wall-clock ``timeout`` per scenario → the worker is killed, the
      scenario recorded as ``status: "timeout"``
      (:class:`~repro.errors.ScenarioTimeout`), worker respawned;
    - in-shard exceptions → retried up to ``retries`` times with
      exponential ``backoff``, then recorded as ``status: "error"``.
    """
    ctx = multiprocessing.get_context()
    result_q = ctx.Queue()
    total = len(scenarios)

    def spawn(wid: int):
        task_q = ctx.Queue()
        proc = ctx.Process(
            target=_shard_main,
            args=(wid, task_q, result_q, campaign_seed, sim_mode),
            daemon=True,
        )
        proc.start()
        return {"proc": proc, "task_q": task_q}

    workers: Dict[int, Dict[str, object]] = {}
    next_wid = 0
    for _ in range(min(jobs, max(total, 1))):
        workers[next_wid] = spawn(next_wid)
        next_wid += 1

    pending = deque(enumerate(scenarios))
    delayed: List[Tuple[float, int, Scenario]] = []  # (ready_at, idx, s)
    inflight: Dict[int, Dict[str, object]] = {}  # wid -> {idx, scenario, deadline}
    attempts: Dict[int, int] = {}
    results: List[Dict[str, object]] = []

    def record(result: Dict[str, object]) -> None:
        if stream is not None:
            stream(result)
        results.append(result)

    def fail(scenario: Scenario, status: str, detail: str) -> None:
        record(_failure_result(scenario, campaign_seed, status, detail))

    def reschedule(idx: int, scenario: Scenario, detail: str) -> None:
        attempts[idx] = attempts.get(idx, 0) + 1
        if attempts[idx] > retries:
            fail(scenario, "error", detail)
        else:
            ready = time.monotonic() + backoff * (2 ** (attempts[idx] - 1))
            delayed.append((ready, idx, scenario))

    try:
        while len(results) < total:
            now = time.monotonic()
            if delayed:
                due = [entry for entry in delayed if entry[0] <= now]
                if due:
                    delayed[:] = [e for e in delayed if e[0] > now]
                    for _ready, idx, scenario in sorted(due, key=lambda e: e[1]):
                        pending.append((idx, scenario))
            for wid, worker in workers.items():
                if wid in inflight or not pending:
                    continue
                idx, scenario = pending.popleft()
                inflight[wid] = {
                    "idx": idx,
                    "scenario": scenario,
                    "deadline": (now + timeout) if timeout else None,
                }
                worker["task_q"].put((idx, scenario))

            try:
                msg = result_q.get(timeout=0.05)
            except queue_mod.Empty:
                msg = None
            if msg is not None:
                kind, wid, idx, payload = msg
                entry = inflight.get(wid)
                if entry is not None and entry["idx"] == idx:
                    del inflight[wid]
                    if kind == "done":
                        record(payload)
                    else:
                        reschedule(idx, entry["scenario"], payload)
                # else: straggler from a worker already written off
                continue

            for wid in list(workers):
                worker = workers[wid]
                proc = worker["proc"]
                entry = inflight.get(wid)
                if not proc.is_alive():
                    # Drain any result it managed to send before dying.
                    if entry is not None:
                        crash = WorkerCrash(entry["scenario"].name,
                                            exitcode=proc.exitcode)
                        fail(entry["scenario"], "crashed", str(crash))
                        del inflight[wid]
                    proc.join()
                    del workers[wid]
                    if pending or delayed or len(results) < total:
                        workers[next_wid] = spawn(next_wid)
                        next_wid += 1
                elif (entry is not None and entry["deadline"] is not None
                        and time.monotonic() > entry["deadline"]):
                    proc.kill()
                    proc.join()
                    stuck = ScenarioTimeout(entry["scenario"].name,
                                            float(timeout))
                    fail(entry["scenario"], "timeout", str(stuck))
                    del inflight[wid]
                    del workers[wid]
                    workers[next_wid] = spawn(next_wid)
                    next_wid += 1
    finally:
        for worker in workers.values():
            try:
                worker["task_q"].put(None)
            except Exception:  # noqa: BLE001 - teardown best effort
                pass
        for worker in workers.values():
            proc = worker["proc"]
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        result_q.close()
        result_q.join_thread()
    return results


def run_campaign(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    campaign_seed: int = 0,
    stream: Optional[Callable[[Dict[str, object]], None]] = None,
    sim_mode: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.0,
) -> Dict[str, object]:
    """Run a scenario list, optionally sharded over worker processes.

    Args:
        scenarios: the matrix to execute.
        jobs: worker processes; 1 runs serially in-process (the
            debugging fallback — same results, same order).
        campaign_seed: root seed for per-scenario seed derivation.
        stream: optional callback invoked with each result as it
            completes (arrival order; use it to stream JSONL artifacts).
        sim_mode: co-simulator engine override for cosim scenarios
            (results are engine-independent; see :func:`run_scenario`).
        timeout: per-scenario wall-clock bound in seconds (``jobs > 1``
            only — a serial run has no second process to do the
            killing); over-budget scenarios record ``status: "timeout"``.
        retries: re-attempts for scenarios that raise inside the shard
            before they are recorded as ``status: "error"``.
        backoff: base delay in seconds before a retry, doubled per
            attempt.

    Returns:
        the campaign payload: sorted scenario results plus run metadata
        (wall-clock timing lives only here, never in per-scenario
        results, so serial and parallel aggregates compare equal).
        A sweep never dies with a worker: crashed / hung / failing
        scenarios are recorded with a non-``"ok"`` ``status`` and the
        rest of the matrix completes.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    if backoff < 0:
        raise ConfigError("backoff must be >= 0")
    scenarios = list(scenarios)
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate scenario names in the matrix: {duplicates}")
    started = time.perf_counter()

    if jobs == 1:
        results = _run_serial(scenarios, campaign_seed, stream, sim_mode,
                              retries, backoff)
    else:
        results = _run_pool(scenarios, jobs, campaign_seed, stream,
                            sim_mode, timeout, retries, backoff)
    wall = time.perf_counter() - started

    results.sort(key=lambda r: r["name"])
    return {
        "schema": RESULT_SCHEMA,
        "campaign_seed": campaign_seed,
        "jobs": jobs,
        "scenario_count": len(results),
        "scenarios": results,
        "timing": {
            "wall_seconds": round(wall, 6),
            "scenarios_per_sec": round(len(results) / wall, 3) if wall else 0.0,
            "simulated_cycles": sum(r["cycles"] for r in results),
            "simulated_cycles_per_sec": (
                round(sum(r["cycles"] for r in results) / wall) if wall else 0
            ),
        },
    }
