"""The benchmark's four workloads.

Every input a workload can run comes from a fixed pool of ``POOL``
entries, and ``perfbench/expected/<workload>.json`` holds the simulated
outputs of every entry.  The benchmark seed picks where in the pool a
run starts (see :meth:`Workload.entry`), so the same seed gives the same
inputs, and every unit a run times is checked against committed
outputs.  A workload exposes:

* ``setup()`` — import the package and run one cold unit that fills
  the decode, assembly, shard and calibration caches;
* ``unit(index, tag)`` — one unit of timed work, returning a
  :class:`Unit` with its outputs and every correctness failure found;
* ``run(entry, label)`` — the unit of work on one pool entry;
* ``check()`` — extra correctness passes after the timed phase.

Everything runs in this process: no worker pools (``jobs=1``,
``workers=1``).  The ``repro`` package is imported lazily, inside
``setup()``, so that set-up time includes the imports.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from reference import reference_seconds

#: Steps of the host-speed probe run beside every scenario sample.
PROBE_STEPS = 1_500


def derive(*labels: object) -> int:
    """A 63-bit seed derived from ``labels``."""
    text = ":".join(str(part) for part in labels)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def clock() -> Tuple[float, float]:
    """(wall, process CPU) seconds now."""
    return time.perf_counter(), time.process_time()


def since(start: Tuple[float, float]) -> Tuple[float, float]:
    """(wall, process CPU) seconds elapsed since ``start``."""
    wall, cpu = clock()
    return wall - start[0], cpu - start[1]


class Probes:
    """Short host-speed reference runs taken between scenario samples.

    The host's speed swings by up to 2x within a second, so each unit's
    CPU times are normalised by the probes taken inside it (see
    ``run.py``).  ``spent`` is the (wall, CPU) time the probes took, for
    the unit to leave out of its own times.
    """

    def __init__(self):
        self.cpu: List[float] = []
        self.spent = [0.0, 0.0]

    def take(self) -> None:
        wall, cpu = reference_seconds(PROBE_STEPS)
        self.cpu.append(cpu)
        self.spent[0] += wall
        self.spent[1] += cpu


@dataclass
class Unit:
    """Outputs of one unit of work.

    ``wall_s`` and ``cpu_s`` time the window the throughput metrics
    divide by (for ``sweep-full`` the cold pass only); ``work_cpu_s``
    is the CPU time of the whole unit (for ``sweep-full`` cold and warm
    pass).  None of them includes probe time.  ``scenario_s`` holds one
    (wall, CPU) pair per scenario, cell or candidate, and ``probes`` the
    CPU seconds of the probe before each of them and after the last
    (empty on correctness-only units).  ``model`` holds the simulated
    outputs, which depend on the pool ``entry`` and never on the host.
    ``model["counters"]`` sums them into the model counters of
    ``layers.MODEL``.
    """

    scenarios: int
    scenario_s: List[Tuple[float, float]]
    cycles: int
    instr: int
    wall_s: float
    cpu_s: float
    model: Dict[str, object]
    entry: Optional[int] = None
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    warm_cells: int = 0
    warm_s: float = 0.0
    probes: List[float] = field(default_factory=list)
    work_cpu_s: Optional[float] = None

    def __post_init__(self):
        if not self.attempted:
            self.attempted = self.scenarios
        if self.work_cpu_s is None:
            self.work_cpu_s = self.cpu_s


def counters(cycles=0, instr_cva6=0, instr_ibex=0, latency_max=0,
             full_stalls=0, checks=0, points=0, corpus_size=0) -> dict:
    """The model counters of one unit, named as in ``layers.MODEL``."""
    return {"sim.cycles": cycles, "sim.instr.cva6": instr_cva6,
            "sim.instr.ibex": instr_ibex,
            "sim.detection_latency_max": latency_max,
            "core.queue.full_stalls": full_stalls,
            "core.checks_completed": checks, "coverage.points": points,
            "coverage.corpus_size": corpus_size}


def _rows_model(rows, counted) -> dict:
    """Digest of the simulated columns of result ``rows``, and the
    model counters of the ``counted`` ones.

    Only simulated outputs enter the digest, so a change to how a
    campaign is written out does not count as a changed output."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps([row.get(key) for key in _ROW_OUTPUTS])
                      .encode())
    latencies = [row["detection_latency"] for row in counted
                 if row.get("detection_latency") is not None]
    return {
        "rows": len(rows),
        "detections": sum(1 for row in rows if row.get("detected")),
        "digest": digest.hexdigest(),
        "counters": counters(
            cycles=sum(int(row.get("cycles") or 0) for row in counted),
            instr_cva6=sum(int(row.get("host_instructions") or 0)
                           for row in counted),
            latency_max=max(latencies, default=0),
            checks=sum(int(row.get("events_checked") or 0)
                       for row in counted)),
    }


#: Result-row columns that are simulated outputs.
_ROW_OUTPUTS = ("name", "status", "detected", "expectation_met",
                "violation_kind", "cycles", "host_instructions", "cf_events",
                "events_checked", "detection_latency", "stall_cycles",
                "gadget_executed", "coverage_points", "coverage_digest")


class Workload:
    """Maps a run's units onto pool entries.

    The benchmark seed picks a start entry.  Set-up runs the start
    entry, timed unit ``i`` the entry ``i + 1`` after it and traced unit
    ``i`` the entry ``i + 1`` before it, so the timed and traced phases
    meet fresh inputs until together they pass ``POOL`` units.
    """

    name = ""
    POOL = 64

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.start = derive(seed, self.name) % self.POOL

    def entry(self, tag: str, index: int) -> int:
        step = {"setup": 0, "timed": 1 + index, "traced": -1 - index}[tag]
        return (self.start + step) % self.POOL

    def unit(self, index: int, tag: str) -> Unit:
        entry = self.entry(tag, index)
        unit = self.run(entry, f"{tag}/{index}")
        unit.entry = entry
        return unit

    def run(self, entry: int, label: str) -> Unit:
        raise NotImplementedError

    def check(self) -> List[Unit]:
        return []


def _report_key(report) -> list:
    """The simulated outputs of one co-sim run that must repeat exactly."""
    cfi = report.cfi
    key = [
        report.cycles,
        report.host_instructions,
        report.ibex_instructions,
        report.detection_latency,
        cfi.get("checks_completed", 0),
        cfi.get("full_stalls", 0),
    ]
    if report.per_hart is not None:
        key.append([row["detected"] for row in report.per_hart])
    return key


class _Cosim(Workload):
    """Shared driver of the two co-simulation workloads.

    Subclasses list one pool entry's scenarios as ``(label, build)``
    pairs, where ``build()`` returns ``(soc, expected detection per
    application hart)``, with ``None`` where a verdict is not asserted.
    Every entry has its own victim seeds, so one run covers many
    program shapes.  After the timed phase the first timed unit runs
    again on the event-driven engine and must reproduce the batched
    engine's outputs exactly.
    """

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.outputs: Dict[int, List[list]] = {}

    def scenarios(self, entry: int) -> list:
        raise NotImplementedError

    def setup(self) -> Unit:
        from repro.system.sim import SystemSimulator

        self._simulator = SystemSimulator
        return self.unit(0, "setup")

    def _pass(self, entry: int, tag: str, mode: Optional[str] = None,
              probes: Optional[Probes] = None):
        labels, keys, times, failures = [], [], [], []
        cycles = instr = 0
        for label, build in self.scenarios(entry):
            if probes is not None:
                probes.take()
            start = clock()
            soc, expected = build()
            report = self._simulator(soc, mode=mode).run()
            times.append(since(start))
            labels.append(label)
            keys.append(_report_key(report))
            cycles += report.cycles
            instr += report.host_instructions + report.ibex_instructions
            if report.per_hart is None:
                detected = [report.detected]
            else:
                detected = [row["detected"] for row in report.per_hart]
            if any(want is not None and got != want
                   for got, want in zip(detected, expected)):
                failures.append(f"{tag} {label}: detected "
                                f"{detected}, expected {expected}")
        if probes is not None:
            probes.take()
        return labels, keys, times, failures, cycles, instr

    def run(self, entry: int, label: str) -> Unit:
        probes = Probes()
        _labels, keys, times, failures, cycles, instr = self._pass(
            entry, label, probes=probes)
        wall = sum(w for w, _c in times)
        cpu = sum(c for _w, c in times)
        self.outputs[entry] = keys
        model = {"runs": keys, "counters": counters(
            cycles=cycles,
            instr_cva6=sum(key[1] for key in keys),
            instr_ibex=sum(key[2] for key in keys),
            latency_max=max(key[3] or 0 for key in keys),
            checks=sum(key[4] for key in keys),
            full_stalls=sum(key[5] for key in keys))}
        return Unit(scenarios=len(keys), scenario_s=times, cycles=cycles,
                    instr=instr, wall_s=wall, cpu_s=cpu, model=model,
                    failures=failures, probes=probes.cpu)

    def check(self) -> List[Unit]:
        """The first timed unit again, on the event-driven engine."""
        entry = self.entry("timed", 0)
        labels, keys, _times, failures, _cycles, _instr = self._pass(
            entry, "event-driven", "event-driven")
        recorded = self.outputs[entry]
        failures += [
            f"timed/0 {label}: event-driven outputs {key} differ from the "
            f"batched {ref}"
            for label, key, ref in zip(labels, keys, recorded) if key != ref
        ]
        return [Unit(scenarios=len(keys), scenario_s=[], cycles=0, instr=0,
                     wall_s=0.0, cpu_s=0.0, model={}, failures=failures)]


class CosimFw(_Cosim):
    """One application hart, Ibex shadow-stack firmware as monitor."""

    name = "cosim-fw"
    POOL = 512
    MIX = (("benign", "irq"), ("deep-recursion", "irq"), ("rop", "irq"),
           ("benign", "polling"))

    def scenarios(self, entry: int) -> list:
        from repro.campaign.spec import VICTIMS
        from repro.firmware.shadow_stack import (
            FirmwareLayout,
            shadow_stack_firmware,
        )
        import repro.system.soc as soc_module

        victim_seed = derive(self.name, entry)

        def builder(victim: str, firmware: str):
            def build():
                soc = soc_module.build_soc()
                image = shadow_stack_firmware(firmware,
                                              FirmwareLayout(soc.addresses))
                soc.load_firmware(image.data)
                program = VICTIMS[victim].builder(
                    soc.addresses, random.Random(victim_seed))
                soc.load_host_program(program)
                return soc, [victim == "rop"]
            return build

        return [(f"{victim}/{firmware}", builder(victim, firmware))
                for victim, firmware in self.MIX]


class MultihartFw(_Cosim):
    """N application harts sharing one Ibex firmware monitor."""

    name = "multihart-fw"
    POOL = 128
    HARTS = (2, 4)
    SEEDS_PER_N = 3

    def scenarios(self, entry: int) -> list:
        from repro.campaign.spec import VICTIMS
        from repro.core.config import TitanCfiConfig
        from repro.firmware.shadow_stack import (
            FirmwareLayout,
            shadow_stack_firmware,
        )
        import repro.system.soc as soc_module
        from repro.system.topology import Topology

        def builder(n: int, victim_seed: int):
            def build():
                topo = Topology(n_harts=n)
                soc = soc_module.build_soc(
                    cfi_config=TitanCfiConfig(raise_on_violation=False),
                    topology=topo,
                )
                image = shadow_stack_firmware("irq",
                                              FirmwareLayout(soc.addresses))
                soc.load_firmware(image.data)
                victims = ("rop",) + ("deep-recursion",) * (n - 1)
                for hart_id, victim in enumerate(victims):
                    amap = topo.address_map(hart_id, soc.addresses)
                    program = VICTIMS[victim].builder(
                        amap, random.Random(victim_seed + hart_id))
                    soc.load_host_program(program, hart_id=hart_id)
                # The firmware keeps one shadow-stack context for all
                # harts, so the peers' verdicts are recorded, not
                # asserted; the attack on hart 0 must be detected.
                return soc, [True] + [None] * (n - 1)
            return build

        return [(f"n{n}/seed{k}",
                 builder(n, derive(self.name, entry, k)))
                for n in self.HARTS for k in range(self.SEEDS_PER_N)]


class SweepFull(Workload):
    """The ``full`` matrix through a fresh sweep service, cold then warm.

    Pool entries are campaign seeds.  Every unit of a run serves the
    same campaign, so after set-up the shard caches are warm and a unit
    times the service, the runner and the store rather than cold
    captures.
    """

    name = "sweep-full"
    POOL = 16
    MATRIX = "full"

    def entry(self, tag: str, index: int) -> int:
        return self.start

    def setup(self) -> Unit:
        from repro.service import SweepService

        self._service = SweepService
        return self.unit(0, "setup")

    def run(self, entry: int, label: str) -> Unit:
        campaign_seed = derive(self.name, entry)
        root = self.workdir / f"sweep-{label.replace('/', '-')}"
        shutil.rmtree(root, ignore_errors=True)
        service = self._service(root)
        # A cell's time is its execution: from the end of the previous
        # cell's durable store write (or of the batch's journal entry)
        # to the start of its own.  The fsync'd writes move with the
        # host's I/O, not its CPU; they still count in ``work_cpu_s``.
        cell_s: List[Tuple[float, float]] = []
        probes = Probes()
        mark = [clock()]
        put, batch = service.store.put, service.journal.batch

        def timed_put(*args, **kwargs):
            cell_s.append(since(mark[0]))
            result = put(*args, **kwargs)
            probes.take()
            mark[0] = clock()
            return result

        def timed_batch(*args, **kwargs):
            batch(*args, **kwargs)
            mark[0] = clock()

        service.store.put = timed_put
        service.journal.batch = timed_batch
        try:
            service.submit(self.MATRIX, campaign_seed=campaign_seed)
            start = clock()
            probes.take()
            mark[0] = clock()
            (cold,) = service.serve_once()
            cold_s, cold_cpu = since(start)
            service.submit(self.MATRIX, campaign_seed=campaign_seed)
            start = clock()
            (warm,) = service.serve_once()
            warm_s, warm_cpu = since(start)
            cold_bytes = (service.job_dir(cold["job_id"])
                          / "campaign.json").read_bytes()
            warm_bytes = (service.job_dir(warm["job_id"])
                          / "campaign.json").read_bytes()
        finally:
            shutil.rmtree(root, ignore_errors=True)

        failures = []
        cells = cold["cells"]
        if cold["state"] != "done" or cold["failed"]:
            failures.append(f"cold pass ended {cold['state']} with "
                            f"{cold['failed']} failed cells")
        if cold["executed"] != cells:
            failures.append(f"cold pass executed {cold['executed']} of "
                            f"{cells} cells")
        if warm["executed"] or warm["hits"] != cells:
            failures.append(f"warm pass executed {warm['executed']} cells "
                            f"and hit {warm['hits']} of {cells}")
        if warm_bytes != cold_bytes:
            failures.append("warm campaign.json differs from the cold one")
        rows = json.loads(cold_bytes)["scenarios"]
        for row in rows:
            if row.get("status") != "ok" or not row.get("expectation_met"):
                failures.append(f"cell {row['name']}: status "
                                f"{row.get('status')}, expectation_met "
                                f"{row.get('expectation_met')}")
        model = _rows_model(rows, rows)
        cold_s -= probes.spent[0]
        cold_cpu -= probes.spent[1]
        return Unit(scenarios=cells, scenario_s=cell_s,
                    cycles=model["counters"]["sim.cycles"],
                    instr=model["counters"]["sim.instr.cva6"],
                    wall_s=cold_s, cpu_s=cold_cpu, model=model,
                    failures=failures, attempted=cells + warm["cells"],
                    warm_cells=warm["cells"], warm_s=warm_s,
                    probes=probes.cpu, work_cpu_s=cold_cpu + warm_cpu)


class FuzzGuided(Workload):
    """The coverage-guided fuzz loop on a fresh root per unit.

    Pool entries are fuzz seeds, so each unit's programs are new and
    the assembly caches cannot serve them.
    """

    name = "fuzz-guided"
    POOL = 128
    ITERATIONS = 40

    def setup(self) -> Unit:
        # On ``repro.coverage`` the name ``fuzz`` is the function; the
        # module is what the timing hook below patches.
        self._fuzz = importlib.import_module("repro.coverage.fuzz")
        return self.unit(0, "setup")

    def run(self, entry: int, label: str) -> Unit:
        fuzz_module = self._fuzz
        fuzz_seed = derive(self.name, entry)
        root = self.workdir / f"fuzz-{label.replace('/', '-')}"
        shutil.rmtree(root, ignore_errors=True)
        config = fuzz_module.FuzzConfig(iterations=self.ITERATIONS,
                                        seed=fuzz_seed, jobs=1)
        candidate_s: List[Tuple[float, float]] = []
        probes = Probes()
        worker = fuzz_module._worker

        def timed_worker(payload):
            probes.take()
            start = clock()
            record = worker(payload)
            candidate_s.append(since(start))
            return record

        fuzz_module._worker = timed_worker
        try:
            start = clock()
            summary = fuzz_module.fuzz(root, config)
            probes.take()
            wall, cpu = since(start)
            wall -= probes.spent[0]
            cpu -= probes.spent[1]
            rows = json.loads((root / "campaign.json").read_bytes())[
                "scenarios"]
        finally:
            fuzz_module._worker = worker
            shutil.rmtree(root, ignore_errors=True)

        failures = []
        if summary["oracle_disagreements"]:
            failures.append(f"fuzz seed {fuzz_seed}: "
                            f"{summary['oracle_disagreements']} oracle "
                            f"disagreements")
        if summary["iterations"] != self.ITERATIONS:
            failures.append(f"fuzz seed {fuzz_seed}: ran "
                            f"{summary['iterations']} candidates")
        # Every candidate runs under each policy; the first policy's
        # rows count each candidate's simulation once.
        first_policy = config.policies[0]
        model = _rows_model(rows, [row for row in rows
                                   if row["policy"] == first_policy])
        model["statuses"] = summary["statuses"]
        model["counters"].update({
            "coverage.points": summary["distinct_points"],
            "coverage.corpus_size": summary["corpus_size"]})
        return Unit(scenarios=summary["iterations"], scenario_s=candidate_s,
                    cycles=model["counters"]["sim.cycles"],
                    instr=model["counters"]["sim.instr.cva6"],
                    wall_s=wall, cpu_s=cpu, model=model, failures=failures,
                    probes=probes.cpu)


WORKLOADS = {cls.name: cls for cls in (CosimFw, MultihartFw, SweepFull,
                                       FuzzGuided)}
