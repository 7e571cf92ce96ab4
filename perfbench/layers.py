"""Which ``repro`` functions the traced run wraps, and the per-layer
metrics computed from the spans.

Span names read ``<layer>.<function>``; the layer is the first part.
The hart layer is split by core: ``hart.ibex.*`` for the RV32 RoT core
and ``hart.cva6.*`` for the RV64 application harts.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from tracing import Tracer

#: Layers in report order; ``bench`` is the benchmark's own glue (time
#: inside a unit that no wrapped function covers).
LAYERS = ("system", "hart", "isa", "mem", "cva6", "core", "soc",
          "policyhost", "campaign", "service", "synth", "coverage", "bench")

#: Span names reported with ``.calls`` and ``.self_s``.
SPANS = (
    "system.run", "system.tick",
    "hart.ibex.run_n", "hart.ibex.step", "hart.cva6.run_n", "hart.cva6.step",
    "isa.decode", "isa.assemble",
    "mem.map.read", "mem.map.write", "mem.sparse.read", "mem.sparse.write",
    "cva6.try_advance",
    "core.stage.tick", "core.stage.skippable_cycles",
    "soc.build", "soc.arbiter.acquire",
    "policyhost.tick",
    "campaign.run_campaign", "campaign.run_scenario",
    "campaign.capture_commit_logs", "campaign.summarize",
    "service.serve_once", "service.store.resolve", "service.store.get",
    "service.store.put", "service.journal.append",
    "synth.generate",
    "coverage.fuzz", "coverage.shape_vector", "coverage.frontier",
    "coverage.corpus.add",
)

#: Simulated-model counters of the first traced unit, summed from its
#: outputs (``Unit.model["counters"]``): functions of the pool entry
#: alone, checked against ``perfbench/expected`` with the rest of the
#: outputs.  Workloads whose result rows do not carry a counter (Ibex
#: instructions and full-queue stalls on ``sweep-full`` and
#: ``fuzz-guided``) report 0 for it.
MODEL = ("sim.cycles", "sim.instr.cva6", "sim.instr.ibex",
         "sim.detection_latency_max", "core.queue.full_stalls",
         "core.checks_completed", "coverage.points", "coverage.corpus_size")


#: Direction of each model counter.  A change meant only to speed up
#: the simulator must leave all of them unchanged.
MODEL_BETTER = {"core.checks_completed": "higher", "coverage.points": "higher",
                "coverage.corpus_size": "higher"}


def metric_units() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out: List[Tuple[str, str, str]] = []
    for span in SPANS:
        out += [(f"{span}.calls", "count", "lower"),
                (f"{span}.self_s", "s", "lower")]
        if span.endswith(".run_n"):
            out += [(f"{span}.instr_mean", "instr", "higher"),
                    (f"{span}.empty_frac", "fraction", "lower")]
    out += [("system.ticks_per_kinstr", "ticks/kinstr", "lower"),
            ("soc.mailbox.read.calls", "count", "lower"),
            ("soc.mailbox.write.calls", "count", "lower"),
            ("soc.mailbox.self_s", "s", "lower"),
            ("service.store.hit_frac", "fraction", "higher")]
    out += [(name, "count", MODEL_BETTER.get(name, "lower"))
            for name in MODEL]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.unit_wall_s", "s", "lower"),
            ("trace.untraced_unit_wall_s", "s", "lower"),
            ("trace.self_sum_s", "s", "lower"),
            ("trace.uncovered_frac", "fraction", "lower"),
            ("trace.overhead_frac", "fraction", "lower"),
            ("trace.units", "count", "higher")]
    return out


def _hart_namer(function: str):
    ibex, cva6 = f"hart.ibex.{function}", f"hart.cva6.{function}"
    return lambda args: ibex if args[0].xlen == 32 else cva6


def instrument(tracer: Tracer) -> None:
    """Wrap the public boundary functions of every layer."""
    from repro.campaign import aggregate, runner
    from repro.core.log_writer import LogWriter
    from repro.coverage.corpus import CoverageCorpus
    from repro.coverage.shape import CoverageMap
    from repro.cva6.commit import CommitStage
    from repro.hart.core import Hart
    from repro.isa.asm import Assembler
    from repro.mem.map import MemoryMap
    from repro.mem.memory import SparseMemory
    from repro.policyhost.host import PolicyHost
    from repro.service.jobs import JobJournal
    from repro.service.queue import SweepService
    from repro.service.store import ResultStore
    from repro.soc.mailbox import DoorbellArbiter, Mailbox
    from repro.system.sim import SystemSimulator

    count = tracer.count

    def on_window(name, _args, result):
        retired = result[0]
        count(f"{name}.instr", retired)
        if not retired:
            count(f"{name}.empty")

    def on_resolve(_name, _args, result):
        stats = result[2]
        count("service.store.cells", stats["cells"])
        count("service.store.hits", stats["hits"])

    method = tracer.patch_method
    method(SystemSimulator, "run", "system.run")
    method(SystemSimulator, "tick", "system.tick")
    method(Hart, "run_n", _hart_namer("run_n"), on_window)
    method(Hart, "step", _hart_namer("step"))
    method(Assembler, "assemble", "isa.assemble")
    for attr in ("read", "read_timed", "read_bytes"):
        method(MemoryMap, attr, "mem.map.read")
    for attr in ("write", "write_timed", "write_bytes"):
        method(MemoryMap, attr, "mem.map.write")
    # Bus fast paths skip MemoryMap and reach the backing store directly.
    method(SparseMemory, "read_int", "mem.sparse.read")
    method(SparseMemory, "write_int", "mem.sparse.write")
    method(CommitStage, "try_advance", "cva6.try_advance")
    # CfiStage rebinds its tick/skippable_cycles to the log writer's.
    method(LogWriter, "tick", "core.stage.tick")
    method(LogWriter, "skippable_cycles", "core.stage.skippable_cycles")
    method(Mailbox, "read", "soc.mailbox.read")
    method(Mailbox, "write", "soc.mailbox.write")
    method(DoorbellArbiter, "acquire", "soc.arbiter.acquire")
    method(PolicyHost, "tick", "policyhost.tick")
    method(ResultStore, "put", "service.store.put")
    method(ResultStore, "get", "service.store.get")
    method(ResultStore, "resolve", "service.store.resolve", on_resolve)
    method(JobJournal, "append", "service.journal.append")
    method(SweepService, "serve_once", "service.serve_once")
    method(CoverageMap, "frontier", "coverage.frontier")
    method(CoverageCorpus, "add", "coverage.corpus.add")

    function = tracer.patch_function
    function(importlib.import_module("repro.isa.decode"), "decode",
             "isa.decode")
    function(importlib.import_module("repro.system.soc"), "build_soc",
             "soc.build")
    function(runner, "run_campaign", "campaign.run_campaign")
    function(runner, "run_scenario", "campaign.run_scenario")
    function(runner, "capture_commit_logs", "campaign.capture_commit_logs")
    function(aggregate, "summarize", "campaign.summarize")
    function(importlib.import_module("repro.synth.generator"), "generate",
             "synth.generate")
    function(importlib.import_module("repro.coverage.shape"), "shape_vector",
             "coverage.shape_vector")
    function(importlib.import_module("repro.coverage.fuzz"), "fuzz",
             "coverage.fuzz")


def per_layer_metrics(first: Dict[str, object], final: Dict[str, object],
                      units: int, first_model: Dict[str, object],
                      ) -> Dict[str, float]:
    """Per-layer metrics of a traced phase.

    Call counts and window shapes come from ``first``, the tracer
    snapshot after the phase's first unit, so they repeat exactly for a
    given seed.  Model counters are those of the first unit's outputs
    (``first_model``).  Self times are means per unit over all
    ``units`` traced units (``final`` snapshot).
    """
    model = first_model["counters"]
    calls = first["stats"]
    counters = first["counters"]
    stats = final["stats"]
    out: Dict[str, float] = {}

    def n_calls(name: str) -> int:
        return int(calls.get(name, (0,))[0])

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0))[1] / units

    for span in SPANS:
        out[f"{span}.calls"] = n_calls(span)
        out[f"{span}.self_s"] = self_s(span)
        if span.endswith(".run_n"):
            windows = n_calls(span)
            out[f"{span}.instr_mean"] = (
                counters.get(f"{span}.instr", 0) / windows if windows else 0.0)
            out[f"{span}.empty_frac"] = (
                counters.get(f"{span}.empty", 0) / windows if windows else 0.0)
    kinstr = (model["sim.instr.cva6"] + model["sim.instr.ibex"]) / 1000
    out["system.ticks_per_kinstr"] = (
        n_calls("system.tick") / kinstr if kinstr else 0.0)
    out["soc.mailbox.read.calls"] = n_calls("soc.mailbox.read")
    out["soc.mailbox.write.calls"] = n_calls("soc.mailbox.write")
    out["soc.mailbox.self_s"] = (self_s("soc.mailbox.read")
                                 + self_s("soc.mailbox.write"))
    cells = counters.get("service.store.cells", 0)
    out["service.store.hit_frac"] = (
        counters.get("service.store.hits", 0) / cells if cells else 0.0)
    for name in MODEL:
        out[name] = int(model[name])
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            entry[1] for name, entry in stats.items()
            if name.split(".", 1)[0] == layer) / units
    return out
