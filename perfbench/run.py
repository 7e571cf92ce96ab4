#!/usr/bin/env python3
"""The repository's benchmark: one workload per run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cosim-fw --seed 1 --seconds 15

Workloads: ``cosim-fw``, ``multihart-fw``, ``sweep-full``,
``fuzz-guided`` (see ``perfbench/README.md``).  A run

1. sets up (imports, inputs, one cold unit) and times it;
2. repeats the workload's unit of work until ``--seconds`` have passed
   (at least ``MIN_UNITS`` units), with tracing off, timing a fixed
   host-speed reference between units;
3. with ``--trace 1``, repeats the same phase with every layer's public
   functions wrapped in spans, and reports per-layer metrics and the
   tracing overhead; the spans go to a Chrome trace-event file;
4. runs the workload's extra correctness pass;
5. with ``--trace 0``, times two more set-ups, each in a fresh
   interpreter, and reports the median of the three.

Every unit's outputs are checked; any failure counts in ``failed``.
Each unit's simulated outputs must equal the committed ones of its pool
entry in ``perfbench/expected/<workload>.json``; traced call counts
must match an earlier run of the same seed and source, when one is
recorded under ``.perfbench/records``.  The last line of standard
output is the JSON result, with times normalised to the reference's
speed; the lines before it are a readable report that shows every
metric both as measured and normalised.  All files a run writes stay
under ``.perfbench`` at the repository root.

``--update-expected`` runs every pool entry of the workload and
rewrites its expected outputs; do that only for a change meant to alter
simulated results.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import instrument, metric_units, per_layer_metrics
from reference import reference_seconds
from tracing import Tracer
from workloads import WORKLOADS, Probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected"

#: Fewest units a timed phase runs, whatever ``--seconds`` says, so a
#: slow host still yields several samples of the longest unit.
MIN_UNITS = 3

#: Set-ups per ``--trace 0`` run: this process plus fresh interpreters.
SETUP_SAMPLES = 3

#: Median seconds of ``reference_seconds()`` on a calm host (a 2-vCPU
#: x86_64 VM, CPython 3.11), wall and CPU alike.  Normalised times are
#: raw times scaled by REFERENCE_S over the reference's median, on the
#: same clock, in the same phase.
REFERENCE_S = 0.008

#: CPU seconds of one probe (``workloads.PROBE_STEPS`` steps of the
#: same reference, taken between scenario samples) on that calm host.
#: A probe costs more per step than the full reference, because it
#: starts with caches the workload has just filled.  The gated CPU
#: metrics are normalised by the probes inside each unit.
PROBE_S = 0.00175

#: Reference runs per this many seconds of workload, so long units (a
#: sweep pass takes seconds) get as many reference samples as short ones.
REFERENCE_EVERY_S = 0.25

#: End-to-end metrics: name -> (unit, better, kind, clock).  The first
#: ten are the issue's; the ``_cpu_`` ones repeat the rates and
#: percentiles on process CPU time.  ``kind`` says how host-speed
#: normalisation applies: a rate divides by the factor of its
#: ``clock``, a time multiplies by it.  The ``probe`` clock is CPU time
#: normalised unit by unit (see ``_probe_normalised``).
END_TO_END = {
    "sim_cycles_per_s": ("cycles/s", "higher", "rate", "wall"),
    "sim_instr_per_s": ("instr/s", "higher", "rate", "wall"),
    "scenarios_per_s": ("scenarios/s", "higher", "rate", "wall"),
    "warm_scenarios_per_s": ("scenarios/s", "higher", "rate", "wall"),
    "scenario_ms_p50": ("ms", "lower", "time", "wall"),
    "scenario_ms_p95": ("ms", "lower", "time", "wall"),
    "cpu_s": ("s", "lower", "time", "probe"),
    "setup_s": ("s", "lower", "time", "wall"),
    "peak_rss_mib": ("MiB", "lower", None, None),
    "failed_frac": ("fraction", "lower", None, None),
    "sim_cycles_per_cpu_s": ("cycles/cpu-s", "higher", "rate", "cpu"),
    "sim_instr_per_cpu_s": ("instr/cpu-s", "higher", "rate", "cpu"),
    "scenarios_per_cpu_s": ("scenarios/cpu-s", "higher", "rate", "cpu"),
    "scenario_cpu_ms_p50": ("ms", "lower", "time", "probe"),
    "scenario_cpu_ms_p95": ("ms", "lower", "time", "probe"),
}

#: The metrics of the result line, normalised (BENCHMARK.json lists the
#: same names).  README.md explains why these and not the wall-clock
#: rates: on a shared host only these hold steady on every workload.
RESULT_METRICS = ("scenario_cpu_ms_p50", "scenario_cpu_ms_p95", "cpu_s",
                  "setup_s", "peak_rss_mib")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the "
                             "fresh-interpreter set-up samples)")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite the workload's expected outputs "
                             "from every pool entry")
    return parser.parse_args(argv)


def _percentile(values, q: float) -> float:
    """The mean of the samples ranked within 5 percentage points of
    ``q`` (within half the distance to the top, for p95).

    Scenarios of a workload come in kinds of very different cost, and
    a plain rank percentile that falls on the edge between two kinds
    (p50 of ``multihart-fw``'s half N=2, half N=4 scenarios) reads one
    extreme sample.  The mean over a window moves smoothly there.
    """
    ordered = sorted(values)
    half = min(0.05, (1 - q) / 2)
    low = int(round((q - half) * len(ordered), 9))
    high = max(low + 1, math.ceil(round((q + half) * len(ordered), 9)))
    return statistics.fmean(ordered[low:high])


def _source_fingerprint() -> str:
    """The package's code fingerprint plus this benchmark's own files."""
    from repro.service.store import code_fingerprint

    digest = hashlib.sha256(code_fingerprint().encode())
    for path in sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _host(fingerprint: str) -> dict:
    commit = None
    try:
        # The ceiling keeps git from reporting an enclosing repository
        # when this tree is a plain checkout.
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_fingerprint": fingerprint,
    }


def _host_factors(references) -> dict:
    """Normalisation factor per clock: REFERENCE_S over the median of
    the (wall, CPU) ``references`` on that clock."""
    return {clock: REFERENCE_S / statistics.median(pair[i]
                                                   for pair in references)
            for i, clock in enumerate(("wall", "cpu"))}


def _setup(workload):
    """Set up; returns (wall seconds, normalised seconds, the cold unit)."""
    references = [reference_seconds() for _ in range(5)]
    t0 = time.perf_counter()
    unit = workload.setup()
    seconds = time.perf_counter() - t0
    references += [reference_seconds() for _ in range(5)]
    return seconds, seconds * _host_factors(references)["wall"], unit


def _phase(workload, seconds: float, tag: str, tracer=None):
    """Run units until ``seconds`` pass, each after reference runs in
    proportion to the previous unit's length; returns (units, cpu
    seconds per unit, unit walls, tracer snapshot after the first unit,
    reference seconds)."""
    units, cpu, walls, references = [], [], [], []
    first = None
    start = time.perf_counter()
    while True:
        index = len(units)
        runs = round(walls[-1] / REFERENCE_EVERY_S) if walls else 1
        references += [reference_seconds() for _ in range(max(1, runs))]
        # Every unit starts with an empty collector, so how much garbage
        # earlier units left does not decide when this one collects.
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        if tracer is None:
            unit = workload.unit(index, tag)
        else:
            unit = tracer.call("bench.unit", workload.unit, index, tag)
        walls.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        units.append(unit)
        if tracer is not None and index == 0:
            first = tracer.snapshot()
        if len(units) >= MIN_UNITS and time.perf_counter() - start >= seconds:
            return units, cpu, walls, first, references


def _setup_samples(args, count: int) -> list:
    """(wall, normalised) set-up seconds from ``count`` fresh
    interpreters."""
    samples = []
    env = dict(os.environ, TMPDIR=str(WORK))
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((sample["setup_s"], sample["setup_norm_s"]))
    return samples


def _end_to_end(units, setup_s, failed, attempted) -> dict:
    """End-to-end metrics of the timed phase.

    Units of one run differ (fresh victim or fuzz seeds per unit), so
    rates are phase totals over phase time rather than medians of
    per-unit rates, which would depend on which units ran.
    """
    wall = sum(u.wall_s for u in units)
    busy = sum(u.cpu_s for u in units)
    wall_ms = [w * 1000 for u in units for w, _c in u.scenario_s]
    cpu_ms = [c * 1000 for u in units for _w, c in u.scenario_s]
    cycles = sum(u.cycles for u in units)
    instr = sum(u.instr for u in units)
    scenarios = sum(u.scenarios for u in units)
    warm_s = sum(u.warm_s for u in units)
    return {
        "sim_cycles_per_s": cycles / wall,
        "sim_instr_per_s": instr / wall,
        "scenarios_per_s": scenarios / wall,
        "warm_scenarios_per_s": (
            sum(u.warm_cells for u in units) / warm_s if warm_s else None),
        "scenario_ms_p50": _percentile(wall_ms, 0.50),
        "scenario_ms_p95": _percentile(wall_ms, 0.95),
        "cpu_s": statistics.fmean(u.work_cpu_s for u in units),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / attempted,
        "sim_cycles_per_cpu_s": cycles / busy,
        "sim_instr_per_cpu_s": instr / busy,
        "scenarios_per_cpu_s": scenarios / busy,
        "scenario_cpu_ms_p50": _percentile(cpu_ms, 0.50),
        "scenario_cpu_ms_p95": _percentile(cpu_ms, 0.95),
    }


def _probe_normalised(units) -> dict:
    """The ``probe``-clock metrics on a host whose probe takes PROBE_S.

    The host's speed swings by up to 2x within a second, faster than a
    phase-wide factor can follow.  So every CPU time of a unit, its
    scenario samples and its total, is scaled by PROBE_S over the
    median of the probes taken inside that unit (the median, because
    one probe can be caught by a preemption).
    """
    samples, unit_cpu = [], []
    for unit in units:
        factor = PROBE_S / statistics.median(unit.probes)
        samples += [cpu * 1000 * factor for _wall, cpu in unit.scenario_s]
        unit_cpu.append(unit.work_cpu_s * factor)
    return {
        "scenario_cpu_ms_p50": _percentile(samples, 0.50),
        "scenario_cpu_ms_p95": _percentile(samples, 0.95),
        "cpu_s": statistics.fmean(unit_cpu),
    }


def _normalise(metrics: dict, factors: dict, setup_s: float,
               probed: dict) -> dict:
    """``metrics`` on a host whose reference run takes REFERENCE_S:
    times scaled by the factor of their clock, rates divided by it;
    ``probed`` holds the ``probe``-clock ones.  Set-up time carries its
    own factor, measured beside each set-up."""
    out = {}
    for name, value in metrics.items():
        _unit, _better, kind, clock = END_TO_END[name]
        if value is None or kind is None:
            out[name] = value
        elif clock == "probe":
            out[name] = probed[name]
        elif kind == "rate":
            out[name] = value / factors[clock]
        else:
            out[name] = value * factors[clock]
    out["setup_s"] = setup_s
    return out


def _expected_path(workload) -> Path:
    return EXPECTED / f"{workload.name}.json"


def _load_expected(workload) -> list:
    """The committed outputs of every pool entry, or [] if there are
    none for this pool."""
    path = _expected_path(workload)
    if not path.exists():
        return []
    expected = json.loads(path.read_text())
    return expected["entries"] if expected["pool"] == workload.POOL else []


def _check_expected(units, expected: list) -> list:
    """Failures of the ``units`` whose simulated outputs differ from
    the committed ones of their pool entry."""
    failures = []
    for unit in units:
        if unit.entry is None:
            continue
        if not expected:
            failures.append(f"entry {unit.entry}: no expected outputs in "
                            f"perfbench/expected")
            continue
        want = expected[unit.entry]
        got = json.loads(json.dumps(unit.model))
        if got != want:
            differ = {key: [want["counters"].get(key), value]
                      for key, value in got["counters"].items()
                      if want["counters"].get(key) != value}
            failures.append(f"entry {unit.entry}: simulated outputs differ "
                            f"from perfbench/expected (counters [expected, "
                            f"got]: {differ or 'equal'})")
    return failures


def _update_expected(workload) -> int:
    """Run every pool entry and rewrite the workload's expected file."""
    workload.setup()
    entries = []
    for entry in range(workload.POOL):
        unit = workload.run(entry, f"pool/{entry}")
        if unit.failures:
            for failure in unit.failures:
                print(f"FAILED entry {entry}: {failure}", file=sys.stderr)
            return 1
        entries.append(json.dumps(unit.model, sort_keys=True))
    path = _expected_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{{"workload": "{workload.name}", '
                    f'"pool": {workload.POOL}, "entries": [\n'
                    + ",\n".join(entries) + "\n]}\n")
    print(f"wrote {len(entries)} entries to {path}")
    return 0


def _check_record(name: str, observed: dict) -> list:
    """Compare ``observed`` with the record an earlier run of the same
    workload, seed and source left; write it when there is none."""
    path = WORK / "records" / f"{name}.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    mismatched = [f"{key} differs from the earlier run's record"
                  for key in sorted(observed)
                  if key in recorded and recorded[key] != observed[key]]
    if not mismatched and not observed.keys() <= recorded.keys():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(dict(recorded, **observed), sort_keys=True))
        os.replace(tmp, path)
    return mismatched


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (have: "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.update_expected:
            return _update_expected(workload)
        return _run(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_phase(workload, seconds: float, untraced_walls):
    """The traced phase; returns (units, per-layer metrics, tracer)."""
    tracer = Tracer()
    instrument(tracer)
    # Probes run inside the workload's own calls (a sweep's store
    # write, a fuzz candidate); their own span keeps them in the
    # ``bench`` layer rather than in the caller's self time.
    tracer.patch_method(Probes, "take", "bench.probe")
    try:
        units, _cpu, walls, first, _refs = _phase(workload, seconds,
                                                  "traced", tracer)
    finally:
        tracer.restore()
    final = tracer.snapshot()
    per_layer = per_layer_metrics(first, final, len(units), units[0].model)
    unit_wall = sum(walls) / len(units)
    untraced_wall = sum(untraced_walls) / len(untraced_walls)
    self_sum = sum(entry[1] for entry in final["stats"].values()) / len(units)
    # Every span nests in its unit's ``bench.unit`` span, so the self
    # times add up to the traced wall time by construction; what no
    # wrapped function covers shows as the ``bench`` layer.
    per_layer.update({
        "trace.unit_wall_s": unit_wall,
        "trace.untraced_unit_wall_s": untraced_wall,
        "trace.self_sum_s": self_sum,
        "trace.uncovered_frac": per_layer["layer.bench.self_s"] / unit_wall,
        "trace.overhead_frac": unit_wall / untraced_wall - 1,
        "trace.units": len(units),
    })
    return units, per_layer, tracer


def _run(args, workload) -> int:
    setup_s, setup_norm_s, cold = _setup(workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_norm_s": setup_norm_s}))
        return 0

    units, cpu, walls, _, references = _phase(workload, args.seconds,
                                              "timed")
    checked = [cold] + units
    failures = []
    per_layer = None
    fingerprint = _source_fingerprint()
    if args.trace:
        traced, per_layer, tracer = _traced_phase(workload, args.seconds,
                                                  walls)
        checked += traced
        # Call counts legitimately change with the code, so they are
        # held to repeat only for the same seed and source.
        failures += _check_record(
            f"{workload.name}-s{args.seed}-{fingerprint}",
            {key: value for key, value in per_layer.items()
             if key.endswith(".calls")})
    failures += _check_expected(checked, _load_expected(workload))
    checked += workload.check()
    for unit in checked:
        failures += unit.failures
    attempted = sum(unit.attempted for unit in checked)

    setups = [(setup_s, setup_norm_s)]
    if not args.trace:
        setups += _setup_samples(args, SETUP_SAMPLES - 1)

    metrics = _end_to_end(units,
                          statistics.median(raw for raw, _norm in setups),
                          len(failures), attempted)
    factors = _host_factors(references)
    normalised = _normalise(
        metrics, factors, statistics.median(norm for _raw, norm in setups),
        _probe_normalised(units))
    host = _host(fingerprint)
    _report(args, workload, units, setups, factors, metrics, normalised,
            per_layer, failures, attempted, host)

    if args.trace:
        tracer.write_chrome_trace(
            WORK / "traces" / f"{workload.name}-s{args.seed}.json",
            {"workload": workload.name, "seed": args.seed, "host": host})
        shown = {name: {"value": per_layer[name], "unit": unit}
                 for name, unit, _better in metric_units()}
    else:
        shown = {name: {"value": normalised[name],
                        "unit": END_TO_END[name][0]}
                 for name in RESULT_METRICS}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": shown,
    }
    _save(workload.name, args, host, factors, metrics, normalised,
          per_layer, result,
          [[u.wall_s, u.cpu_s, c, u.scenarios, u.cycles, u.instr,
            u.work_cpu_s, u.probes, [cpu for _wall, cpu in u.scenario_s]]
           for u, c in zip(units, cpu)])
    print(json.dumps(result))
    return 0


def _report(args, workload, units, setups, factors, metrics, normalised,
            per_layer, failures, attempted, host) -> None:
    samples = sum(len(unit.scenario_s) for unit in units)
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"timed units {len(units)}, scenario samples {samples}, "
          f"set-up samples {[round(raw, 3) for raw, _norm in setups]} s, "
          f"host factors wall {factors['wall']:.4f} "
          f"cpu {factors['cpu']:.4f}")
    print(f"  {'metric':<22} {'measured':>14} {'normalised':>14} unit")
    for name, (unit, better, _kind, _clock) in END_TO_END.items():
        cells = ["n/a" if table[name] is None else f"{table[name]:.6g}"
                 for table in (metrics, normalised)]
        mark = "*" if name in RESULT_METRICS else " "
        print(f"{mark} {name:<22} {cells[0]:>14} {cells[1]:>14} {unit} "
              f"({better} is better)")
    if per_layer is not None:
        for name, unit, _better in metric_units():
            print(f"  {name:<40} {per_layer[name]:>16.6g} {unit}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    if len(failures) > 20:
        print(f"FAILED ... {len(failures) - 20} more")
    print(f"attempted {attempted}, failed {len(failures)}")


def _save(name, args, host, factors, metrics, normalised, per_layer, result,
          units) -> None:
    """Keep the full result, host included, beside the trace files."""
    path = WORK / "results" / f"{name}-s{args.seed}-t{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "host": host, "host_factors": factors, "end_to_end": metrics,
        "normalised": normalised,
        "per_layer": per_layer, "result": result,
        "units": {"columns": ["wall_s", "cpu_s", "unit_cpu_s", "scenarios",
                              "cycles", "instr", "work_cpu_s",
                              "probes_cpu_s", "scenario_cpu_s"],
                  "rows": units},
    }, indent=1, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
