"""Event-driven cycle skipping must be invisible in every statistic.

Runs bench_table2-style workloads (victim programs under the IRQ and
polling firmware, plus attack and baseline configurations) on the busy
loop and on the default fast engine and asserts the resulting
:class:`SimulationReport` is field-for-field identical — cycles, stall
counts, instret, CFI statistics, queue high-water, check latencies.
"""

import pytest

from repro.attacks.programs import (
    benign_program,
    deep_recursion_program,
    rop_program,
)
from repro.errors import SimulationError
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.system.sim import MODE_BATCHED, MODE_BUSY, SystemSimulator
from repro.system.soc import build_soc


def _run(program_builder, mode, fw_variant="irq", **soc_kwargs):
    soc = build_soc(**soc_kwargs)
    if soc.cfi_stage is not None or soc_kwargs.get("with_cfi", True):
        firmware = shadow_stack_firmware(fw_variant, FirmwareLayout(soc.addresses))
        soc.load_firmware(firmware.data)
    soc.load_host_program(program_builder(soc.addresses))
    return SystemSimulator(soc, mode=mode).run()


def _report_key(report):
    return (
        report.cycles,
        report.host_instructions,
        report.host_stall_cycles,
        report.ibex_instructions,
        report.detected,
        report.cfi,
    )


@pytest.mark.parametrize("fw_variant", ["irq", "polling"])
@pytest.mark.parametrize(
    "builder", [benign_program, deep_recursion_program, rop_program],
    ids=["benign", "deep-recursion", "rop"],
)
def test_reports_identical_with_and_without_skipping(builder, fw_variant):
    busy = _run(builder, MODE_BUSY, fw_variant=fw_variant)
    fast = _run(builder, MODE_BATCHED, fw_variant=fw_variant)
    assert _report_key(busy) == _report_key(fast)


def test_optimized_fabric_identical():
    busy = _run(benign_program, MODE_BUSY, fabric="optimized")
    fast = _run(benign_program, MODE_BATCHED, fabric="optimized")
    assert _report_key(busy) == _report_key(fast)


def test_baseline_without_cfi_identical():
    busy = _run(benign_program, MODE_BUSY, with_cfi=False)
    fast = _run(benign_program, MODE_BATCHED, with_cfi=False)
    assert _report_key(busy) == _report_key(fast)


def test_skipping_reduces_tick_count():
    """The fast path must actually skip (same cycles, fewer ticks)."""
    soc = build_soc()
    firmware = shadow_stack_firmware("irq", FirmwareLayout(soc.addresses))
    soc.load_firmware(firmware.data)
    soc.load_host_program(benign_program(soc.addresses))
    sim = SystemSimulator(soc, mode=MODE_BATCHED)
    ticks = 0
    original_tick = sim.tick

    def counting_tick():
        nonlocal ticks
        ticks += 1
        original_tick()

    sim.tick = counting_tick
    report = sim.run()
    assert ticks < report.cycles // 2, "event-driven run barely skipped"


def test_cycle_budget_exhaustion_matches_busy_loop():
    """The max_cycles exhaustion path fires on the same cycle."""
    for mode in (MODE_BUSY, MODE_BATCHED):
        soc = build_soc()
        firmware = shadow_stack_firmware("irq", FirmwareLayout(soc.addresses))
        soc.load_firmware(firmware.data)
        soc.load_host_program(benign_program(soc.addresses))
        sim = SystemSimulator(soc, run_rot=False, mode=mode)
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run(max_cycles=50_000)
        assert sim.now == 50_000
