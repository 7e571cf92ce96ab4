"""Engine equivalence as a property over generated platforms.

The busy loop, the event-driven engine and the batched engine must
produce the same :class:`SimulationReport`, field for field, and the
same per-check latencies in every CFI stage, on every platform the
generator draws: 1 to 4 application harts with their own victims and
start delays, any queue depth, blocking, lossy or plain queues, and the
mailbox served by the ``irq`` or ``polling`` firmware or by a mounted
policy host.  Examples are derandomised, so the suite is
deterministic.  Three pinned examples always run: an attack beside a
benign peer, a staggered attack amid three chatty peers, and a lossy
queue saturated by a chatty peer.
"""

import dataclasses
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.spec import VICTIMS
from repro.core.config import TitanCfiConfig
from repro.firmware.policies import ShadowStackPolicy
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.policyhost import mount_policy_host
from repro.system.sim import MODE_BATCHED, MODE_BUSY, MODE_EVENT, SystemSimulator
from repro.system.soc import build_soc
from repro.system.topology import Topology

#: Hand-written (non-synthetic) victims usable on any hart.
CORPUS = sorted(name for name, spec in VICTIMS.items() if not spec.synthetic)


@st.composite
def platforms(draw):
    n = draw(st.integers(1, 4))
    return {
        "victims": draw(st.lists(st.sampled_from(CORPUS),
                                 min_size=n, max_size=n)),
        "start_delays": draw(st.lists(st.integers(0, 2000),
                                      min_size=n, max_size=n)),
        "queue_depth": draw(st.integers(1, 8)),
        "queue": draw(st.sampled_from(("plain", "blocking", "lossy"))),
        "monitor": draw(st.sampled_from(("irq", "polling", "host"))),
        "raise_on_violation": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def _pinned(victims, start_delays=None, queue="plain"):
    """A policy-host platform with seed 1234 that latches violations."""
    return {
        "victims": list(victims),
        "start_delays": start_delays or [0] * len(victims),
        "queue_depth": TitanCfiConfig().queue_depth,
        "queue": queue,
        "monitor": "host",
        "raise_on_violation": False,
        "seed": 1234,
    }


def _build(platform):
    topo = Topology(n_harts=len(platform["victims"]))
    config = TitanCfiConfig(
        queue_depth=platform["queue_depth"],
        blocking=platform["queue"] == "blocking",
        lossy=platform["queue"] == "lossy",
        raise_on_violation=platform["raise_on_violation"],
    )
    soc = build_soc(cfi_config=config, topology=topo)
    if platform["monitor"] != "host":
        firmware = shadow_stack_firmware(platform["monitor"],
                                         FirmwareLayout(soc.addresses))
        soc.load_firmware(firmware.data)
    for hart_id, victim in enumerate(platform["victims"]):
        amap = topo.address_map(hart_id, soc.addresses)
        program = VICTIMS[victim].builder(
            amap, random.Random(platform["seed"] + hart_id))
        soc.load_host_program(program, hart_id=hart_id)
    if platform["monitor"] == "host":
        mount_policy_host(soc, ShadowStackPolicy())
    return soc


def _fields(report):
    """Every report field; the violation (an exception, equal only to
    itself) compares by type and message."""
    values = {f.name: getattr(report, f.name)
              for f in dataclasses.fields(report)}
    violation = values["violation"]
    if violation is not None:
        values["violation"] = (type(violation), str(violation))
    return values


@settings(derandomize=True, max_examples=100, deadline=None)
@given(platforms())
@example(_pinned(("rop", "benign")))
@example(_pinned(("rop",) + ("deep-recursion",) * 3,
                 start_delays=[0, 700, 1400, 2100]))
@example(_pinned(("rop", "deep-recursion"), queue="lossy"))
def test_every_engine_reports_the_same_run(platform):
    reports = []
    for mode in (MODE_BUSY, MODE_EVENT, MODE_BATCHED):
        soc = _build(platform)
        fields = _fields(SystemSimulator(
            soc, mode=mode, start_delays=platform["start_delays"]).run())
        fields["check_latencies"] = [list(s.writer.stats.check_latencies)
                                     for s in soc.cfi_stages if s is not None]
        reports.append(fields)
    assert reports[0] == reports[1], platform
    assert reports[0] == reports[2], platform
