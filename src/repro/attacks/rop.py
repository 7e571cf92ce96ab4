"""Attack-scenario driver: run a victim on the full co-simulated SoC.

Ties everything together: assembles a victim program, boots the real
shadow-stack firmware in the RoT, runs the co-simulation, and reports
whether TitanCFI detected the attack and whether the gadget's side
effects were architecturally visible (they are with a deep queue —
detection is asynchronous; with ``blocking=True`` the gadget never
retires, paper Table II's configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.attacks.programs import GADGET_MARKER
from repro.core.config import TitanCfiConfig
from repro.errors import CfiViolation, ConfigError
from repro.firmware.policies import Policy
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.isa.asm import Program
from repro.system.sim import (
    POLICY_BACKEND_FIRMWARE,
    POLICY_BACKEND_HOST,
    POLICY_BACKENDS,
    SimulationReport,
    SystemSimulator,
)
from repro.system.soc import TitanCfiSoc, build_soc


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one attack run.

    Attributes:
        detected: TitanCFI flagged a violation.
        violation: the violation object (kind, pc, addresses).
        gadget_executed: the attacker payload's marker reached a0.
        report: the full simulation report.
    """

    detected: bool
    violation: Optional[CfiViolation]
    gadget_executed: bool
    report: SimulationReport


def run_attack_scenario(
    program: Program,
    firmware_variant: str = "irq",
    queue_depth: int = 8,
    blocking: bool = False,
    fabric: str = "standard",
    max_cycles: int = 10_000_000,
    soc: Optional[TitanCfiSoc] = None,
    sim_mode: Optional[str] = None,
    policy_backend: str = POLICY_BACKEND_FIRMWARE,
    policy: Optional[Policy] = None,
) -> AttackOutcome:
    """Run ``program`` on a TitanCFI-protected SoC.

    Args:
        program: host program (e.g. from :mod:`repro.attacks.programs`).
        firmware_variant: ``"irq"`` or ``"polling"``.
        queue_depth: CFI queue depth (8 = Table III, 1 = Table II).
        blocking: stall per check (with depth 1, the Table II config).
        fabric: RoT interconnect profile.
        max_cycles: co-simulation bound.
        soc: pre-built SoC override (advanced use).
        sim_mode: co-simulator engine (``None`` = engine default);
            every mode is cycle-exact, so the outcome is identical.
        policy_backend: who serves the CFI mailbox — ``"firmware"``
            runs the RV32 shadow-stack firmware on the Ibex ISS;
            ``"host"`` mounts ``policy`` as a
            :class:`repro.policyhost.PolicyHost` on the cycle model
            calibrated for ``firmware_variant`` and ``fabric``.
        policy: the Python policy to enforce (``"host"`` backend only).
    """
    if policy_backend not in POLICY_BACKENDS:
        raise ConfigError(
            f"unknown policy backend {policy_backend!r} (have: {POLICY_BACKENDS})"
        )
    if soc is None:
        config = TitanCfiConfig(queue_depth=queue_depth, blocking=blocking)
        soc = build_soc(cfi_config=config, fabric=fabric)
        if policy_backend == POLICY_BACKEND_HOST:
            from repro.policyhost.host import mount_policy_host

            if policy is None:
                raise ConfigError("policy_backend='host' needs a policy instance")
            mount_policy_host(soc, policy, variant=firmware_variant)
        else:
            if policy is not None:
                raise ConfigError(
                    "a policy instance needs policy_backend='host' (the "
                    "firmware backend implements the shadow stack itself)"
                )
            soc.load_firmware(shadow_stack_firmware(
                firmware_variant, FirmwareLayout(soc.addresses)
            ).data)
    else:
        # A prebuilt SoC arrives with its mailbox agent already set up;
        # the policy arguments must agree with it, not be ignored.
        mounted = getattr(soc, "policy_host", None) is not None
        if policy is not None:
            raise ConfigError(
                "pass a pre-built soc with its policy host already "
                "mounted (repro.policyhost.mount_policy_host), not a "
                "policy instance"
            )
        if (policy_backend == POLICY_BACKEND_HOST) != mounted:
            raise ConfigError(
                f"policy_backend={policy_backend!r} but the pre-built soc "
                f"{'has' if mounted else 'has no'} policy host mounted"
            )
    soc.load_host_program(program)

    simulator = SystemSimulator(soc, mode=sim_mode)
    report = simulator.run(max_cycles=max_cycles)
    gadget_executed = soc.cva6.regs.read(10) == GADGET_MARKER
    return AttackOutcome(
        detected=report.detected,
        violation=report.violation,
        gadget_executed=gadget_executed,
        report=report,
    )
