"""HMAC-SHA256 (RFC 2104) and tag comparison for the RoT policies.

Tags come from the stdlib :mod:`hmac`; their simulated cost is charged
by the accelerator's cycle model (``cycles_per_block``, ``MAC_CYCLES``).
"""

from __future__ import annotations

import hmac as _hmac


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 tag of ``message`` under ``key`` (32 bytes)."""
    return _hmac.digest(key, message, "sha256")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Length-safe constant-time comparison for tag verification."""
    return _hmac.compare_digest(a, b)
