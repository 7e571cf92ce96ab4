"""SHA-256 (FIPS 180-4), the functional half of the HMAC block's hash.

The digest comes from :mod:`hashlib`; what the simulated RoT pays for
a hash comes from the accelerator's cycle model in
:mod:`repro.opentitan.crypto.accel`, not from this function.
"""

from __future__ import annotations

import hashlib


def sha256(message: bytes) -> bytes:
    """SHA-256 digest of ``message`` (32 bytes)."""
    return hashlib.sha256(message).digest()
