"""Cryptographic accelerators: SHA-256 and HMAC.

OpenTitan's crypto blocks "efficiently execute compute-intensive
security primitives, such as ... hash calculation" (paper §III-B);
TitanCFI uses them to authenticate shadow-stack pages spilled to
untrusted SoC memory (§VI).  Both primitives compute their functional
result with the stdlib (``hashlib``/``hmac``); the simulated cost comes
from the accelerator's cycle model, and the suite pins both against
independent test vectors.
"""

from repro.opentitan.crypto.sha256 import sha256
from repro.opentitan.crypto.hmac import hmac_sha256
from repro.opentitan.crypto.accel import HmacAccelerator

__all__ = ["sha256", "hmac_sha256", "HmacAccelerator"]
