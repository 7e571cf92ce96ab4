"""Memory-mapped HMAC accelerator device (OpenTitan ``hmac`` block).

Register map (byte offsets; all registers 32-bit):

    0x00  CMD      write: 1 = start SHA-256, 2 = start HMAC
    0x04  STATUS   read-only: bit0 = done
    0x08  MSG_LEN  message length in bytes (set before CMD)
    0x20  KEY      8 words (write-only key material)
    0x40  DIGEST   8 words (read-only result)
    0x80  MSG      streaming window (sequential word writes append)

The functional result comes from the stdlib (``hashlib``/``hmac``); the
simulated cost comes only from the cycle model (``cycles_per_block`` ×
SHA-256 blocks processed), exposed through :attr:`busy_cycles` for the
spill-path analysis — the real block hashes one 512-bit block in ~80
cycles.  An access must lie wholly inside one register or window;
anything that runs past its end raises :class:`AccessFault`.
"""

from __future__ import annotations

from repro.errors import AccessFault
from repro.opentitan.crypto.hmac import hmac_sha256
from repro.opentitan.crypto.sha256 import sha256

CMD_OFFSET = 0x00
STATUS_OFFSET = 0x04
MSG_LEN_OFFSET = 0x08
KEY_OFFSET = 0x20
DIGEST_OFFSET = 0x40
MSG_OFFSET = 0x80

KEY_BYTES = 32
DIGEST_BYTES = 32
MSG_WINDOW_BYTES = 0x80
REGISTER_BYTES = 4

CMD_SHA256 = 1
CMD_HMAC = 2


def _register(offset: int, size: int, base: int) -> bool:
    """Whether the access is to the 32-bit register at ``base``."""
    return offset == base and size <= REGISTER_BYTES


def _inside(offset: int, size: int, base: int, length: int) -> bool:
    """Whether ``[offset, offset + size)`` lies in ``[base, base + length)``."""
    return base <= offset and offset + size <= base + length


class HmacAccelerator:
    """Device-protocol HMAC/SHA-256 engine."""

    size = 0x100

    def __init__(self, cycles_per_block: int = 80):
        self.cycles_per_block = cycles_per_block
        self.busy_cycles = 0
        self.operations = 0
        self._key = bytearray(KEY_BYTES)
        self._digest = bytes(DIGEST_BYTES)
        self._message = bytearray()
        self._msg_len = 0
        self._done = False

    # -- device protocol -----------------------------------------------------

    def read(self, offset: int, size: int) -> int:
        if _register(offset, size, STATUS_OFFSET):
            return int(self._done)
        if _inside(offset, size, DIGEST_OFFSET, DIGEST_BYTES):
            index = offset - DIGEST_OFFSET
            return int.from_bytes(self._digest[index : index + size], "little")
        if _register(offset, size, MSG_LEN_OFFSET):
            return self._msg_len
        raise AccessFault(offset, "read", f"hmac: no readable register at {offset:#x}+{size}")

    def write(self, offset: int, size: int, value: int) -> None:
        data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        if _register(offset, size, CMD_OFFSET):
            self._execute(value)
            return
        if _register(offset, size, MSG_LEN_OFFSET):
            self._msg_len = value
            return
        if _inside(offset, size, KEY_OFFSET, KEY_BYTES):
            index = offset - KEY_OFFSET
            self._key[index : index + size] = data
            return
        if _inside(offset, size, MSG_OFFSET, MSG_WINDOW_BYTES):
            self._message += data
            self._done = False
            return
        raise AccessFault(offset, "write", f"hmac: no writable register at {offset:#x}+{size}")

    # -- functional model -------------------------------------------------------

    def _execute(self, command: int) -> None:
        message = bytes(self._message[: self._msg_len or len(self._message)])
        if command == CMD_SHA256:
            self._digest = sha256(message)
        elif command == CMD_HMAC:
            self._digest = hmac_sha256(bytes(self._key), message)
        else:
            raise AccessFault(CMD_OFFSET, "write", f"hmac: unknown command {command}")
        self._charge(message, command == CMD_HMAC)
        self._message.clear()
        self._done = True

    def _charge(self, message: bytes, mac: bool) -> None:
        """The cycle model: one ``cycles_per_block`` per 64-byte block of
        ``message``, plus three blocks (key pads + outer hash) for a MAC."""
        blocks = max(1, (len(message) + 63) // 64) + (3 if mac else 0)
        self.busy_cycles += blocks * self.cycles_per_block
        self.operations += 1

    # -- direct (host-level) API ---------------------------------------------------

    def compute_hmac(self, key: bytes, message: bytes) -> bytes:
        """Python-level HMAC for policy models; charges the same cycles."""
        self._charge(message, mac=True)
        return hmac_sha256(key, message)
