"""Crypto tests: SHA-256/HMAC against independent vectors + accel device."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AccessFault
from repro.opentitan.crypto.accel import (
    CMD_HMAC,
    CMD_OFFSET,
    CMD_SHA256,
    DIGEST_OFFSET,
    KEY_OFFSET,
    MSG_LEN_OFFSET,
    MSG_OFFSET,
    STATUS_OFFSET,
    HmacAccelerator,
)
from repro.opentitan.crypto.hmac import constant_time_equal, hmac_sha256
from repro.opentitan.crypto.sha256 import sha256


class TestSha256Vectors:
    """FIPS 180-4 test vectors."""

    def test_empty(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha256(message).hex() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    def test_exactly_one_block(self):
        message = b"a" * 64
        assert sha256(message) == hashlib.sha256(message).digest()

    @given(st.binary(max_size=300))
    @settings(max_examples=50)
    def test_matches_hashlib(self, message):
        assert sha256(message) == hashlib.sha256(message).digest()


class TestHmacVectors:
    def test_rfc4231_case1(self):
        key = b"\x0b" * 20
        tag = hmac_sha256(key, b"Hi There")
        assert tag.hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    def test_rfc4231_case2(self):
        tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert tag.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_long_key_hashed(self):
        key = b"k" * 100  # > block size
        message = b"data"
        assert hmac_sha256(key, message) == stdlib_hmac.new(
            key, message, hashlib.sha256
        ).digest()

    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=200))
    @settings(max_examples=50)
    def test_matches_stdlib(self, key, message):
        assert hmac_sha256(key, message) == stdlib_hmac.new(
            key, message, hashlib.sha256
        ).digest()


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"abc", b"abc")

    def test_unequal(self):
        assert not constant_time_equal(b"abc", b"abd")

    def test_length_mismatch(self):
        assert not constant_time_equal(b"abc", b"abcd")


def _stream(accel, message):
    accel.write(MSG_LEN_OFFSET, 4, len(message))
    padded = message + bytes(-len(message) % 4)
    for i in range(0, len(padded), 4):
        accel.write(MSG_OFFSET, 4, int.from_bytes(padded[i:i + 4], "little"))


def _digest(accel):
    return b"".join(
        accel.read(DIGEST_OFFSET + i, 4).to_bytes(4, "little") for i in range(0, 32, 4)
    )


class TestAcceleratorDevice:
    def test_sha256_via_registers(self):
        accel = HmacAccelerator()
        _stream(accel, b"abc")
        accel.write(CMD_OFFSET, 4, CMD_SHA256)
        assert accel.read(STATUS_OFFSET, 4) == 1
        assert _digest(accel) == sha256(b"abc")

    def test_hmac_via_registers(self):
        accel = HmacAccelerator()
        key = bytes(range(32))
        for i in range(0, 32, 4):
            accel.write(KEY_OFFSET + i, 4, int.from_bytes(key[i:i + 4], "little"))
        _stream(accel, b"msg!")
        accel.write(CMD_OFFSET, 4, CMD_HMAC)
        assert _digest(accel) == hmac_sha256(key, b"msg!")

    def test_cycle_cost_scales_with_blocks(self):
        accel = HmacAccelerator(cycles_per_block=80)
        _stream(accel, b"x" * 64)
        accel.write(CMD_OFFSET, 4, CMD_SHA256)
        one_block = accel.busy_cycles
        _stream(accel, b"x" * 640)
        accel.write(CMD_OFFSET, 4, CMD_SHA256)
        assert accel.busy_cycles - one_block > one_block

    def test_operations_counter(self):
        accel = HmacAccelerator()
        accel.compute_hmac(b"key", b"message")
        assert accel.operations == 1


class TestAcceleratorCycleAccounting:
    """The modelled cost, pinned exactly: 80 cycles per 64-byte block,
    plus three blocks (key pads and outer hash) for an HMAC."""

    @pytest.mark.parametrize("length, cycles", [(3, 80), (64, 80), (65, 160)])
    def test_sha256_command(self, length, cycles):
        accel = HmacAccelerator()
        _stream(accel, b"m" * length)
        accel.write(CMD_OFFSET, 4, CMD_SHA256)
        assert (accel.busy_cycles, accel.operations) == (cycles, 1)

    def test_hmac_command(self):
        accel = HmacAccelerator()
        _stream(accel, b"m" * 65)
        accel.write(CMD_OFFSET, 4, CMD_HMAC)
        assert (accel.busy_cycles, accel.operations) == ((2 + 3) * 80, 1)

    def test_compute_hmac_on_a_record(self):
        accel = HmacAccelerator()
        accel.compute_hmac(b"k" * 32, bytes(16))
        assert (accel.busy_cycles, accel.operations) == (320, 1)
        accel.compute_hmac(b"k" * 32, bytes(16))
        assert (accel.busy_cycles, accel.operations) == (640, 2)


class TestAcceleratorRegisterWindows:
    """An access must end inside the register or window it starts in."""

    def test_key_write_past_the_key_faults(self):
        accel = HmacAccelerator()
        with pytest.raises(AccessFault):
            accel.write(KEY_OFFSET + 30, 4, 0xFFFFFFFF)
        _stream(accel, b"msg!")
        accel.write(CMD_OFFSET, 4, CMD_HMAC)
        assert _digest(accel) == hmac_sha256(bytes(32), b"msg!")

    @pytest.mark.parametrize("offset, size", [
        (DIGEST_OFFSET + 30, 4), (DIGEST_OFFSET + 31, 2), (DIGEST_OFFSET + 32, 1),
    ])
    def test_digest_read_past_the_digest_faults(self, offset, size):
        accel = HmacAccelerator()
        with pytest.raises(AccessFault):
            accel.read(offset, size)

    @pytest.mark.parametrize("offset, size", [(0xFE, 4), (0xFD, 4), (0xFF, 2)])
    def test_msg_write_past_the_device_faults(self, offset, size):
        accel = HmacAccelerator()
        with pytest.raises(AccessFault):
            accel.write(offset, size, 0)

    def test_last_msg_word_is_writable(self):
        accel = HmacAccelerator()
        accel.write(0xFC, 4, int.from_bytes(b"abc!", "little"))
        accel.write(MSG_LEN_OFFSET, 4, 3)
        accel.write(CMD_OFFSET, 4, CMD_SHA256)
        assert _digest(accel) == sha256(b"abc")

    @given(st.integers(0, HmacAccelerator.size - 1), st.sampled_from([1, 2, 4, 8]),
           st.booleans())
    @settings(max_examples=200)
    def test_every_access_fits_or_faults(self, offset, size, write):
        """Over the whole device: an access either faults or lies wholly
        inside one register or window, and the key stays 32 bytes."""
        windows = [(STATUS_OFFSET, 4, False), (MSG_LEN_OFFSET, 4, None),
                   (CMD_OFFSET, 4, True), (KEY_OFFSET, 32, True),
                   (DIGEST_OFFSET, 32, False), (MSG_OFFSET, 0x80, True)]
        accel = HmacAccelerator()
        try:
            if write:
                accel.write(offset, size, 0)  # 0 is no command at CMD
            else:
                accel.read(offset, size)
        except AccessFault:
            return
        assert any(
            base <= offset and offset + size <= base + length
            and (writable is None or writable == write)
            for base, length, writable in windows
        ), (offset, size, write)
        assert len(accel._key) == 32
