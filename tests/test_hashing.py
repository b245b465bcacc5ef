"""Tests for SHA-256 helpers and PoW target arithmetic."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashing import (
    DEFAULT_T0,
    EASY_T0,
    T_MAX,
    hash_to_int,
    meets_target,
    sha256,
    sha256d,
    success_probability,
    target_for_difficulty,
)
from repro.errors import DifficultyError


class TestDigests:
    def test_sha256_matches_hashlib(self):
        assert sha256(b"themis") == hashlib.sha256(b"themis").digest()

    def test_sha256d_is_double(self):
        inner = hashlib.sha256(b"x").digest()
        assert sha256d(b"x") == hashlib.sha256(inner).digest()

    def test_hash_to_int_big_endian(self):
        assert hash_to_int(b"\x00" * 31 + b"\x01") == 1
        assert hash_to_int(b"\x01" + b"\x00" * 31) == 1 << 248


class TestTargets:
    def test_difficulty_one_is_t0(self):
        assert target_for_difficulty(DEFAULT_T0, 1.0) == DEFAULT_T0

    def test_higher_difficulty_smaller_target(self):
        assert target_for_difficulty(DEFAULT_T0, 4.0) < target_for_difficulty(
            DEFAULT_T0, 2.0
        )

    def test_difficulty_below_one_rejected(self):
        with pytest.raises(DifficultyError):
            target_for_difficulty(DEFAULT_T0, 0.5)

    def test_invalid_t0_rejected(self):
        with pytest.raises(DifficultyError):
            target_for_difficulty(0, 1.0)
        with pytest.raises(DifficultyError):
            target_for_difficulty(T_MAX + 1, 1.0)

    def test_target_never_below_one(self):
        assert target_for_difficulty(1, 10.0**9) == 1

    @given(st.floats(min_value=1.0, max_value=1e12))
    def test_round_trip_difficulty(self, difficulty):
        target = target_for_difficulty(DEFAULT_T0, difficulty)
        assert DEFAULT_T0 / target == pytest.approx(difficulty, rel=1e-9)

    def test_success_probability_eq7_left_side(self):
        # (T0/D)/T_max with T0 = T_max and D = 8 -> 1/8.
        assert success_probability(T_MAX, 8.0) == pytest.approx(0.125, rel=1e-9)

    def test_success_probability_decreases_with_difficulty(self):
        assert success_probability(DEFAULT_T0, 2.0) < success_probability(
            DEFAULT_T0, 1.0
        )


class TestMeetsTarget:
    def test_below_target_passes(self):
        digest = b"\x00" * 32
        assert meets_target(digest, 1)
        assert not meets_target(digest, 0)

    def test_easy_t0_sixteenth(self):
        # EASY_T0 accepts digests starting with nibble 0 (strictly below).
        assert meets_target(b"\x0f" + b"\xff" * 30 + b"\xfe", EASY_T0)
        assert not meets_target(b"\x10" + b"\x00" * 31, EASY_T0)
