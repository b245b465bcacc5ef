"""Tests for the Equality / Unpredictability metrics (Eq. 1, Eq. 2)."""

from __future__ import annotations

from statistics import pvariance

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.equality import (
    frequency_vector,
    round_robin_probability_variance,
    variance_of_frequency,
    variance_of_probability,
)
from repro.errors import SimulationError

from tests.conftest import keypair


def members(count: int) -> list[bytes]:
    return [keypair(i).public.fingerprint() for i in range(count)]


class TestFrequencyVector:
    def test_perfectly_equal(self):
        m = members(4)
        counts = {addr: 5 for addr in m}
        vec = frequency_vector(counts, m)
        assert np.allclose(vec, 0.25)
        assert variance_of_frequency(counts, m) == pytest.approx(0.0)

    def test_absent_nodes_count_as_zero(self):
        m = members(4)
        counts = {m[0]: 10}
        vec = frequency_vector(counts, m)
        assert vec[0] == 1.0
        assert sum(vec[1:]) == 0.0

    def test_monopoly_variance(self):
        # One node produces everything: Var = (n-1)/n² (same as round robin
        # per-round probability variance).
        m = members(5)
        counts = {m[0]: 100}
        assert variance_of_frequency(counts, m) == pytest.approx(4 / 25)

    def test_external_producers_still_count_toward_delta(self):
        # A removed member's blocks inflate Δ but are not a member slot.
        m = members(2)
        outsider = keypair(7).public.fingerprint()
        counts = {m[0]: 1, m[1]: 1, outsider: 2}
        vec = frequency_vector(counts, m)
        assert np.allclose(vec, [0.25, 0.25])

    def test_empty_member_set_rejected(self):
        with pytest.raises(SimulationError):
            frequency_vector({}, [])

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=8))
    def test_variance_matches_numpy(self, quantities):
        m = members(len(quantities))
        counts = {addr: q for addr, q in zip(m, quantities, strict=True) if q}
        total = sum(quantities)
        expected = float(np.var([q / total for q in quantities])) if total else float(
            np.var(quantities)
        )
        assert variance_of_frequency(counts, m) == pytest.approx(expected)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=600
        )
    )
    def test_pvariance_matches_numpy(self, values):
        """The stdlib ``pvariance`` the metrics use agrees with ``np.var``."""
        assert pvariance(values) == pytest.approx(
            float(np.var(values)), rel=1e-9, abs=1e-12
        )


class TestProbabilityVariance:
    def test_uniform_is_zero(self):
        assert variance_of_probability([0.25] * 4) == pytest.approx(0.0)

    def test_must_sum_to_one(self):
        with pytest.raises(SimulationError):
            variance_of_probability([0.5, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            variance_of_probability([])

    def test_round_robin_closed_form(self):
        # One-hot vector variance equals (n-1)/n².
        n = 10
        one_hot = [1.0] + [0.0] * (n - 1)
        assert variance_of_probability(one_hot) == pytest.approx(
            round_robin_probability_variance(n)
        )

    @given(st.integers(min_value=1, max_value=1000))
    def test_round_robin_formula(self, n):
        assert round_robin_probability_variance(n) == pytest.approx((n - 1) / n**2)

    def test_paper_magnitudes_n100(self):
        """Fig. 5 context: PBFT's per-round σ_p² at n=100 is ~9.9e-3 — the
        value the paper reports as 11× PoW-H and 395× Themis."""
        assert round_robin_probability_variance(100) == pytest.approx(9.9e-3, rel=1e-3)
