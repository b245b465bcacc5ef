"""Tests for mining: power profiles, the oracle, the real miner, and the
oracle-vs-miner cross-validation promised in DESIGN.md."""

from __future__ import annotations

import math
import random
from statistics import fmean

import pytest

from repro.chain.block import BLOCK_VERSION, BlockHeader
from repro.crypto.hashing import EASY_T0, T_MAX, success_probability
from repro.crypto.merkle import EMPTY_ROOT
from repro.errors import SimulationError
from repro.mining.miner import RealMiner
from repro.mining.oracle import MiningOracle, win_probabilities
from repro.mining.power import (
    BTC_POOL_RANKING,
    TOTAL_BLOCKS,
    UNKNOWN_BLOCKS,
    pool_distribution_profile,
    top_k_share,
    uniform_profile,
)

from tests.conftest import keypair, ks_one_sample


class TestPowerProfiles:
    def test_fig3_top4_share_matches_footnote2(self):
        """Footnote 2: top-4 pools ≈ 59.17 % of the week's blocks."""
        full = pool_distribution_profile(len(BTC_POOL_RANKING) + UNKNOWN_BLOCKS)
        assert top_k_share(full, 4) == pytest.approx(0.5917, abs=0.005)

    def test_fig3_unknown_share_matches_footnote2(self):
        """Footnote 2: unknown independent miners ≈ 1.68 %."""
        assert UNKNOWN_BLOCKS / TOTAL_BLOCKS == pytest.approx(0.0168, abs=0.002)

    def test_pool_profile_shape(self):
        profile = pool_distribution_profile(100, h0=2.0)
        assert profile.n == 100
        assert profile.powers[0] == 180 * 2.0  # Foundry USA
        assert profile.powers[-1] == 2.0  # independent node at H0

    def test_uniform_profile(self):
        profile = uniform_profile(10, h0=3.0)
        assert profile.variance_of_shares() == pytest.approx(0.0)
        assert profile.total == 30.0

    def test_shares_sum_to_one(self):
        assert math.fsum(pool_distribution_profile(50).shares()) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            pool_distribution_profile(0)
        with pytest.raises(SimulationError):
            uniform_profile(3, h0=0)


class TestOracle:
    def test_solve_rate_formula(self):
        oracle = MiningOracle(random.Random(0), T_MAX)
        # rate = h · (T0/D)/T_max; with T0 = T_max: rate = h/D.
        assert oracle.solve_rate(10.0, 5.0) == pytest.approx(2.0)

    def test_sample_mean_matches_rate(self):
        oracle = MiningOracle(random.Random(1), T_MAX)
        samples = [oracle.sample_solve_time(4.0, 2.0) for _ in range(4000)]
        assert fmean(samples) == pytest.approx(0.5, rel=0.1)

    def test_win_probabilities_eq3(self):
        """p_i = (h_i/m_i)/Σ(h_j/m_j) — multiples equalize the shares."""
        oracle = MiningOracle(random.Random(0), T_MAX)
        hash_rates = [100.0, 1.0]
        # Without adjustment the strong node dominates.
        raw = win_probabilities(oracle, hash_rates, [1.0, 1.0])
        assert raw[0] == pytest.approx(100 / 101)
        # With m_0 = 100 both nodes are equal.
        adjusted = win_probabilities(oracle, hash_rates, [100.0, 1.0])
        assert adjusted[0] == pytest.approx(0.5)

    def test_invalid_inputs(self):
        oracle = MiningOracle(random.Random(0), T_MAX)
        with pytest.raises(SimulationError):
            oracle.solve_rate(0.0, 1.0)

    def test_solve_times_follow_the_exponential_cdf(self):
        """5,000 draws against Exp(rate): KS p-value well above 1 %."""
        oracle = MiningOracle(random.Random(3), T_MAX)
        rate = oracle.solve_rate(4.0, 2.0)
        samples = [oracle.sample_solve_time(4.0, 2.0) for _ in range(5000)]
        assert ks_one_sample(samples, lambda x: 1.0 - math.exp(-rate * x)) > 0.01

    def test_each_draw_takes_one_uniform(self):
        """A solve time is ``-ln(1 - U) / rate`` of the next ``random()``."""
        oracle, reference = MiningOracle(random.Random(9), T_MAX), random.Random(9)
        for _ in range(10):
            assert oracle.sample_solve_time(4.0, 2.0) == -math.log(1.0 - reference.random()) / 2.0


def _header(difficulty: float = 1.0, nonce: int = 0) -> BlockHeader:
    return BlockHeader(
        version=BLOCK_VERSION,
        height=1,
        parent_hash=b"\x07" * 32,
        merkle_root=EMPTY_ROOT,
        timestamp=0.0,
        producer=keypair(0).public.fingerprint(),
        difficulty_multiple=difficulty,
        base_difficulty=1.0,
        epoch=0,
        nonce=nonce,
    )


class TestRealMiner:
    def test_mines_easy_puzzle(self):
        miner = RealMiner(EASY_T0)
        result = miner.mine(_header(), max_attempts=10_000)
        assert result.solved
        assert miner.verify(result.header)

    def test_unsolved_header_fails_verify(self):
        miner = RealMiner(EASY_T0 // 1000)
        header = _header()
        if not miner.verify(header):  # overwhelmingly likely
            result = miner.mine(header, max_attempts=1)
            assert not result.solved or miner.verify(result.header)

    def test_attempt_budget_respected(self):
        miner = RealMiner(1)  # target 1: essentially unsolvable
        result = miner.mine(_header(), max_attempts=50)
        assert not result.solved
        assert result.attempts == 50

    def test_higher_difficulty_more_attempts_on_average(self):
        miner = RealMiner(EASY_T0)
        easy = [
            miner.mine(_header(1.0, nonce=i * 10_000), max_attempts=10_000).attempts
            for i in range(40)
        ]
        hard = [
            miner.mine(_header(8.0, nonce=i * 10_000), max_attempts=100_000).attempts
            for i in range(40)
        ]
        assert fmean(hard) > fmean(easy)

    def test_validation(self):
        with pytest.raises(SimulationError):
            RealMiner(EASY_T0).mine(_header(), max_attempts=0)


class TestOracleMinerCrossValidation:
    """DESIGN.md's substitution check: the oracle samples the distribution
    the hashing loop realizes."""

    def test_empirical_attempts_match_success_probability(self):
        difficulty = 4.0
        miner = RealMiner(EASY_T0)
        p = success_probability(EASY_T0, difficulty)
        attempts = [
            miner.mine(_header(difficulty, nonce=i * 100_000), max_attempts=10**6).attempts
            for i in range(60)
        ]
        mean_attempts = fmean(attempts)
        # Geometric mean 1/p, allow generous sampling slack (60 samples).
        assert mean_attempts == pytest.approx(1.0 / p, rel=0.45)

    def test_oracle_rate_equals_hash_rate_times_p(self):
        oracle = MiningOracle(random.Random(0), EASY_T0)
        difficulty = 4.0
        hash_rate = 7.0
        p = success_probability(EASY_T0, difficulty)
        assert oracle.solve_rate(hash_rate, difficulty) == pytest.approx(hash_rate * p)
