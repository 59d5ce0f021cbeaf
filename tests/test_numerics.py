import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgcl.numerics import RandomStream, _average_ranks, spearman_rank_corr
from rgcl.oracle import _log_sum_exp as log_sum_exp, _softmax_shifted as softmax_shifted

finite_floats = st.floats(
    min_value=-300.0, max_value=300.0, allow_nan=False, allow_infinity=False
)


class TestLogSumExp:
    def test_identical_entries(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_singleton(self):
        for x in (-3.5, 0.0, 17.0):
            assert log_sum_exp([x]) == pytest.approx(x, abs=1e-15)

    def test_large_spread(self):
        # 400 + log(1 + e^-400); the second term underflows to 0 in float64
        assert abs(log_sum_exp([400.0, 0.0]) - 400.0) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    @settings(deadline=None)
    def test_at_least_max(self, values):
        assert log_sum_exp(values) >= max(values) - 1e-12

    @given(st.lists(finite_floats, min_size=1, max_size=20), finite_floats)
    @settings(deadline=None)
    def test_shift_identity(self, values, c):
        shifted = log_sum_exp(np.asarray(values) + c)
        assert shifted == pytest.approx(log_sum_exp(values) + c, rel=1e-9, abs=1e-9)


class TestSoftmaxShifted:
    def test_constant_input(self):
        np.testing.assert_allclose(softmax_shifted([5.0, 5.0, 5.0]), np.ones(3) / 3, atol=1e-15)

    def test_two_point_value(self):
        p = softmax_shifted([0.0, -1.0])
        assert p[0] == pytest.approx(0.7311, abs=1e-4)
        assert p[1] == pytest.approx(0.2689, abs=1e-4)

    def test_shift_invariance(self):
        np.testing.assert_array_equal(softmax_shifted([0.0, -1.0]), softmax_shifted([5.0, 4.0]))

    def test_no_overflow(self):
        p = softmax_shifted([800.0, 0.0])
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    @settings(deadline=None)
    def test_simplex(self, values):
        p = softmax_shifted(values)
        assert np.all(p >= 0)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-12)


class TestSpearman:
    def test_monotone_increasing(self):
        assert spearman_rank_corr([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        assert spearman_rank_corr([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_ranked_value(self):
        # ranks a = 1,2,3,4 vs b = 2,1,4,3: rho = 1 - 6*4/(4*15) = 0.6
        assert spearman_rank_corr([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_ties_average_ranks(self):
        # ties in a share rank 1.5; result must match scipy's convention
        scipy_stats = pytest.importorskip("scipy.stats")
        a = [1.0, 1.0, 2.0, 3.0]
        b = [4.0, 2.0, 5.0, 9.0]
        expected = scipy_stats.spearmanr(a, b).statistic
        assert spearman_rank_corr(a, b) == pytest.approx(expected, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            spearman_rank_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            spearman_rank_corr([1.0, 2.0], [2.0, 1.0])

    @staticmethod
    def loop_ranks(x):
        """The tie loop _average_ranks replaced, kept as the reference."""
        order = np.argsort(x, kind="stable")
        ranks = np.empty(len(x), dtype=np.float64)
        i = 0
        while i < len(x):
            j = i
            while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
                j += 1
            avg = 0.5 * (i + j) + 1.0
            for k in range(i, j + 1):
                ranks[order[k]] = avg
            i = j + 1
        return ranks

    def test_ranks_match_tie_loop(self):
        rng = np.random.default_rng(0)
        for size, high in [(3, 1), (7, 2), (50, 3), (200, 10), (1000, 40), (999, 1000)]:
            x = rng.integers(0, high, size).astype(np.float64)
            np.testing.assert_array_equal(_average_ranks(x), self.loop_ranks(x))
            y = rng.integers(0, high, size).astype(np.float64)
            if np.ptp(x) > 0 and np.ptp(y) > 0:
                ra, rb = self.loop_ranks(x), self.loop_ranks(y)
                ra -= ra.mean()
                rb -= rb.mean()
                want = float(np.sum(ra * rb) / np.sqrt(np.sum(ra * ra) * np.sum(rb * rb)))
                assert spearman_rank_corr(x, y) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            spearman_rank_corr([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            spearman_rank_corr([1.0, 2.0, 3.0], [bad, 2.0, 3.0])

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=15))
    @settings(deadline=None)
    def test_bounded(self, b):
        a = list(range(len(b)))
        if len(set(b)) < 2:
            return
        r = spearman_rank_corr(a, b)
        assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


class TestRandomStream:
    def test_same_seed_identical(self):
        a = RandomStream(7, ("x",)).normal(100)
        b = RandomStream(7, ("x",)).normal(100)
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        draws = RandomStream(0, ("moments",)).normal(100000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_seed_sensitivity(self):
        a = RandomStream(1).normal(10)
        b = RandomStream(2).normal(10)
        assert np.all(a != b)

    def test_split_independent_of_parent_draws(self):
        parent = RandomStream(3, ("p",))
        child_before = parent.split("c").normal(5)
        parent.normal(50)  # advancing the parent must not affect the child
        child_after = parent.split("c").normal(5)
        np.testing.assert_array_equal(child_before, child_after)

    def test_distinct_paths_differ(self):
        a = RandomStream(3, ("p",)).split("a").normal(10)
        b = RandomStream(3, ("p",)).split("b").normal(10)
        assert np.any(a != b)

    def test_choice_without_replacement(self):
        picked = RandomStream(0).choice_without_replacement(10, 10)
        assert sorted(picked.tolist()) == list(range(10))
        with pytest.raises(ValueError):
            RandomStream(0).choice_without_replacement(5, 6)

    def test_sequence_contract_pinned(self):
        # (seed, path) -> sequence is a stored-artifact contract: these are
        # the draws every earlier release produced
        s = RandomStream(7, ("x",))
        assert s.split("a").normal(3).tolist() == [
            -0.34122217882673894, -0.9996372011916617, -1.4704222998182679]
        assert s.uniform(2).tolist() == [0.41248182325444405, 0.33126025851423013]
        assert RandomStream(0).choice_without_replacement(10, 4).tolist() == [1, 8, 9, 3]

    @pytest.mark.parametrize("seed, path", [(0, ()), (7, ("x",)), (-3, ("train", "12", "aug-a")), (2**62, ("indices",))])
    def test_generator_equals_philox_from_key(self, seed, path):
        # the stream's generator has the state and the draws of
        # Philox(key=k), k the little-endian head of the path's sha256
        material = ("%d/" % seed + "/".join(path)).encode()
        want = np.random.Generator(np.random.Philox(key=int.from_bytes(hashlib.sha256(material).digest()[:16], "little")))
        got = RandomStream(seed, path)._gen
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        np.testing.assert_array_equal(got.standard_normal(5), want.standard_normal(5))
        np.testing.assert_array_equal(got.choice(50, size=7, replace=False), want.choice(50, size=7, replace=False))
        np.testing.assert_array_equal(got.random(3), want.random(3))
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)

    def test_draw_gaussian(self):
        # standard-normal draws of the requested shape; each draw advances
        # the stream
        s = RandomStream(0, ("g",))
        first = s.normal(4)
        assert first.shape == (4,)
        assert np.all(s.normal(4) != first)
