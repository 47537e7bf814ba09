"""Randomization mechanisms: support, uniformity, stratified counts."""
from collections import Counter

import numpy as np
import pytest

from fixtures import IntegersOnly, all_assignments
from netrand.assignment import (CompleteRandomization, StratifiedComplete, threshold_draw,
                                uint32_keys)
from netrand.errors import InfeasibleCounts

# chi-square 0.999 quantiles for the degrees of freedom used below
CHI2_999 = {2: 13.816, 3: 16.266, 5: 20.515}


class TestCompleteRandomization:
    def test_draws_have_fixed_treated_count(self):
        mech = CompleteRandomization(20, 7)
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = mech.draw(rng)
            assert int(t.sum()) == 7 and set(np.unique(t)) <= {0, 1}

    def test_supports(self):
        mech = CompleteRandomization(4, 2)
        assert mech.supports(np.array([1, 1, 0, 0]))
        assert mech.supports(np.array([0, 1, 0, 1]))
        assert not mech.supports(np.array([1, 1, 1, 0]))
        assert not mech.supports(np.array([1, 2, 0, 0]))
        assert not mech.supports(np.array([1, 1, 0]))

    def test_every_supported_vector_is_enumerated(self):
        mech = CompleteRandomization(4, 2)
        vecs = list(all_assignments(4, 2))
        assert len(vecs) == 6
        assert all(mech.supports(np.array(v)) for v in vecs)

    def test_uniform_over_support(self):
        # 6000 draws over the 6 vectors of a 4-choose-2 design:
        # chi-square with 5 degrees of freedom, 0.999 critical value
        mech = CompleteRandomization(4, 2)
        rng = np.random.default_rng(42)
        counts = Counter(tuple(mech.draw(rng).tolist()) for _ in range(6000))
        assert set(counts) == set(all_assignments(4, 2))
        expected = 6000 / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_999[5]

    def test_batch_uniform_over_support(self):
        mech = CompleteRandomization(4, 2)
        rng = np.random.default_rng(7)
        batch = mech.draw_batch(6000, rng)
        assert batch.shape == (6000, 4)
        assert (batch.sum(axis=1) == 2).all()
        counts = Counter(map(tuple, batch.tolist()))
        expected = 6000 / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_999[5]

    def test_marginal_treatment_probability(self):
        mech = CompleteRandomization(10, 5)
        rng = np.random.default_rng(3)
        batch = mech.draw_batch(4000, rng)
        marg = batch.mean(axis=0)
        se = np.sqrt(0.25 / 4000)
        assert (np.abs(marg - 0.5) < 4 * se).all()

    def test_infeasible_count_rejected(self):
        with pytest.raises(InfeasibleCounts):
            CompleteRandomization(4, 5)
        with pytest.raises(InfeasibleCounts):
            CompleteRandomization(4, -1)


class TestStratifiedComplete:
    def test_counts_respected_per_stratum(self):
        strata = np.array(["a", "a", "a", "b", "b"], dtype=object)
        mech = StratifiedComplete(strata, {"a": 2, "b": 1})
        rng = np.random.default_rng(0)
        for _ in range(30):
            t = mech.draw(rng)
            assert int(t[:3].sum()) == 2 and int(t[3:].sum()) == 1

    def test_supports_checks_every_stratum(self):
        strata = np.array(["a", "a", "b", "b"], dtype=object)
        mech = StratifiedComplete(strata, {"a": 1, "b": 1})
        assert mech.supports(np.array([1, 0, 0, 1]))
        assert not mech.supports(np.array([1, 1, 0, 0]))

    def test_uniform_over_stratified_support(self):
        # 2 strata x 2 choices each = 4 vectors, df = 3
        strata = np.array(["a", "a", "b", "b"], dtype=object)
        mech = StratifiedComplete(strata, {"a": 1, "b": 1})
        rng = np.random.default_rng(5)
        batch = mech.draw_batch(4000, rng)
        counts = Counter(map(tuple, batch.tolist()))
        assert len(counts) == 4
        expected = 4000 / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_999[3]

    def test_missing_stratum_count_rejected(self):
        strata = np.array(["a", "b"], dtype=object)
        with pytest.raises(InfeasibleCounts):
            StratifiedComplete(strata, {"a": 1})

    def test_unknown_stratum_count_rejected(self):
        strata = np.array(["a", "a"], dtype=object)
        with pytest.raises(InfeasibleCounts):
            StratifiedComplete(strata, {"a": 1, "zzz": 1})

    def test_oversized_count_rejected(self):
        strata = np.array(["a", "a"], dtype=object)
        with pytest.raises(InfeasibleCounts):
            StratifiedComplete(strata, {"a": 3})


class _TinyKeyRng:
    """A generator whose integers come from {0, 1, 2}, so threshold keys
    tie at the threshold on many rows and those rows are redrawn."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, low, high=None, size=None, dtype=np.int64):
        self.calls += 1
        return self._rng.integers(0, 3, size=size, dtype=dtype)


class TestThresholdDraw:
    @pytest.mark.parametrize("m,n,k", [(5, 6, 0), (5, 6, 6), (4, 1, 0), (4, 1, 1),
                                       (0, 6, 3), (0, 1, 1), (3, 0, 0)])
    def test_edge_cases(self, m, n, k):
        t = threshold_draw(m, n, k, np.random.default_rng(0))
        assert t.shape == (m, n) and t.dtype == np.int8
        assert (t.sum(axis=1) == k).all() and set(np.unique(t)) <= {0, 1}

    def test_degenerate_mechanisms(self):
        rng = np.random.default_rng(1)
        for n_units, k in ((1, 0), (1, 1), (5, 0), (5, 5)):
            batch = CompleteRandomization(n_units, k).draw_batch(7, rng)
            assert batch.tolist() == [[int(k > 0)] * n_units] * 7
        assert CompleteRandomization(6, 3).draw_batch(0, rng).shape == (0, 6)

    def test_stratum_at_zero_and_stratum_at_full_size(self):
        strata = np.array(["a", "b", "a", "c", "b", "c", "c"], dtype=object)
        mech = StratifiedComplete(strata, {"a": 0, "b": 2, "c": 1})
        batch = mech.draw_batch(3000, np.random.default_rng(2))
        assert (batch[:, strata == "a"] == 0).all()
        assert (batch[:, strata == "b"] == 1).all()
        c = batch[:, strata == "c"]
        assert (c.sum(axis=1) == 1).all()
        # the one treated unit of stratum c is uniform over its three
        counts = c.sum(axis=0)
        assert ((counts - 1000) ** 2 / 1000).sum() < CHI2_999[2]
        assert all(mech.supports(row) for row in batch[:50])

    def test_forced_ties_are_redrawn_and_stay_uniform(self):
        rng = _TinyKeyRng(7)
        batch = threshold_draw(6000, 4, 2, rng)
        assert rng.calls > 1  # tied rows were redrawn
        assert (batch.sum(axis=1) == 2).all()
        counts = Counter(map(tuple, batch.tolist()))
        assert set(counts) == set(all_assignments(4, 2))
        expected = 6000 / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_999[5]


def _state(rng):
    """The generator's state with arrays as lists, less the ``uinteger``
    it ignores while ``has_uint32`` is 0."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    st = plain(rng.bit_generator.state)
    if not st.get("has_uint32"):
        st.pop("uinteger", None)
    return st


class TestUint32Keys:
    """Raw-word keys against ``rng.integers(0, 2**32, size, np.uint32)``:
    the same keys and the same generator state afterwards."""

    def _same(self, make, shapes, before=()):
        fast, slow = make(), make()
        for rng in (fast, slow):
            for size in before:  # draws that leave a half pending or not
                rng.integers(0, 1 << 32, size=size, dtype=np.uint32)
        for shape in shapes:
            got = uint32_keys(fast, shape)
            want = slow.integers(0, 1 << 32, size=shape, dtype=np.uint32)
            assert got.dtype == np.uint32 and got.shape == shape
            assert np.array_equal(got, want)
            assert _state(fast) == _state(slow)
        # the streams stay in step after the keys
        assert np.array_equal(fast.integers(0, 1 << 32, 5, np.uint32),
                              slow.integers(0, 1 << 32, 5, np.uint32))
        assert fast.random() == slow.random()

    def test_fresh_pcg64(self):
        self._same(lambda: np.random.default_rng(0), [(2, 3), (1, 2), (81, 800), (4, 1)])

    def test_pcg64_with_a_pending_half(self):
        make = lambda: np.random.default_rng(1)
        assert _state(make())["has_uint32"] == 0
        probe = make()
        probe.integers(0, 1 << 32, size=3, dtype=np.uint32)
        assert _state(probe)["has_uint32"] == 1  # an odd-size draw leaves a half pending
        self._same(make, [(2, 3), (4, 4), (1, 1), (2, 2)], before=[3])
        self._same(make, [(2, 3)], before=[3, 5])  # pending flag cleared again

    def test_odd_key_counts(self):
        self._same(lambda: np.random.default_rng(2), [(3, 3), (1, 1), (2, 2), (5, 7), (2, 4)])

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_other_bit_generators(self, bitgen):
        self._same(lambda: np.random.Generator(bitgen(3)), [(2, 3), (3, 3), (81, 800)])

    def test_duck_typed_rng(self):
        fast, slow = _TinyKeyRng(4), _TinyKeyRng(4)
        got = uint32_keys(fast, (6, 5))
        assert np.array_equal(got, slow.integers(0, 1 << 32, size=(6, 5), dtype=np.uint32))
        assert fast.calls == 1 and set(np.unique(got)) <= {0, 1, 2}

    @pytest.mark.parametrize("m,n,k", [(7, 9, 4), (1000, 801, 400), (300, 400, 200)])
    def test_threshold_draws_match_integer_keys(self, m, n, k):
        # odd n with odd block sizes and tie redraws switch between raw
        # words and the call; every row and the final state must match
        fast, slow = np.random.default_rng(m), np.random.default_rng(m)
        assert np.array_equal(threshold_draw(m, n, k, fast),
                              threshold_draw(m, n, k, IntegersOnly(slow)))
        assert _state(fast) == _state(slow)
