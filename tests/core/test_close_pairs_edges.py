"""Regression tests for ``count_close_pairs`` float-boundary and non-finite
edges.

The vectorized implementation replaces the reference two-pointer sweep with
a searchsorted-plus-boundary-correction scheme; these tests pin the exact
edges that scheme has to get right: NaN inputs (pairs with nothing), ±inf
runs (equal infinities are distance 0), long duplicate runs (the whole-run
boundary-correction loops), values spaced exactly at the tolerance, and
adversarial float-boundary spacings where ``v − tol`` rounds.  Every case is
checked against the loop reference *and* an O(n²) brute force evaluating
the definitional predicate.
"""

import numpy as np
import pytest

from repro.core.uniqueness import _count_close_pairs_loop, count_close_pairs


def brute_force(values: np.ndarray, tolerance: float) -> int:
    """Definitional count: pairs i<j with |v_j − v_i| ≤ tol, NaN never close,
    equal values (infinities included) always close."""
    v = np.asarray(values, dtype=np.float64)
    v = np.sort(v[~np.isnan(v)])
    count = 0
    with np.errstate(invalid="ignore"):
        for j in range(v.size):
            for i in range(j):
                if v[j] == v[i] or v[j] - v[i] <= tolerance:
                    count += 1
    return count


def _check(values, tolerance):
    values = np.asarray(values, dtype=np.float64)
    fast = count_close_pairs(values, tolerance)
    loop = _count_close_pairs_loop(values, tolerance)
    brute = brute_force(values, tolerance)
    assert fast == loop == brute, (
        f"fast={fast} loop={loop} brute={brute} for tol={tolerance}, "
        f"values={values!r}"
    )
    return fast


class TestNaN:
    def test_nan_pairs_with_nothing(self):
        assert _check([0.1, np.nan, 0.1 + 5e-6, np.nan, 5.0], 1e-5) == 1

    def test_all_nan_counts_zero(self):
        assert _check([np.nan] * 6, 1e-5) == 0
        assert _check([np.nan] * 6, 0.0) == 0

    def test_nan_does_not_shift_finite_counts(self):
        finite = [0.0, 1e-6, 2e-6, 0.5]
        with_nans = finite + [np.nan, np.nan]
        assert _check(with_nans, 1e-5) == _check(finite, 1e-5)

    def test_single_value_plus_nans(self):
        assert _check([np.nan, 3.0, np.nan], 1e-5) == 0


class TestInf:
    def test_equal_infinities_are_close(self):
        # inf − inf is NaN, but identical values are distance 0 by definition.
        assert _check([np.inf, np.inf, np.inf], 1e-5) == 3
        assert _check([-np.inf, -np.inf], 1e-5) == 1

    def test_inf_never_close_to_finite(self):
        assert _check([np.inf, 1.0, 1.0 + 1e-6, -np.inf], 1e-5) == 1

    def test_mixed_inf_runs_and_nan(self):
        values = [np.inf, np.inf, -np.inf, -np.inf, -np.inf, np.nan, 0.0]
        # C(2,2)=1 at +inf, C(3,2)=3 at −inf, NaN and 0.0 pair with nothing.
        assert _check(values, 1e-5) == 4

    def test_huge_finite_spread_overflows_to_inf_difference(self):
        # v_j − v_i overflows to +inf: must count as not-close, not crash.
        # The overflow is the point of the test, so its warning is expected.
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert _check([-1e308, 1e308], 1e-5) == 0


class TestDuplicateRuns:
    """Long runs of equal values drive the whole-run correction loops."""

    @pytest.mark.parametrize("run", [2, 3, 17, 64])
    def test_single_run(self, run):
        assert _check([0.25] * run, 0.0) == run * (run - 1) // 2

    def test_runs_separated_by_exactly_tolerance(self):
        tol = 1e-5
        values = [0.0] * 5 + [tol] * 4 + [2 * tol] * 3
        _check(values, tol)

    def test_zero_tolerance_with_duplicates(self):
        values = [0.1, 0.1, 0.1, 0.2, 0.2, 0.3]
        assert _check(values, 0.0) == 3 + 1

    def test_runs_straddling_the_boundary(self):
        tol = 1e-3
        values = np.repeat([0.0, tol * 0.999999, tol * 1.000001], 20)
        _check(values, tol)


class TestFloatBoundary:
    """Spacings where ``v − tol`` rounds off the loop's predicate."""

    def test_values_spaced_exactly_at_tolerance(self):
        tol = 1e-5
        _check(0.1 + np.arange(50) * tol, tol)

    def test_boundary_rounding_near_one(self):
        # Around 1.0 the ulp (2^-52) is comparable to a tiny tolerance, so
        # 1.0 + k·tol − tol rounds away from 1.0 + (k−1)·tol.
        tol = 2.0**-51
        values = 1.0 + np.arange(30) * tol
        _check(values, tol)

    def test_irrational_spacings(self):
        tol = 1e-7
        values = 0.1 + np.sqrt(np.arange(40)) * (tol / 3.0)
        _check(values, tol)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_quantized_near_boundary(self, seed):
        rng = np.random.default_rng(seed)
        tol = 10.0 ** rng.integers(-8, -3)
        # Quantize to multiples of tol/2 so many diffs land exactly on the
        # predicate boundary; mix in duplicates.
        base = rng.integers(0, 30, size=120) * (tol / 2.0)
        _check(base, tol)

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_uniform(self, seed):
        rng = np.random.default_rng(100 + seed)
        _check(rng.uniform(0.9, 1.1, size=200), 1e-4)


class TestInfiniteTolerance:
    def test_all_pairs_close_under_inf_tolerance(self):
        values = [1.0, 2.0, np.inf, np.inf, -np.inf]
        fast = count_close_pairs(np.array(values), np.inf)
        loop = _count_close_pairs_loop(np.array(values), np.inf)
        assert fast == loop == 5 * 4 // 2

    def test_inf_tolerance_with_nans(self):
        values = np.array([np.nan, 0.5, np.inf, np.nan])
        assert count_close_pairs(values, np.inf) == 1  # NaNs still drop


class TestValidation:
    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            count_close_pairs(np.array([1.0]), -1e-9)
        with pytest.raises(ValueError):
            _count_close_pairs_loop(np.array([1.0]), -1e-9)

    def test_empty_and_singleton(self):
        assert count_close_pairs(np.array([]), 1e-5) == 0
        assert count_close_pairs(np.array([4.2]), 1e-5) == 0


class TestAuditIntegration:
    def test_audit_survives_nan_multiplier(self):
        """A diverged (NaN) multiplier must not crash or skew the A.4 audit."""
        from repro.core.memcom import MEmComEmbedding
        from repro.core.uniqueness import audit_uniqueness

        emb = MEmComEmbedding(24, 4, num_hash_embeddings=6, rng=0,
                              multiplier_init="uniform")
        emb.multiplier.data[3, 0] = np.nan
        report = audit_uniqueness(emb, tolerance=1e-5)
        assert report.total_pairs > 0
        assert 0.0 <= report.fraction_distinct <= 1.0
