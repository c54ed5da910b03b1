"""Dirichlet-multinomial math: predictives, evidence, gradient, MAP fitting."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapmerge import dirichlet


def rng(seed=0):
    return np.random.default_rng(seed)


class TestCounts:
    def test_new_counts_zero(self):
        f = dirichlet.new_counts(3)
        assert f.shape == (3, 3)
        assert f.sum() == 0

    def test_increment_target_cell(self):
        f = dirichlet.new_counts(2)
        dirichlet.increment(f, j=0, i=1)
        assert f[1, 0] == 1
        assert f.sum() == 1

    def test_increment_twice(self):
        f = dirichlet.new_counts(2)
        dirichlet.increment(f, 0, 1)
        dirichlet.increment(f, 0, 1)
        assert f[1, 0] == 2

    def test_column_sum_grows_by_one(self):
        f = dirichlet.new_counts(4)
        before = f[:, 2].sum()
        dirichlet.increment(f, 2, 3)
        assert f[:, 2].sum() == before + 1


class TestPredictive:
    def test_uniform_prior_no_data(self):
        alpha = np.ones((2, 2))
        f = dirichlet.new_counts(2)
        assert dirichlet.predictive(alpha, f, 0, 0) == pytest.approx(0.5)
        assert dirichlet.predictive(alpha, f, 1, 0) == pytest.approx(0.5)

    def test_counts_shift_predictive(self):
        # alpha column (2, 1), counts column (3, 0): (2+3)/(2+1+3+0) = 5/6
        alpha = np.array([[2.0, 1.0], [1.0, 1.0]])
        f = np.array([[3, 0], [0, 0]])
        assert dirichlet.predictive(alpha, f, 0, 0) == pytest.approx(5.0 / 6.0)

    def test_columns_normalize(self):
        r = rng(1)
        alpha = r.uniform(0.1, 5.0, size=(5, 5))
        f = r.integers(0, 20, size=(5, 5))
        m = dirichlet.predictive_matrix(alpha, f)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)
        for j in range(5):
            col = [dirichlet.predictive(alpha, f, i, j) for i in range(5)]
            assert math.fsum(col) == pytest.approx(1.0, abs=1e-12)

    def test_count_scale_limits(self):
        r = rng(2)
        alpha = r.uniform(0.5, 2.0, size=(3, 3))
        f = r.integers(0, 10, size=(3, 3))
        np.testing.assert_allclose(dirichlet.predictive_matrix(alpha, f, 0.0),
                                   dirichlet.predictive_matrix(alpha))
        np.testing.assert_allclose(dirichlet.predictive_matrix(alpha, f, 1.0),
                                   dirichlet.predictive_matrix(alpha, f))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            dirichlet.predictive_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))


class TestLogEvidence:
    def test_zero_counts_zero_evidence(self):
        alpha = np.array([0.7, 1.3, 2.0])
        assert dirichlet.log_evidence(alpha, np.zeros((4, 3))) == pytest.approx(0.0)

    def test_single_uniform_draw(self):
        # one observation under a symmetric (1, 1) prior: probability 1/2
        val = dirichlet.log_evidence(np.array([1.0, 1.0]), np.array([[1, 0]]))
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_matches_sequential_predictives(self):
        # chain rule: evidence of final counts == sum of step-by-step
        # log-predictives, in any order
        alpha = np.array([2.0, 1.0, 1.0])
        seq = [0, 0, 1]  # counts (2, 1, 0)
        alpha_m = np.tile(alpha[:, None], (1, 3))
        f = dirichlet.new_counts(3)
        total = 0.0
        for i in seq:
            total += math.log(dirichlet.predictive(alpha_m, f, i, 0))
            dirichlet.increment(f, 0, i)
        ev = dirichlet.log_evidence(alpha, np.array([[2, 1, 0]]))
        assert total == pytest.approx(ev, abs=1e-12)

    def test_sums_over_environments(self):
        alpha = np.array([0.5, 1.5])
        cols = np.array([[3, 1], [0, 2]])
        separate = sum(dirichlet.log_evidence(alpha, cols[k:k + 1])
                       for k in range(2))
        assert dirichlet.log_evidence(alpha, cols) == pytest.approx(separate)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            dirichlet.log_evidence(np.array([1.0, -1.0]), np.array([[1, 0]]))


class TestGradient:
    def test_zero_counts_zero_gradient(self):
        g = dirichlet.log_evidence_grad(np.array([0.3, 2.0]), np.zeros((3, 2)))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_symmetry(self):
        g = dirichlet.log_evidence_grad(np.array([1.5, 1.5]),
                                        np.array([[4, 4], [2, 2]]))
        assert g[0] == pytest.approx(g[1], abs=1e-12)

    def test_matches_finite_differences(self):
        r = rng(3)
        for _ in range(100):
            nu = int(r.integers(2, 6))
            k = int(r.integers(1, 5))
            alpha = r.uniform(0.1, 5.0, size=nu)
            f = r.integers(0, 30, size=(k, nu))
            g = dirichlet.log_evidence_grad(alpha, f)
            for i in range(nu):
                h = 1e-5 * alpha[i]
                up, dn = alpha.copy(), alpha.copy()
                up[i] += h
                dn[i] -= h
                fd = (dirichlet.log_evidence(up, f)
                      - dirichlet.log_evidence(dn, f)) / (2 * h)
                scale = max(abs(fd), 1e-8)
                assert abs(g[i] - fd) / scale < 1e-5


class TestMapEstimate:
    def test_never_decreases_evidence(self):
        r = rng(4)
        data = [r.integers(0, 15, size=(3, 3)) for _ in range(4)]
        init = np.ones((3, 3))
        alpha = dirichlet.map_estimate(data, init=init)
        stack = np.asarray(data, dtype=float)
        for j in range(3):
            before = dirichlet.log_evidence(init[:, j], stack[:, :, j])
            after = dirichlet.log_evidence(alpha[:, j], stack[:, :, j])
            assert after >= before - 1e-9

    def test_zero_column_returned_unchanged(self):
        data = [np.array([[0, 3], [0, 1]])]  # column 0 has no counts
        init = np.array([[0.4, 1.0], [2.2, 1.0]])
        out = dirichlet.map_estimate(data, init=init)
        np.testing.assert_allclose(out[:, 0], [0.4, 2.2])

    @pytest.mark.parametrize("j", [0, 2])
    def test_nan_count_raises_evidence_error(self, j):
        r = rng(7)
        data = [r.integers(1, 9, size=(3, 3)).astype(float) for _ in range(2)]
        data[1][1, j] = np.nan
        with pytest.raises(dirichlet.EvidenceError) as err:
            dirichlet.map_estimate(data)
        assert err.value.column == j

    def test_overflowing_init_raises_evidence_error(self):
        # finite counts, but column 1's init total overflows to inf
        init = np.ones((2, 2))
        init[:, 1] = 1e308
        with (pytest.raises(dirichlet.EvidenceError, match="at initialization") as err,
              np.errstate(over="ignore")):
            dirichlet.map_estimate([np.full((2, 2), 3)], init=init)
        assert err.value.column == 1

    def test_entries_stay_positive(self):
        r = rng(5)
        data = [r.integers(0, 8, size=(4, 4)) for _ in range(3)]
        alpha = dirichlet.map_estimate(data)
        assert np.all(alpha >= dirichlet.ALPHA_FLOOR)
        assert np.all(np.isfinite(alpha))

    def test_shared_multinomial_concentrates(self):
        # every environment drawing from one multinomial per column should
        # push pseudo-count column sums well above the init's
        r = rng(6)
        q = np.array([0.7, 0.2, 0.1])
        data = []
        for _ in range(10):
            f = np.zeros((3, 3), dtype=np.int64)
            for j in range(3):
                f[:, j] = r.multinomial(300, q)
            data.append(f)
        alpha = dirichlet.map_estimate(data)
        assert np.all(alpha.sum(axis=0) > 3.0)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            dirichlet.map_estimate([])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chain_rule_equals_evidence_any_order(data):
    """Sum of sequential log-predictives equals the log-evidence of the final
    counts regardless of transition order."""
    r = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    nu = data.draw(st.integers(2, 4))
    length = data.draw(st.integers(1, 8))
    alpha = np.exp(r.uniform(-1.5, 1.5, size=(nu, nu)))
    transitions = [(int(r.integers(nu)), int(r.integers(nu)))
                   for _ in range(length)]
    perm = data.draw(st.permutations(range(length)))

    def sequential(order):
        f = dirichlet.new_counts(nu)
        total = 0.0
        for t in order:
            j, i = transitions[t]
            total += math.log(dirichlet.predictive(alpha, f, i, j))
            dirichlet.increment(f, j, i)
        return total, f

    base, f_final = sequential(range(length))
    ev = sum(dirichlet.log_evidence(alpha[:, j], f_final[None, :, j])
             for j in range(nu))
    assert base == pytest.approx(ev, abs=1e-9)
    # exchangeability: reordering the transitions never changes the sum
    permuted, f_perm = sequential(perm)
    assert permuted == pytest.approx(base, abs=1e-9)
    np.testing.assert_array_equal(f_final, f_perm)


# Per-column reference: the log-space gradient ascent as it was before
# map_estimate fitted all columns in one batch, on the library's evidence
# and gradient called one column at a time.  They are bound here, so that a
# test that patches the module leaves the reference alone.  The batched fit
# must reproduce it bit for bit.

_ref_log_evidence = dirichlet.log_evidence
_ref_log_evidence_grad = dirichlet.log_evidence_grad


def _ref_fit_column(alpha_col, f, tol, max_iters, evidence=_ref_log_evidence,
                    column=None):
    a0 = np.maximum(alpha_col, dirichlet.ALPHA_FLOOR)
    if not f.any():
        return a0.copy()
    f = dirichlet.PreparedCounts(f)  # the array's bits, prepared once

    def checked(a):
        value = evidence(a, f)
        if not math.isfinite(value):
            raise dirichlet.EvidenceError(column, "non-finite evidence")
        return value

    theta = np.log(a0)
    fcur = checked(np.exp(theta))
    step = 1.0
    for _ in range(max_iters):
        a = np.exp(theta)
        g = _ref_log_evidence_grad(a, f) * a
        if np.max(np.abs(g)) < tol:
            break
        improved = False
        while step > 1e-14:
            theta_new = np.clip(theta + step * g, np.log(dirichlet.ALPHA_FLOOR),
                                np.log(dirichlet.ALPHA_CEIL))
            fnew = checked(np.exp(theta_new))
            if fnew > fcur:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        theta, fcur = theta_new, fnew
        step = min(step * 2.0, 1e6)
    return np.maximum(np.exp(theta), dirichlet.ALPHA_FLOOR)


def _ref_map_estimate(data, init, tol=1e-8, max_iters=2000,
                      evidence=_ref_log_evidence):
    stack = np.asarray(data, dtype=float)
    nu = stack.shape[1]
    init = np.ones((nu, nu)) if init is None else init
    alpha = np.empty((nu, nu))
    for j in range(nu):
        alpha[:, j] = _ref_fit_column(np.asarray(init[:, j], dtype=float),
                                      stack[:, :, j], tol, max_iters, evidence, j)
    return alpha


@st.composite
def _count_stacks(draw):
    """k sparse nu x nu count matrices, some columns all zero, an optional
    random init and an optional small iteration budget."""
    r = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    nu = draw(st.integers(2, 7))
    k = draw(st.integers(1, 6))
    density = draw(st.sampled_from([0.1, 0.4, 1.0]))
    counts = r.integers(0, 25, size=(k, nu, nu))
    counts[r.uniform(size=counts.shape) > density] = 0
    zero_cols = draw(st.lists(st.integers(0, nu - 1), max_size=2))
    counts[:, :, zero_cols] = 0
    init = (np.exp(r.uniform(-3.0, 3.0, size=(nu, nu)))
            if draw(st.booleans()) else None)
    max_iters = draw(st.sampled_from([0, 1, 3, 17, 2000]))
    return list(counts), init, max_iters


@settings(max_examples=100, deadline=None)
@given(_count_stacks())
def test_map_estimate_matches_per_column_ascent_bitwise(case):
    data, init, max_iters = case
    got = dirichlet.map_estimate(data, init=init, max_iters=max_iters)
    want = _ref_map_estimate(data, init, max_iters=max_iters)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1])
def test_large_sparse_map_estimate_matches_per_column_ascent_bitwise(seed):
    # 12 environments x 20 views at 5 % nonzero counts, as at the
    # benchmark's training size
    r = rng(seed)
    counts = r.integers(1, 6, size=(12, 20, 20))
    counts[r.uniform(size=counts.shape) > 0.05] = 0
    got = dirichlet.map_estimate(list(counts), max_iters=150)
    assert np.array_equal(got, _ref_map_estimate(list(counts), None, max_iters=150))


@st.composite
def _batched_count_stacks(draw):
    """Count stacks of shape batch + (k, nu, nu) for one to six fits, as
    _count_stacks draws them, with one init for every fit, one per fit or
    none."""
    r = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    batch = draw(st.sampled_from([(1,), (2,), (4,), (2, 3)]))
    nu = draw(st.integers(2, 6))
    k = draw(st.integers(1, 5))
    density = draw(st.sampled_from([0.1, 0.4, 1.0]))
    counts = r.integers(0, 25, size=batch + (k, nu, nu))
    counts[r.uniform(size=counts.shape) > density] = 0
    counts[..., draw(st.lists(st.integers(0, nu - 1), max_size=2))] = 0
    init = draw(st.sampled_from([None, (nu, nu), batch + (nu, nu)]))
    if init is not None:
        init = np.exp(r.uniform(-3.0, 3.0, size=init))
    max_iters = draw(st.sampled_from([0, 1, 3, 17, 2000]))
    return counts, init, max_iters


@settings(max_examples=60, deadline=None)
@given(_batched_count_stacks())
def test_batched_map_estimate_matches_one_ascent_per_fit_bitwise(case):
    counts, init, max_iters = case
    batch, nu = counts.shape[:-3], counts.shape[-1]
    got = dirichlet.map_estimate(counts, init=init, max_iters=max_iters)
    assert got.shape == batch + (nu, nu)
    inits = np.broadcast_to(np.ones((nu, nu)) if init is None else init, got.shape)
    for b in np.ndindex(batch):
        want = _ref_map_estimate(list(counts[b]), inits[b], max_iters=max_iters)
        assert got[b].tobytes() == want.tobytes()


@pytest.mark.parametrize("fit, j", [((0,), 0), ((2,), 1), ((1,), 2)])
def test_batched_nan_count_raises_evidence_error_naming_fit_and_column(fit, j):
    counts = rng(8).integers(1, 9, size=(3, 2, 3, 3)).astype(float)
    counts[fit + (1, 0, j)] = np.nan
    counts[2, 0, 2, 2] = np.nan  # a later fit, never named first
    with pytest.raises(dirichlet.EvidenceError, match=rf"in fit \({fit[0]},\)") as err:
        dirichlet.map_estimate(counts)
    assert err.value.column == j


def test_non_finite_evidence_during_ascent_names_the_reference_column(monkeypatch):
    """The evidence of one count column is made NaN at some alpha values,
    picked by a hash of their bits.  The batched fit must raise, naming that
    column, exactly when the per-column ascent meets such a value; values
    that only the batched fit's extra trials reach, which the ascent never
    tries, must change nothing."""
    real = dirichlet.log_evidence
    outcomes = set()

    def poison(evidence, target):
        def poisoned(alpha, data):
            # any leading batch axes: one row per (alpha column, counts)
            value = evidence(alpha, data)
            a = np.reshape(alpha, (-1, np.shape(alpha)[-1]))
            f = np.asarray(data, dtype=float).reshape(len(a), -1, a.shape[-1])
            out = np.array(value, dtype=float).reshape(-1)
            for c in range(len(a)):
                if (f[c].tobytes() == target.tobytes()
                        and zlib.crc32(a[c].tobytes()) % 5 == 0):
                    out[c] = np.nan
                    hits.append(a[c].tobytes())
            return out.reshape(np.shape(value)) if np.ndim(value) else float(out[0])
        return poisoned

    for seed in range(60):
        r = rng(seed)
        nu, k = int(r.integers(2, 5)), int(r.integers(1, 4))
        counts = r.integers(1, 20, size=(2, k, nu, nu))
        fit, j = int(r.integers(2)), int(r.integers(nu))
        target = counts[fit, :, :, j].astype(float)
        max_iters = int(r.choice([1, 3, 17]))
        hits = []
        try:
            for b in range(2):
                _ref_map_estimate(list(counts[b]), None, max_iters=max_iters,
                                  evidence=poison(_ref_log_evidence, target))
            want = None
        except dirichlet.EvidenceError as err:
            want = err.column
        seen_by_reference = set(hits)
        hits = []
        monkeypatch.setattr(dirichlet, "log_evidence", poison(real, target))
        try:
            got = dirichlet.map_estimate(counts, max_iters=max_iters)
        except dirichlet.EvidenceError as err:
            assert err.column == want == j
            outcomes.add("raised")
        else:
            assert want is None
            ref = [_ref_map_estimate(list(counts[b]), None, max_iters=max_iters)
                   for b in range(2)]
            assert got.tobytes() == np.array(ref).tobytes()
            outcomes.add("ignored" if set(hits) - seen_by_reference else "clean")
        monkeypatch.setattr(dirichlet, "log_evidence", real)
    assert outcomes == {"raised", "ignored", "clean"}


# Exact oracle: one column's evidence and gradient summed with math.fsum
# from their rising-factorial terms.  Each library value must lie within
# FSUM_RTOL of the oracle, relative to the summed magnitudes of its terms,
# which bound the rounding of any order of summation.

FSUM_RTOL = 1e-12


def _fsum_oracle(a, f):
    """Evidence and gradient of column alpha a (nu,) at integer counts
    f (k, nu), each with the summed magnitudes of its terms."""
    total = math.fsum(a)
    units = [[i for n in f[:, j] for i in range(int(n))] for j in range(len(a))]
    rows = [i for n in f.sum(axis=1) for i in range(int(n))]
    logs = [math.log(a[j] + i) for j, us in enumerate(units) for i in us]
    logs += [-math.log(total + i) for i in rows]
    inv_rows = math.fsum(1.0 / (total + i) for i in rows)
    inv = [math.fsum(1.0 / (a[j] + i) for i in us) for j, us in enumerate(units)]
    return (math.fsum(logs), math.fsum(abs(x) for x in logs),
            np.array(inv) - inv_rows, np.array(inv) + inv_rows)


def _assert_matches_fsum_oracle(a, f, ev, grad):
    want, scale, gwant, gscale = _fsum_oracle(a, f)
    assert abs(ev - want) <= FSUM_RTOL * scale
    assert (np.abs(grad - gwant) <= FSUM_RTOL * gscale).all()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batched_evidence_matches_per_column_calls_bitwise(data):
    r = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    m, k, nu = (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)),
                data.draw(st.integers(2, 20)))
    alpha = np.exp(r.uniform(-5.0, 5.0, size=(m, nu)))
    counts = r.integers(0, 50, size=(m, k, nu)).astype(float)
    density = data.draw(st.sampled_from([0.1, 0.5, 1.0]))
    counts[r.uniform(size=counts.shape) > density] = 0
    ev = dirichlet.log_evidence(alpha, counts)
    grad = dirichlet.log_evidence_grad(alpha, counts)
    assert ev.shape == (m,) and grad.shape == (m, nu)
    for c in range(m):
        one = dirichlet.log_evidence(alpha[c], counts[c])
        assert isinstance(one, float)
        assert one == ev[c]
        assert np.array_equal(dirichlet.log_evidence_grad(alpha[c], counts[c]),
                              grad[c])
        _assert_matches_fsum_oracle(alpha[c], counts[c], one, grad[c])


@st.composite
def _sparse_evidence_cases(draw):
    """alpha of shape batch + (nu,) from ALPHA_FLOOR to ALPHA_CEIL and
    counts of shape batch + (k, nu): at most 10 % nonzero, with all-zero
    rows, with all-zero columns or all nonzero."""
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = draw(st.sampled_from([(), (3,), (3, draw(st.integers(1, 6)))]))
    k, nu = draw(st.integers(1, 12)), draw(st.integers(1, 20))
    counts = r.integers(1, 50, size=batch + (k, nu)).astype(float)
    layout = draw(st.sampled_from(["sparse", "zero_rows", "zero_columns", "nonzero"]))
    if layout == "sparse":
        nnz = counts.size // 10
        counts[(r.permutation(counts.size) >= nnz).reshape(counts.shape)] = 0
    elif layout == "zero_rows":
        counts *= r.uniform(size=batch + (k, 1)) < 0.5
    elif layout == "zero_columns":
        counts *= r.uniform(size=batch + (1, nu)) < 0.5
    lo, hi = math.log(dirichlet.ALPHA_FLOOR), math.log(dirichlet.ALPHA_CEIL)
    alpha = np.exp(r.uniform(lo, hi, size=batch + (nu,)))
    if draw(st.booleans()):
        alpha.flat[r.integers(alpha.size)] = dirichlet.ALPHA_FLOOR
        alpha.flat[r.integers(alpha.size)] = dirichlet.ALPHA_CEIL
    return alpha, counts


@settings(max_examples=300, deadline=None)
@given(_sparse_evidence_cases())
def test_evidence_and_gradient_match_the_fsum_oracle(case):
    alpha, counts = case
    batch = alpha.shape[:-1]
    ev = dirichlet.log_evidence(alpha, counts)
    grad = dirichlet.log_evidence_grad(alpha, counts)
    assert isinstance(ev, float) == (batch == ())
    for b in np.ndindex(batch):
        _assert_matches_fsum_oracle(alpha[b], counts[b], np.asarray(ev)[b], grad[b])


@pytest.mark.parametrize("seed", range(4))
def test_evidence_matches_the_fsum_oracle_at_large_alpha_and_counts(seed):
    """Blocks of up to 500 counts per cell, as criterion 3 fits, with
    alpha up to ALPHA_CEIL and every entry at it in half the blocks: where
    gammaln(a + n) - gammaln(a) loses digits."""
    r = rng(seed)
    for block in range(12):
        k, nu = int(r.integers(1, 13)), int(r.integers(2, 8))
        counts = r.integers(0, 501, size=(k, nu)).astype(float)
        counts[r.uniform(size=counts.shape) > r.choice([0.1, 0.5, 1.0])] = 0
        alpha = (np.full(nu, dirichlet.ALPHA_CEIL) if block % 2 else
                 np.exp(r.uniform(math.log(dirichlet.ALPHA_FLOOR),
                                  math.log(dirichlet.ALPHA_CEIL), size=nu)))
        _assert_matches_fsum_oracle(alpha, counts, dirichlet.log_evidence(alpha, counts),
                                    dirichlet.log_evidence_grad(alpha, counts))


def test_gradient_matches_a_central_difference_at_large_column_totals():
    """Column totals of 1e4 to 1e6 at the counts' pooled mean, where the
    gradient's leading terms cancel and only terms in n**2 / a**2 are left.
    The central difference sums each unit's log ratio with log1p, so even
    at a step of 1e-8 of the entry its own rounding stays far below the
    tolerance."""
    r = rng(10)
    worst = 0.0
    for _ in range(40):
        k, nu = int(r.integers(1, 13)), int(r.integers(2, 8))
        counts = np.stack([r.multinomial(int(r.integers(1, 30)), r.dirichlet(np.ones(nu)))
                           for _ in range(k)]).astype(float) + 1.0
        mean = counts.sum(axis=0) / counts.sum()
        alpha = math.exp(r.uniform(math.log(1e4), math.log(1e6))) * mean
        grad = dirichlet.log_evidence_grad(alpha, counts)
        total = math.fsum(alpha)
        rows = [i for n in counts.sum(axis=1) for i in range(int(n))]
        for j in range(nu):
            h = 1e-8 * alpha[j]
            diff = math.fsum([math.log1p(2 * h / (alpha[j] - h + i))
                              for n in counts[:, j] for i in range(int(n))]
                             + [-math.log1p(2 * h / (total - h + i)) for i in rows])
            fd = diff / (2 * h)
            worst = max(worst, abs(grad[j] - fd) / abs(fd))
    assert worst < 1e-6


@pytest.mark.parametrize("bad", [0.5, -1.0, np.nan, np.inf, -np.inf])
def test_counts_that_are_not_non_negative_integers_raise(bad):
    counts = np.array([[3.0, 1.0, 0.0], [2.0, 0.0, 4.0]])
    counts[1, 1] = bad
    for fn in (dirichlet.log_evidence, dirichlet.log_evidence_grad):
        with pytest.raises(ValueError, match="non-negative integers"):
            fn(np.ones(3), counts)
    with pytest.raises(ValueError, match="non-negative integers"):
        dirichlet.PreparedCounts(counts)
    data = [np.full((3, 3), 2.0), np.full((3, 3), 2.0)]
    data[1][0, 2] = bad
    with pytest.raises(dirichlet.EvidenceError, match="non-negative integers") as err:
        dirichlet.map_estimate(data)
    assert err.value.column == 2


@settings(max_examples=200, deadline=None)
@given(_sparse_evidence_cases(), st.booleans(), st.integers(0, 2**32 - 1))
def test_prepared_counts_match_the_array_form_bitwise(case, trial_batched, seed):
    """Counts prepared once give, at every alpha they are evaluated at, the
    bits of the array form and of one call per column, also with the
    counts stacked once per trial against trial-batched alpha."""
    alpha, counts = case
    r = np.random.default_rng(seed)
    if trial_batched:
        step = r.uniform(-1.0, 1.0, size=(dirichlet.TRIALS,) + alpha.shape)
        alpha = np.clip(alpha * np.exp(step), dirichlet.ALPHA_FLOOR, dirichlet.ALPHA_CEIL)
        counts = np.stack((counts,) * dirichlet.TRIALS)
    prepared = dirichlet.PreparedCounts(counts)
    assert np.asarray(prepared).tobytes() == counts.tobytes()
    batch = alpha.shape[:-1]
    for a in (alpha, alpha * 2.0):
        ev = dirichlet.log_evidence(a, prepared)
        grad = dirichlet.log_evidence_grad(a, prepared)
        assert isinstance(ev, float) == (batch == ())
        assert np.float64(ev).tobytes() == \
            np.float64(dirichlet.log_evidence(a, counts)).tobytes()
        assert grad.tobytes() == dirichlet.log_evidence_grad(a, counts).tobytes()
        for b in np.ndindex(batch):
            want = _ref_log_evidence(a[b], counts[b])
            assert np.float64(np.asarray(ev)[b]).tobytes() == \
                np.float64(want).tobytes()
            assert grad[b].tobytes() == \
                _ref_log_evidence_grad(a[b], counts[b]).tobytes()


ZERO_ROWS_AT = ("first", "interleaved", "last")


def _insert_zero_rows(counts, pad, where, r, axis):
    """counts with pad zero rows inserted along axis, its rows kept in order."""
    k = counts.shape[axis]
    rows = {"first": np.arange(pad, pad + k), "last": np.arange(k),
            "interleaved": np.sort(r.choice(k + pad, k, replace=False))}[where]
    shape = list(counts.shape)
    shape[axis] += pad
    padded = np.zeros(shape, dtype=counts.dtype)
    padded[(slice(None),) * axis + (rows,)] = counts
    return padded


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_zero_count_rows_change_no_bits(data):
    """Environments with no counts add no units, so inserting them anywhere
    (first, interleaved or last) changes neither the evidence nor its
    gradient by a bit, for array and prepared counts: fits whose held-out
    environments are zeroed are the fits without them."""
    r = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    batch = data.draw(st.sampled_from([(), (3,), (2, 2)]))
    nu = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 5))
    pad = data.draw(st.integers(1, 4))
    counts = r.integers(0, 30, size=batch + (k, nu))
    counts *= r.random(counts.shape) < 0.5
    padded = _insert_zero_rows(counts, pad, data.draw(st.sampled_from(ZERO_ROWS_AT)),
                               r, axis=len(batch))
    alpha = np.exp(r.uniform(-3.0, 3.0, size=batch + (nu,)))
    for form in (np.asarray, dirichlet.PreparedCounts):
        ev = dirichlet.log_evidence(alpha, form(counts))
        assert np.float64(dirichlet.log_evidence(alpha, form(padded))).tobytes() == \
            np.float64(ev).tobytes()
        assert dirichlet.log_evidence_grad(alpha, form(padded)).tobytes() == \
            dirichlet.log_evidence_grad(alpha, form(counts)).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_map_estimate_fits_zeroed_samples_as_the_compacted_stack(data):
    """A stack with zero count rows anywhere fits bit for bit as the stack
    without them, batched or not."""
    r = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    batch = data.draw(st.sampled_from([(), (2,)]))
    nu = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 4))
    counts = r.integers(0, 8, size=batch + (k, nu, nu))
    counts *= r.random(counts.shape) < 0.5
    padded = _insert_zero_rows(counts, data.draw(st.integers(1, 3)),
                               data.draw(st.sampled_from(ZERO_ROWS_AT)), r,
                               axis=len(batch))
    max_iters = data.draw(st.integers(0, 30))
    assert dirichlet.map_estimate(padded, max_iters=max_iters).tobytes() == \
        dirichlet.map_estimate(counts, max_iters=max_iters).tobytes()


def test_prepared_counts_must_match_alpha():
    prepared = dirichlet.PreparedCounts(np.ones((3, 2, 4)))
    for alpha in (np.ones((2, 4)), np.ones((3, 5)), np.ones(4)):
        with pytest.raises(ValueError, match="data must have shape"):
            dirichlet.log_evidence(alpha, prepared)
    with pytest.raises(ValueError, match="data must have shape"):
        dirichlet.log_evidence_grad(np.ones((2, 4)), np.ones(4))


@pytest.mark.parametrize("max_iters", [0, 1, 200])
def test_map_estimate_prepares_its_counts_once(monkeypatch, max_iters):
    """map_estimate prepares its counts (their units among them) once per
    call, in two forms: as they are for the gradient and once per trial for
    the evidence, however its pairs stop.  Every round reuses them over all
    the pairs; a stopped pair stays frozen."""
    r = rng(9)
    counts = r.integers(1, 9, size=(2, 3, 6, 6)) * (r.random((2, 3, 6, 6)) < 0.3)
    m = np.count_nonzero(counts.any(axis=(1, 2)))
    made, seen = [], []

    class Counting(dirichlet.PreparedCounts):
        __slots__ = ()

        def __init__(self, data):
            made.append(np.shape(data))
            super().__init__(data)

    grad = dirichlet.log_evidence_grad

    def recording(alpha, data):
        assert isinstance(data, Counting)
        seen.append(alpha.copy())
        return grad(alpha, data)

    monkeypatch.setattr(dirichlet, "PreparedCounts", Counting)
    monkeypatch.setattr(dirichlet, "log_evidence_grad", recording)
    got = dirichlet.map_estimate(counts, max_iters=max_iters)
    monkeypatch.undo()
    assert made == [(m, 3, 6), (dirichlet.TRIALS, m, 3, 6)]
    assert all(a.shape == (m, 6) for a in seen)
    # the last round in which each pair moved: staggered stops at 200
    moves = np.reshape([(b != a).any(axis=1) for a, b in zip(seen, seen[1:])],
                       (-1, m))
    last = [max(np.flatnonzero(col), default=-1) for col in moves.T]
    assert len(set(last)) >= (3 if max_iters == 200 else 1)
    assert got.tobytes() == np.array(
        [_ref_map_estimate(list(counts[b]), None, max_iters=max_iters)
         for b in range(2)]).tobytes()
