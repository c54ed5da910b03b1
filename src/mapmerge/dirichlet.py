"""Dirichlet-multinomial bookkeeping: predictive probabilities, marginal
evidence of transition counts, and MAP fitting of the prior pseudo-counts
across several training environments.

Conventions: transition matrices are indexed [i, j] = count (or pseudo-count)
of view j being followed by view i, so column j is the distribution over
successors of j.  All alpha entries must stay strictly positive.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, psi

ALPHA_FLOOR = 1e-6
# ceiling for fitted pseudo-counts: with near-identical environments the
# evidence is maximized as alpha -> inf; the cap keeps the fit finite
ALPHA_CEIL = 1e6
# trial steps per round of map_estimate's ascent: step, step/2, step/4.
# At benchmark size 59-86 % of accepted steps come after one or two
# rejections, so three trials take most steps in one evidence call.
TRIALS = 3


class EvidenceError(ValueError):
    """Non-finite evidence encountered while optimizing a column."""

    def __init__(self, column: int, message: str):
        super().__init__(f"column {column}: {message}")
        self.column = column


def new_counts(nu: int) -> np.ndarray:
    return np.zeros((nu, nu), dtype=np.int64)


def increment(counts: np.ndarray, j: int, i: int) -> np.ndarray:
    """Record one observed transition j -> i.  Mutates and returns counts."""
    counts[i, j] += 1
    return counts


def predictive_matrix(alpha: np.ndarray, counts=None, count_scale: float = 1.0) -> np.ndarray:
    """Posterior predictive transition matrix: column j is the distribution
    over the view following j, with the multinomial integrated out.

    count_scale weights the observed counts before they enter the ratio
    (1.0 = full adaptation, 0.0 = prior only).
    """
    a = np.asarray(alpha, dtype=float)
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("alpha entries must be positive and finite")
    total = a if counts is None else a + count_scale * np.asarray(counts, dtype=float)
    return total / total.sum(axis=0, keepdims=True)


def predictive(alpha: np.ndarray, counts: np.ndarray, i: int, j: int,
               count_scale: float = 1.0) -> float:
    """p(next view = i | previous view = j) given pseudo-counts and counts."""
    a = np.asarray(alpha, dtype=float)[:, j]
    if np.any(a <= 0.0):
        raise ValueError("alpha column must be strictly positive")
    f = count_scale * np.asarray(counts, dtype=float)[:, j]
    return float((a[i] + f[i]) / (a.sum() + f.sum()))


class PreparedCounts:
    """Count blocks of shape (..., k, nu) prepared once for many evidence
    calls: the C-contiguous float counts, their row totals, and the flat
    positions and values of the nonzero counts (NaN and inf among them,
    -0.0 not), with the flat index of the alpha entry each pairs with.
    np.asarray gives back the counts."""

    __slots__ = ("f", "total", "pos", "val", "apos")

    def __init__(self, data):
        self.f = f = np.ascontiguousarray(data, dtype=float)
        self.total = f.sum(axis=-1)
        self.pos = np.flatnonzero(f != 0)  # a bool mask: far faster to scan
        self.val = f.ravel()[self.pos]
        k, nu = f.shape[-2:]
        # a count's block picks the row of alpha, its column the entry
        self.apos = self.pos // (k * nu) * nu + self.pos % nu

    def __array__(self, dtype=None, copy=None):
        return np.array(self.f, dtype=dtype, copy=copy)


def log_evidence(alpha: np.ndarray, data) -> float | np.ndarray:
    """Log marginal likelihood of per-environment count columns under a
    shared Dirichlet prior column (product of Dirichlet-multinomial
    evidences over environments).

    alpha has shape (..., nu) and data (..., k, nu): one row of successor
    counts per environment, for each column of the leading batch axes.
    data may be an array or PreparedCounts of it; both give the same bits.
    Each column's k x nu block is reduced as one contiguous row, so a batch
    gives bit for bit the values of one call per column.  One column (alpha
    of shape (nu,)) returns a float.

    A zero count's term gammaln(0 + a) is gammaln(a), so gammaln runs once
    per alpha entry and once per nonzero count, and the terms are bit for
    bit those of gammaln(f + a) over the whole block.
    """
    a, c = _evidence_args(alpha, data)
    k = c.f.shape[-2]
    abar = a.sum(axis=-1)
    ga = gammaln(a)
    terms = _at_counts(gammaln, ga, a, c)
    val = (terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1)
           - gammaln(c.total + abar[..., None]).sum(axis=-1)
           + k * gammaln(abar)
           - k * ga.sum(axis=-1))
    return float(val) if val.ndim == 0 else val


def log_evidence_grad(alpha: np.ndarray, data) -> np.ndarray:
    """Analytic gradient of log_evidence with respect to alpha, with the
    same batch axes: alpha (..., nu) and data (..., k, nu), an array or
    PreparedCounts, give (..., nu).  Like log_evidence, psi runs once per
    alpha entry and once per nonzero count, bit for bit psi(f + a) over the
    whole block."""
    a, c = _evidence_args(alpha, data)
    k = c.f.shape[-2]
    abar = a.sum(axis=-1)[..., None]
    pa = psi(a)
    g = (_at_counts(psi, pa, a, c).sum(axis=-2) - k * pa
         + k * psi(abar)
         - psi(c.total + abar).sum(axis=-1, keepdims=True))
    return g


def _at_counts(fn, fa, a, c):
    """fn(f + a) over the prepared (..., k, nu) counts c, given fa = fn(a):
    zero counts (0 + a == a exactly, -0.0 too) copy fa, and fn runs only at
    the nonzero counts, on the same sums f + a.  The result is
    C-contiguous, so it sums in the order fn(f + a) would."""
    out = np.empty(c.f.shape)
    out[...] = fa[..., None, :]
    out.reshape(-1)[c.pos] = fn(c.val + a.reshape(-1)[c.apos])
    return out


def _evidence_args(alpha, data):
    """C-contiguous float alpha (so that sums run in the same order
    whatever the caller's memory layout) and prepared counts with a k
    axis."""
    a = np.ascontiguousarray(alpha, dtype=float)
    if not (a > 0.0).all() or not np.isfinite(a).all():
        raise ValueError("alpha column must be strictly positive and finite")
    if isinstance(data, PreparedCounts):
        f = data.f
    else:
        f = np.asarray(data, dtype=float)
        if f.ndim == a.ndim:
            f = f[..., None, :]  # a single environment per column
    if f.ndim < 2 or f.shape[:-2] != a.shape[:-1] or f.shape[-1] != a.shape[-1]:
        raise ValueError("data must have shape (..., k, nu) for alpha (..., nu)")
    return a, data if isinstance(data, PreparedCounts) else PreparedCounts(f)


def map_estimate(data, init: np.ndarray | None = None,
                 tol: float = 1e-8, max_iters: int = 2000) -> np.ndarray:
    """MAP estimate of the prior pseudo-count matrix from per-environment
    count matrices (uniform hyper-prior, so MAP = evidence maximization).

    data holds k >= 1 count matrices of shape (nu, nu): a sequence of them,
    or an array of shape (..., k, nu, nu) whose leading batch axes stack
    independent fits and give alpha of shape (..., nu, nu).  init (default
    all ones) broadcasts against that alpha.

    Each column of each fit is fitted by its own gradient ascent in
    log(alpha), which keeps alpha positive: a trial step is accepted when it
    raises the column's evidence, the step halves on a rejected trial (down
    to 1e-14) and doubles after an accepted one (up to 1e6), and the column
    stops after max_iters gradients or once the infinity norm of its
    log-space gradient drops below tol.  At the benchmark's training sizes
    most columns stop at max_iters, not at tol (the evidence is nearly flat
    along a column's total), so the fitted values depend on max_iters.

    The (fit, column) pairs are independent, so all of them run in
    lockstep.  Each round evaluates one batched gradient and one batched
    evidence call over the pairs still running, with TRIALS trials per
    pair: at its step, half of it and a quarter of it.  Their counts are
    prepared (PreparedCounts) at the start and again only when pairs stop.  It takes the first
    trial that is accepted, which is what the ascent does after at most
    TRIALS - 1 rejections, and ignores every trial the ascent would not
    have tried (after an accepted one, or at a step below the floor).  So
    the result is bit for bit that of one ascent per column.  A column
    with no counts keeps its init.  EvidenceError names the first column,
    in (fit, column) order, whose evidence is not finite at initialization
    or, failing that, in the earliest round.
    """
    stack = np.asarray(data, dtype=float)
    if stack.ndim < 3 or stack.shape[-3] < 1 or stack.shape[-2] != stack.shape[-1]:
        raise ValueError("data must hold at least one square count matrix per fit")
    batch, nu = stack.shape[:-3], stack.shape[-1]
    stack = stack.reshape((-1,) + stack.shape[-3:])  # (fits, k, nu, nu)
    alpha = np.ones((nu, nu)) if init is None else np.asarray(init, dtype=float)
    alpha = np.maximum(np.broadcast_to(alpha, batch + (nu, nu)),
                       ALPHA_FLOOR).reshape(stack.shape[0], nu, nu)
    # an all-zero column has evidence identically 0: nothing to fit
    fit, cols = np.nonzero(stack.any(axis=(1, 2)))
    if cols.size == 0:
        return alpha.reshape(batch + (nu, nu))
    f = np.ascontiguousarray(stack[fit, :, :, cols])  # (m, k, nu)
    theta = np.log(alpha[fit, :, cols])                # (m, nu)
    counts, trials = _prepare(f)
    fcur = log_evidence(np.exp(theta), counts)
    _check_finite(np.isfinite(fcur), batch, fit, cols,
                  "non-finite evidence at initialization")
    lo, hi = np.log(ALPHA_FLOOR), np.log(ALPHA_CEIL)
    halvings = 0.5 ** np.arange(TRIALS)[:, None]  # powers of two: exact
    # state of the pairs still running, compacted as pairs stop, with their
    # counts prepared once and once per trial
    run, th, fc = np.arange(cols.size), theta, fcur
    step = np.ones(cols.size)
    grads = np.zeros(cols.size, dtype=np.int64)
    moved = np.ones(cols.size, dtype=bool)     # theta moved since the last gradient
    floored = np.zeros(cols.size, dtype=bool)  # step fell to its floor
    while True:
        # where theta did not move, the gradient comes out bit for bit the same
        a = np.exp(th)
        g = log_evidence_grad(a, counts) * a  # chain rule into log space
        stop = floored | (moved & ((grads >= max_iters)
                                   | (np.abs(g).max(axis=1) < tol)))
        grads += moved
        if stop.any():
            theta[run[stop]] = th[stop]
            keep = ~stop
            run, th, fc, g, step, grads = (
                x[keep] for x in (run, th, fc, g, step, grads))
            if run.size == 0:
                break
            f = f[keep]
            counts, trials = _prepare(f)
        steps = step * halvings
        trial = np.clip(th + steps[:, :, None] * g, lo, hi)
        fnew = log_evidence(np.exp(trial), trials)
        tried = steps > 1e-14
        acc = tried & (fnew > fc)
        # the ascent tries a step above the floor once every larger one failed
        seen = tried & (np.cumsum(acc, axis=0) - acc == 0)
        _check_finite((np.isfinite(fnew) | ~seen).all(axis=0), batch,
                      fit[run], cols[run], "non-finite evidence during ascent")
        moved = acc.any(axis=0)
        first = (acc.argmax(axis=0), np.arange(run.size))  # first accepted
        th = np.where(moved[:, None], trial[first], th)
        fc = np.where(moved, fnew[first], fc)
        # doubled after an accepted trial, else halved once per rejection
        step = np.where(moved, np.minimum(steps[first] * 2.0, 1e6),
                        step * 0.5 ** seen.sum(axis=0))
        floored = ~moved & (step <= 1e-14)
    alpha[fit, :, cols] = np.maximum(np.exp(theta), ALPHA_FLOOR)
    return alpha.reshape(batch + (nu, nu))


def _prepare(f):
    """The (m, k, nu) counts prepared as they are and stacked once per
    trial."""
    return PreparedCounts(f), PreparedCounts(np.stack((f,) * TRIALS))


def _check_finite(ok: np.ndarray, batch: tuple, fit: np.ndarray,
                  cols: np.ndarray, message: str) -> None:
    """Raise EvidenceError for the first (fit, column) pair not ok."""
    if not ok.all():
        c = np.argmin(ok)
        if batch:
            index = tuple(int(i) for i in np.unravel_index(fit[c], batch))
            message = f"{message} in fit {index}"
        raise EvidenceError(int(cols[c]), message)
