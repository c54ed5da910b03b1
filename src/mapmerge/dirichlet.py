"""Dirichlet-multinomial bookkeeping: predictive probabilities, marginal
evidence of transition counts, and MAP fitting of the prior pseudo-counts
across several training environments.

Conventions: transition matrices are indexed [i, j] = count (or pseudo-count)
of view j being followed by view i, so column j is the distribution over
successors of j.  All alpha entries must stay strictly positive.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA_FLOOR = 1e-6
# ceiling for fitted pseudo-counts: with near-identical environments the
# evidence is maximized as alpha -> inf; the cap keeps the fit finite.  At
# the acceptance training size (seed 3) one prior column and five columns
# of the confusion fit reach it.
ALPHA_CEIL = 1e6
# trial steps per round of map_estimate's ascent: step, step/2, step/4.
# At the acceptance training size 50-62 % of accepted steps come after one
# or two rejections, so three trials take most steps in one evidence call.
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
    calls.  For an integer count n, gammaln(a + n) - gammaln(a) is the sum
    of log(a + i) over 0 <= i < n (a rising factorial), so each count is
    spread into n units: the index of the alpha entry it pairs with and
    its offset i.  Each row total N adds N units against its column's
    total A, indexed after the entries.  np.asarray gives back the counts.
    Counts that are not finite non-negative integers raise ValueError."""

    __slots__ = ("f", "idx", "off")

    def __init__(self, data):
        self.f = f = np.ascontiguousarray(data, dtype=float)
        if not _is_count(f).all():
            raise ValueError("counts must be finite non-negative integers")
        b, (k, nu) = math.prod(f.shape[:-2]), f.shape[-2:]
        n = f.astype(np.int64).reshape(b, k, nu)
        entry = np.broadcast_to(np.arange(b * nu).reshape(b, 1, nu), n.shape)
        bins = np.concatenate((entry.ravel(), b * nu + np.arange(b).repeat(k)))
        reps = np.concatenate((n.ravel(), n.sum(axis=-1).ravel()))
        self.idx = np.repeat(bins, reps)
        start = np.cumsum(reps) - reps
        self.off = (np.arange(self.idx.size) - np.repeat(start, reps)).astype(float)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.f, dtype=dtype, copy=copy)


def log_evidence(alpha: np.ndarray, data) -> float | np.ndarray:
    """Log marginal likelihood of per-environment count columns under a
    shared Dirichlet prior column (product of Dirichlet-multinomial
    evidences over environments).

    alpha has shape (..., nu) and data (..., k, nu): one row of successor
    counts per environment, for each column of the leading batch axes.
    data may be an array or PreparedCounts of it; both give the same bits.
    The evidence is the sum of log(a_j + i) over every count's units minus
    the sum of log(A + i) over every row total's units, A the column's
    total.  Each column's units are summed in the same order whatever the
    batch, so a batch gives bit for bit the values of one call per column.
    One column (alpha of shape (nu,)) returns a float.
    """
    entries, totals = _unit_sums(np.log, alpha, data)
    val = entries.sum(axis=-1) - totals
    return float(val) if val.ndim == 0 else val


def log_evidence_grad(alpha: np.ndarray, data) -> np.ndarray:
    """Analytic gradient of log_evidence with respect to alpha, with the
    same batch axes: alpha (..., nu) and data (..., k, nu), an array or
    PreparedCounts, give (..., nu).  Entry j is the sum of 1/(a_j + i) over
    its counts' units minus the sum of 1/(A + i) over the row totals'."""
    entries, totals = _unit_sums(np.reciprocal, alpha, data)
    return entries - totals[..., None]


def _unit_sums(fn, alpha, data):
    """The sums of fn(a + i) over the units of each alpha entry, shaped
    like alpha, and of fn(A + i) over those of each column total A.  alpha
    is made C-contiguous, so that its totals sum in the same order whatever
    the caller's memory layout; array counts are prepared, with a k axis."""
    a = np.ascontiguousarray(alpha, dtype=float)
    if not (a > 0.0).all() or not np.isfinite(a).all():
        raise ValueError("alpha column must be strictly positive and finite")
    c = data if isinstance(data, PreparedCounts) else None
    f = np.asarray(data, dtype=float) if c is None else c.f
    if c is None and f.ndim == a.ndim:
        f = f[..., None, :]  # a single environment per column
    if f.ndim < 2 or f.shape[:-2] != a.shape[:-1] or f.shape[-1] != a.shape[-1]:
        raise ValueError("data must have shape (..., k, nu) for alpha (..., nu)")
    c = PreparedCounts(f) if c is None else c
    total = a.sum(axis=-1)
    x = np.concatenate((a.reshape(-1), total.reshape(-1)))[c.idx] + c.off
    s = np.bincount(c.idx, fn(x), minlength=a.size + total.size)
    return s[:a.size].reshape(a.shape), s[a.size:].reshape(total.shape)


def _is_count(f):
    """Where f holds a finite non-negative integer (NaN compares false)."""
    return (f >= 0) & (f < np.inf) & (f == np.trunc(f))


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
    along a column's total), so the fitted values depend on max_iters: at
    the acceptance training size (seed 3) 19 of 20 prior columns and 14 of
    the confusion fit's 19 do.

    The (fit, column) pairs are independent, so all of them run in
    lockstep.  Each round evaluates one batched gradient and one batched
    evidence call over all the pairs, with TRIALS trials per pair: at its
    step, half of it and a quarter of it.  Their counts are prepared
    (PreparedCounts) once, as they are and stacked per trial, and a pair
    that stops is masked: none of its later trials is tried.  It takes the
    first trial that is accepted, which is what the ascent does after at
    most TRIALS - 1 rejections, and ignores every trial the ascent would
    not have tried (after an accepted one, or at a step below the floor).
    So the result is bit for bit that of one ascent per column, and zero
    count rows add no units, so they change no fit wherever they sit: an
    environment zeroed fits as one removed.  A column with no counts
    keeps its init.  EvidenceError names the first column, in (fit, column)
    order, whose counts are not finite non-negative integers or, failing
    that, whose evidence is not finite at initialization or, failing that,
    in the earliest round.
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
    _check_finite(_is_count(f).all(axis=(1, 2)), batch, fit, cols,
                  "counts must be finite non-negative integers")
    counts, trials = PreparedCounts(f), PreparedCounts(np.stack((f,) * TRIALS))
    fcur = log_evidence(np.exp(theta), counts)
    _check_finite(np.isfinite(fcur), batch, fit, cols,
                  "non-finite evidence at initialization")
    lo, hi = np.log(ALPHA_FLOOR), np.log(ALPHA_CEIL)
    halvings = 0.5 ** np.arange(TRIALS)[:, None]  # powers of two: exact
    step = np.ones(cols.size)
    grads = np.zeros(cols.size, dtype=np.int64)
    moved = np.ones(cols.size, dtype=bool)    # theta moved since the last gradient
    running = np.ones(cols.size, dtype=bool)  # stopped pairs stay frozen
    while True:
        # where theta did not move, the gradient comes out bit for bit the same
        a = np.exp(theta)
        g = log_evidence_grad(a, counts) * a  # chain rule into log space
        # a pair stops at its step's floor (only rejections take it there)
        # or, after a move, at max_iters gradients or a gradient below tol
        running &= (step > 1e-14) & ~(moved & ((grads >= max_iters)
                                               | (np.abs(g).max(axis=1) < tol)))
        if not running.any():
            break
        grads += moved
        steps = step * halvings
        trial = np.clip(theta + steps[:, :, None] * g, lo, hi)
        fnew = log_evidence(np.exp(trial), trials)
        tried = running & (steps > 1e-14)
        acc = tried & (fnew > fcur)
        # the ascent tries a step above the floor once every larger one failed
        seen = tried & (np.cumsum(acc, axis=0) - acc == 0)
        _check_finite((np.isfinite(fnew) | ~seen).all(axis=0), batch,
                      fit, cols, "non-finite evidence during ascent")
        moved = acc.any(axis=0)
        first = (acc.argmax(axis=0), np.arange(cols.size))  # first accepted
        theta = np.where(moved[:, None], trial[first], theta)
        fcur = np.where(moved, fnew[first], fcur)
        # doubled after an accepted trial, else halved once per rejection
        step = np.where(moved, np.minimum(steps[first] * 2.0, 1e6),
                        step * 0.5 ** seen.sum(axis=0))
    alpha[fit, :, cols] = np.maximum(np.exp(theta), ALPHA_FLOOR)
    return alpha.reshape(batch + (nu, nu))


def _check_finite(ok: np.ndarray, batch: tuple, fit: np.ndarray,
                  cols: np.ndarray, message: str) -> None:
    """Raise EvidenceError for the first (fit, column) pair not ok."""
    if not ok.all():
        c = np.argmin(ok)
        if batch:
            index = tuple(int(i) for i in np.unravel_index(fit[c], batch))
            message = f"{message} in fit {index}"
        raise EvidenceError(int(cols[c]), message)
