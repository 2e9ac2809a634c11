"""Measures, couplings and relative entropy on finite spaces.

A measure on a finite set is a 1-d float64 array of nonnegative weights; a
coupling between an N-point set and an M-point set is an (N, M) float64
array of nonnegative entries.  All functions here are pure: inputs are
never mutated, and every returned array is freshly allocated.

Zero handling follows the set-theoretic conventions of relative entropy:
``a * log(a/0) = +inf`` for ``a > 0``, ``0 * log 0 = 0 * log(0/0) = 0``,
and ratios ``0/0`` in marginal projections equal 0 by an explicit branch.
An entry is zero iff it is exactly ``0.0``; no tolerance is applied.
"""

import math

import numpy as np

from .errors import InfeasibleProjection

__all__ = [
    "as_measure",
    "as_coupling",
    "total_mass",
    "marginal_row",
    "marginal_col",
    "rel_entropy",
    "rel_entropy_coupling",
    "project_first_marginal",
    "project_second_marginal",
    "geometric_mean",
    "tv_distance",
]


def as_measure(weights):
    """Validate and return a measure as a 1-d float64 array.

    Raises ValueError on negative weights or non-finite entries.
    """
    m = np.asarray(weights, dtype=float)
    if m.ndim != 1:
        raise ValueError(f"measure must be 1-d, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("measure weights must be finite")
    if m.size and m.min() < 0:
        raise ValueError("measure weights must be nonnegative")
    return m.copy()


def as_coupling(entries):
    """Validate and return a coupling as a 2-d float64 array."""
    r = np.asarray(entries, dtype=float)
    if r.ndim != 2:
        raise ValueError(f"coupling must be 2-d, got shape {r.shape}")
    if r.size and not np.isfinite(r).all():
        raise ValueError("coupling entries must be finite")
    if r.size and r.min() < 0:
        raise ValueError("coupling entries must be nonnegative")
    return r.copy()


def total_mass(m):
    """Sum of all weights of a measure (or of all entries of a coupling)."""
    return math.fsum(np.asarray(m, dtype=float).ravel())


def marginal_row(r):
    """First marginal of a coupling: row sums, a measure on the row space."""
    return np.asarray(r, dtype=float).sum(axis=1)


def marginal_col(r):
    """Second marginal of a coupling: column sums."""
    return np.asarray(r, dtype=float).sum(axis=0)


def _entropy_terms(p, r):
    """Sum of p*log(p/r) over the support of p, or +inf if p is not
    absolutely continuous w.r.t. r."""
    sup = p > 0
    if np.any(sup & (r == 0.0)):
        return math.inf
    ps = p[sup]
    return float(np.sum(ps * np.log(ps / r[sup])))


def rel_entropy(p, r):
    """Relative entropy H(p | r) = sum_k { p_k log(p_k/r_k) + r_k - p_k }.

    Returns a value in [0, +inf]; ``math.inf`` signals that p is not
    absolutely continuous w.r.t. r.  Raises ValueError on length mismatch.
    """
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    if p.shape != r.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {r.shape}")
    core = _entropy_terms(p.ravel(), r.ravel())
    if core == math.inf:
        return math.inf
    val = core + float(r.sum() - p.sum())
    # Rounding can push tiny true values below zero; the functional is >= 0.
    return max(val, 0.0)


def rel_entropy_coupling(p, r):
    """Relative entropy of two couplings of the same shape (entrywise sum)."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    if p.shape != r.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {r.shape}")
    return rel_entropy(p.ravel(), r.ravel())


def project_first_marginal(r, mu):
    """Entropy projection of the coupling ``r`` onto the set of couplings
    with first marginal ``mu``.

    The unique minimizer of H(P | r) under ``marginal_row(P) = mu`` is
    ``P_ij = (mu_i / mu^r_i) r_ij`` with the 0/0 = 0 convention, and its
    optimal value is H(mu | mu^r).  It exists iff ``mu`` is absolutely
    continuous w.r.t. ``mu^r``; otherwise InfeasibleProjection is raised.
    """
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (r.shape[0],):
        raise ValueError(f"first marginal has length {mu.shape}, expected {r.shape[0]}")
    row = marginal_row(r)
    if np.any((mu > 0) & (row == 0.0)):
        raise InfeasibleProjection("target first marginal not absolutely continuous w.r.t. mu^R")
    ratio = np.zeros_like(mu)
    pos = row > 0
    ratio[pos] = mu[pos] / row[pos]
    return ratio[:, None] * r


def project_second_marginal(r, nu):
    """Column analogue of :func:`project_first_marginal`."""
    r = np.asarray(r, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (r.shape[1],):
        raise ValueError(f"second marginal has length {nu.shape}, expected {r.shape[1]}")
    col = marginal_col(r)
    if np.any((nu > 0) & (col == 0.0)):
        raise InfeasibleProjection("target second marginal not absolutely continuous w.r.t. nu^R")
    ratio = np.zeros_like(nu)
    pos = col > 0
    ratio[pos] = nu[pos] / col[pos]
    return ratio[None, :] * r


def geometric_mean(p, q):
    """Componentwise geometric mean sqrt(p_ij * q_ij) of two couplings."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return np.sqrt(p * q)


def tv_distance(p, q):
    """Entrywise L1 distance sum_ij |p_ij - q_ij|, as a numpy pairwise sum:
    solvers call it every iteration, so it does not use ``math.fsum``."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(np.abs(p - q).sum())
