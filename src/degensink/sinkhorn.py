"""The scaling (IPFP) iteration in potential form, its stopping criterion,
the duality gaps of a state, and extraction of the two limit couplings.

With reference R and targets (mu, nu), the iteration is

    b^0 = 1,
    a^{n+1}_i = mu_i / sum_j b^n_j R_ij,      P^{n+1} = a^{n+1} (x) b^n     . R,
    b^{n+1}_j = nu_j / sum_i a^{n+1}_i R_ij,  Q^{n+1} = a^{n+1} (x) b^{n+1} . R.

P^n has first marginal mu exactly after every a-update, Q^n second marginal
nu after every b-update.  When no coupling dominated by R matches both
marginals, the two sequences still converge, to distinct limits P* and Q*;
these solve the problems with modified second marginal nu* = lim col(P^n)
and modified first marginal mu* = lim row(Q^n) respectively, and their
componentwise geometric mean R* solves the problem between the geometric
mean marginals sqrt(mu* mu) and sqrt(nu* nu).

In that degenerate regime some potentials diverge.  ``run_sinkhorn`` and
the support detectors share one absorption-stabilized kernel (Schmitzer,
SIAM J. Sci. Comput. 2019): scaled potentials a, b are updated at
matrix-vector speed and folded into a log-kernel whenever they leave a
fixed window.  ``sinkhorn_step`` keeps the literal recursion, whose
potentials are a^n and b^n themselves until the first float overflow.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import Assumption1Violated, OverflowDetected
from .measures import (
    as_triple,
    geometric_mean,
    marginal_col,
    marginal_row,
    rel_entropy,
    rel_entropy_coupling,
    total_mass,
    tv_distance,
)
from .scalability import _require_assumption1

__all__ = [
    "StopConfig",
    "SinkhornState",
    "SolveReport",
    "init_state",
    "sinkhorn_step",
    "current_P",
    "current_Q",
    "gap_balanced",
    "gap_unbalanced",
    "run_sinkhorn",
    "detect_limit_support",
    "potentials_phi_psi",
    "check_optimality",
    "OptimalityDiagnostics",
]

MODE_ITERATE_DELTA = "iterate-delta"

_ABSORB = 1e50
_ZERO_STREAK = 50
# An entry is a structural zero of the limit once it stays below
# Z_TOL_FACTOR * M(mu) for _ZERO_STREAK consecutive iterations.
Z_TOL_FACTOR = 1e-12
# A rebuilt kernel entry below _FLUSH * M(mu) is set to 0 (_LogIteration._absorb).
_FLUSH = Z_TOL_FACTOR / _ABSORB ** 3
_OPTIMALITY_TOL = 1e-6  # of OptimalityDiagnostics.violations


def _check_max_iter(max_iter):
    """Reject an iteration cap that is not an integer (a Python or numpy
    one) of at least 1: ``range`` would fail on it mid-solve."""
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")


def _check_lam(lam):
    """Reject a penalization weight that is not > 0; NaN fails every
    comparison."""
    if not lam > 0:
        raise ValueError(f"lam must be a positive number, got {lam!r}")


@dataclass(frozen=True)
class StopConfig:
    """Stopping rule for :func:`run_sinkhorn`: the iterate-delta criterion
    at threshold ``epsilon_tol`` within ``max_iter`` iterations.

    The criterion is the move max(TV(P^n, P^{n-1}), TV(Q^n, Q^{n-1})),
    which fires on degenerate triples too.  A run whose moves stay at or
    below 1e-15 M(mu) also ends on its stall exit (see
    :func:`run_sinkhorn`); with ``epsilon_tol`` at or above that floor the
    criterion fires first.  ``mode`` names the criterion and takes only
    "iterate-delta".  NaN settings and a ``max_iter`` that is not an
    integer of at least 1 are rejected.
    """

    epsilon_tol: float = 1e-3
    max_iter: int = 100_000
    mode: str = MODE_ITERATE_DELTA

    def __post_init__(self):
        if not self.epsilon_tol >= 0:  # NaN fails every comparison
            raise ValueError("epsilon_tol must be a nonnegative number")
        _check_max_iter(self.max_iter)
        if self.mode != MODE_ITERATE_DELTA:
            raise ValueError(f"unknown stopping mode {self.mode!r}")


@dataclass(frozen=True)
class SinkhornState:
    """Dual potentials after ``iteration`` full (a, b) updates.

    ``b_prev`` is the b vector from before the latest b-update, so that
    the coupling P^n = a (x) b_prev . R of the most recent a-update can be
    reconstructed.  ``overflow_flag`` is set in a :func:`run_sinkhorn`
    report when the kernel absorbed its scaled potentials at least once;
    ``sinkhorn_step`` never sets it.
    """

    a: np.ndarray
    b: np.ndarray
    b_prev: np.ndarray
    iteration: int = 0
    overflow_flag: bool = False


def init_state(n_rows, n_cols):
    """Fresh state with unit potentials (b^0 = 1)."""
    return SinkhornState(a=np.ones(n_rows), b=np.ones(n_cols), b_prev=np.ones(n_cols))


def current_P(state, r):
    """Coupling of the latest a-update: a^n (x) b^{n-1} . R."""
    return state.a[:, None] * state.b_prev[None, :] * np.asarray(r, dtype=float)


def current_Q(state, r):
    """Coupling of the latest b-update: a^n (x) b^n . R."""
    return state.a[:, None] * state.b[None, :] * np.asarray(r, dtype=float)


def sinkhorn_step(state, r, mu, nu):
    """One full (a then b) update of the potentials: the literal recursion,
    whose ``a`` and ``b`` are a^n and b^n themselves.

    Rows with mu_i = 0 keep a_i = 0; a zero denominator under positive
    target mass means the iteration is undefined (Assumption1Violated).
    On a degenerate triple some potentials diverge, and the first float
    overflow raises OverflowDetected (on the worked example at step
    1,023); :func:`run_sinkhorn` is the form for long runs.  Raises
    ValueError on NaN, infinite or negative input.
    """
    r, mu, nu = as_triple(r, mu, nu)
    try:
        with np.errstate(over="raise"):
            den_a = r @ state.b
            if np.any((mu > 0) & (den_a == 0.0)):
                raise Assumption1Violated("zero denominator under positive first-marginal mass")
            a = np.where(mu > 0, mu / np.where(den_a > 0, den_a, 1.0), 0.0)
            den_b = r.T @ a
            if np.any((nu > 0) & (den_b == 0.0)):
                raise Assumption1Violated("zero denominator under positive second-marginal mass")
            b = np.where(nu > 0, nu / np.where(den_b > 0, den_b, 1.0), 0.0)
    except FloatingPointError as exc:
        raise OverflowDetected(f"float overflow at step {state.iteration + 1} ({exc}); "
                               "run_sinkhorn absorbs diverging potentials") from exc
    return replace(state, a=a, b=b, b_prev=state.b, iteration=state.iteration + 1)


def _log_dot(log_vec, weights):
    """<log v, w> over the support of w; 0-mass entries contribute nothing."""
    sup = weights > 0
    return float(np.sum(weights[sup] * log_vec[sup])) if sup.any() else 0.0


def _gap_unbalanced_from_logs(log_a, log_b_prev, p, r, mu, nu, lam):
    sup = nu > 0
    pen = float(np.sum(nu[sup] * (1.0 - np.exp(-log_b_prev[sup] / lam)))) if sup.any() else 0.0
    return (rel_entropy_coupling(p, r)
            + lam * (rel_entropy(marginal_col(p), nu) - pen)
            - _log_dot(log_a, mu))


def _safe_log(v):
    with np.errstate(divide="ignore"):
        return np.log(v)


def gap_balanced(state, r, mu, nu):
    """Duality-gap stopping value SC^n = H(P^n|R) - <log a^n, mu> - <log b^{n-1}, nu>.

    Nonnegative along the iteration; converges to 0 on scalable problems
    with mass-matched reference (it tends to M(R) - M(mu) in general, and
    stays bounded away from 0 in the non-scalable case).  Raises
    ValueError on NaN, infinite or negative input.
    """
    r, mu, nu = as_triple(r, mu, nu)
    return (rel_entropy_coupling(current_P(state, r), r)
            - _log_dot(_safe_log(state.a), mu) - _log_dot(_safe_log(state.b_prev), nu))


def gap_unbalanced(state, r, mu, nu, lam):
    """Penalized stopping value

    SCu^n = H(P^n|R) + lam (H(nu^{P^n}|nu) - <1 - (1/b^{n-1})^{1/lam}, nu>) - <log a^n, mu>.

    A value of a state, not a stopping rule: zero at the fixed point
    when R already has the marginals mu and nu, and the balanced gap in
    the limit lam -> inf at a state whose P^n has second marginal nu.  In
    the non-scalable case it dips along the iteration for a number of
    iterations of order lam and then diverges with the potentials.
    Raises ValueError on NaN, infinite or negative input and on a ``lam``
    that is not > 0.
    """
    r, mu, nu = as_triple(r, mu, nu)
    _check_lam(lam)
    return _gap_unbalanced_from_logs(_safe_log(state.a), _safe_log(state.b_prev),
                                     current_P(state, r), r, mu, nu, float(lam))


@dataclass
class SolveReport:
    """Outcome of a scaling run.

    ``p_star``/``q_star`` are the final iterates of the two sequences,
    ``r_star`` their componentwise geometric mean with mass ``z_norm`` and
    normalization ``r_bar_star = r_star / z_norm``.  ``mu_star``/``nu_star``
    are the modified marginals (row sums of q_star, column sums of p_star)
    and ``mu_g``/``nu_g`` their componentwise geometric means with the
    targets.  ``structural_support`` marks entries of R judged to survive
    in the limit (an entry is a structural zero after staying below
    z_tol = 1e-12 M(mu) for 50 consecutive iterations).  ``stop_reason``
    says why the run ended: "criterion" (the stopping criterion fired),
    "stall" (the stall exit of :func:`run_sinkhorn`) or "max_iter" (the
    iteration cap).  ``rate_slope`` and ``rate_r_squared`` are None from
    :func:`run_sinkhorn`; :func:`degensink.support.masked_solve` fits
    them on every run: the least-squares slope of log10 of the moves in
    ``gap_trace`` against n, and the R^2 of that fit (None when fewer
    than three moves are usable).  ``state`` holds
    exp of the log potentials, which leave float range once the kernel
    has absorbed (10 zeros in ``a``, 10 infs in ``b`` on the 10-block
    100 x 100 staircase at iteration 1,323); only its ``overflow_flag``
    and ``iteration`` mean anything then."""

    p_star: np.ndarray
    q_star: np.ndarray
    r_star: np.ndarray
    r_bar_star: np.ndarray
    mu_star: np.ndarray
    nu_star: np.ndarray
    mu_g: np.ndarray
    nu_g: np.ndarray
    z_norm: float
    iterations: int
    converged: bool
    stop_reason: str
    structural_support: np.ndarray
    gap_trace: list = field(default_factory=list)
    state: SinkhornState | None = None
    rate_slope: float | None = None
    rate_r_squared: float | None = None


class _LogIteration:
    """The scaling recursion, stabilized by absorption.

    With log-potentials u = U + log a, v = V + log b and the kernel
    K = R . exp(U (+) V), a step is two matrix-vector products, the exact
    projections a = mu / K b and b = nu / K^T a.  Scaled potentials
    outside [1/_ABSORB, _ABSORB] are absorbed into U, V and K is rebuilt
    from log R, so no float overflows however far u and v diverge.
    Massless rows and columns keep a zero scaling.

    The kernel keeps R on supp(R) only: ``entries`` are its flat
    (row-major) indices, with their ``entry_rows`` and ``entry_cols``,
    fixed at construction.  ``log_r`` is log R on that entry list and -inf
    on its dead entries: those on massless rows and columns (the first
    step uses R itself, like the literal recursion's b^0 = 1; a rebuilt K
    is zero there) and those removed by :meth:`drop`, the one way to
    shrink the kernel.  :meth:`couplings` returns P and Q as vectors over
    the list, which :meth:`scatter` puts back into an n x m array; K is 0
    off the list, so the vectors hold every nonzero entry.
    """

    def __init__(self, r, mu, nu):
        self.k_floor = _FLUSH * total_mass(mu)
        self._set_masses(mu, nu)
        self.entries = np.flatnonzero(r)
        self.entry_rows, self.entry_cols = np.divmod(self.entries, r.shape[1])
        self._row_counts = np.bincount(self.entry_rows, minlength=mu.size)
        self.k = self._ref = r  # the caller's R, never written into
        self._k_on = r.take(self.entries)  # K on the entry list
        self.log_r = np.log(self._k_on)
        # live entries per row and column; those on massless ones are dead
        self._live_rows = self._row_counts.copy()
        self._live_cols = np.bincount(self.entry_cols, minlength=nu.size)
        self._kill(np.flatnonzero(~(self.rows[self.entry_rows] & self.cols[self.entry_cols])))
        self.u_abs = np.zeros(mu.size)
        self.v_abs = np.zeros(nu.size)
        self.a = np.ones(mu.size)
        self.b = self.b_prev = np.ones(nu.size)
        self.absorbed = False
        self._b_on = (None, None)  # (b, b on the entry list), reused for b_prev

    def _set_masses(self, mu, nu):
        self.mu, self.nu = mu, nu
        self.rows, self.cols = mu > 0, nu > 0
        # massless rows/columns get the scaling 0/(den + 1) = 0, never 0/0
        self.pad = (~np.concatenate((self.rows, self.cols))).astype(float)
        self.pad_row, self.pad_col = self.pad[:mu.size], self.pad[mu.size:]

    def drop(self, off):
        """Zero the reference in place on the entries where the boolean
        mask ``off`` over the entry list is set; rows and columns left
        without a live entry become massless.  Dead entries may be dropped
        again, to no effect."""
        idx = np.flatnonzero(off & (self.log_r > -np.inf))  # the live entries among them
        if self.k is self._ref:
            self.k = self.k.copy()
        self.k.put(self.entries[idx], 0.0)
        self._k_on[idx] = 0.0
        self._kill(idx)
        self._set_masses(np.where(self._live_rows > 0, self.mu, 0.0),
                         np.where(self._live_cols > 0, self.nu, 0.0))

    def _kill(self, idx):
        """Mark the live entries at positions ``idx`` of the list dead."""
        self.log_r[idx] = -np.inf
        self._live_rows -= np.bincount(self.entry_rows[idx], minlength=self._live_rows.size)
        self._live_cols -= np.bincount(self.entry_cols[idx], minlength=self._live_cols.size)

    def _absorb(self):
        """Fold the scaled potentials into U, V and rebuild K, setting to 0
        every entry below the floor _FLUSH M(mu) = z_tol / _ABSORB^3.

        While the scaled potentials stay in [1/_ABSORB, _ABSORB], such an
        entry gives P_ij = a_i b_j K_ij <= _ABSORB^2 K_ij < z_tol / _ABSORB,
        below z_tol with the flush and without it.  So the structural-zero
        record cannot change; P and Q change only on entries below
        z_tol / _ABSORB, far under the float resolution of the moves and
        the gaps, and the iteration counts stay the same.  What goes are
        the subnormal entries of K and the products K_ij b_j that would
        underflow: every entry left is at least 1e-162 M(mu) and every
        such product at least 1e-212 M(mu), so no matrix-vector product
        takes the slow subnormal path.  The floor scales with the mass, as
        z_tol does."""
        self.u_abs[self.rows] += np.log(self.a[self.rows])
        self.v_abs[self.cols] += np.log(self.b[self.cols])
        self.b = 1.0 - self.pad_col
        k_on = np.exp(self.log_r + self.u_abs.take(self.entry_rows) + self.v_abs.take(self.entry_cols))
        k_on[k_on < self.k_floor] = 0.0
        self.k, self._k_on = self.scatter(k_on), k_on
        self.absorbed = True

    def update_a(self):
        """The a half-update (P^n of :meth:`couplings`), absorbing first
        when a scaled potential has left the window."""
        # initial=1 lies inside the window; the pads lift the zero scalings
        # of massless rows and columns to 1, outside the minimum's reach
        scalings = np.concatenate((self.a, self.b))
        if scalings.max(initial=1.0) > _ABSORB or (scalings + self.pad).min(initial=1.0) < 1.0 / _ABSORB:
            self._absorb()
        self.b_prev = self.b
        self.a = self.mu / (self.k @ self.b + self.pad_row)

    def update_b(self, kta=None):
        """The b half-update (Q^n of :meth:`couplings`); ``kta`` is K^T a
        when the caller has it already."""
        self.b = self.nu / ((self.k.T @ self.a if kta is None else kta) + self.pad_col)

    def step(self):
        self.update_a()
        self.update_b()

    def couplings(self):
        """P = a (x) b_prev . K and Q = a (x) b . K on the entry list, each
        entry (a_i K_ij) b_j."""
        b_src, b_on = self._b_on
        b_prev_on = b_on if self.b_prev is b_src else self.b_prev.take(self.entry_cols)
        self._b_on = self.b, self.b.take(self.entry_cols)
        # the entries run row by row, so a_i repeats over row i's entries
        ak = np.repeat(self.a, self._row_counts) * self._k_on
        return ak * b_prev_on, ak * self._b_on[1]

    def scatter(self, values):
        """The n x m array with ``values`` on the entry list and 0 off it."""
        out = np.zeros(self.k.shape, dtype=values.dtype)
        np.put(out, self.entries, values)
        return out

    # Log-potentials, -inf where the scaling is zero; each caller takes
    # only the ones it reads.
    def log_a(self):
        """u = U + log a."""
        return self.u_abs + _safe_log(self.a)

    def log_b(self):
        """v = V + log b."""
        return self.v_abs + _safe_log(self.b)

    def log_b_prev(self):
        """V + log b_prev, the v of P^n."""
        return self.v_abs + _safe_log(self.b_prev)


def run_sinkhorn(r, mu, nu, cfg=None):
    """Run the scaling iteration until the iterate-delta criterion fires.

    Parameters
    ----------
    r, mu, nu : array-like
        Reference coupling and target marginals.
    cfg : StopConfig, optional
        Threshold and iteration cap; defaults to ``StopConfig()``, 1e-3
        within 100,000 iterations.

    Returns a :class:`SolveReport`; ``converged`` is False when the run
    ended without meeting the criterion, and ``stop_reason`` tells why.
    ``gap_trace`` holds the successive moves
    max(TV(P^n, P^{n-1}), TV(Q^n, Q^{n-1})), and the run also stops
    ("stall") once the iterates are numerically stationary: moves at or
    below 1e-15 M(mu) for 50 consecutive iterations, with every
    structural-zero streak complete.  The criterion is tested first, so
    only a threshold below that floor, such as the 0 of
    :func:`detect_limit_support`, can reach the stall.  P^n, Q^n, the
    moves and the structural-zero record are formed on supp(R) only, and
    P*, Q* and ``structural_support`` scattered back to n x m at the end.
    The record is the last 50 masks P^n < z_tol, bit-packed in a ring
    (6.25 bytes per support entry); ``structural_support`` and the stall
    test are ANDs over it.  Raises ValueError on inconsistent shapes and
    on NaN, infinite or negative input, and OverflowDetected as soon as a
    float leaves its range: a product overflows, or a denominator
    underflows to 0, as with masses near either end of the float range.
    """
    r, mu, nu = _require_assumption1(r, mu, nu)
    cfg = cfg or StopConfig()

    mass = total_mass(mu)
    z_tol = Z_TOL_FACTOR * mass
    stall_tol = 1e-15 * mass
    kernel = _LogIteration(r, mu, nu)
    # the masks p < z_tol on the entry list of the last _ZERO_STREAK
    # iterations, bit-packed; all ones before the first, so their AND
    # covers only the iterations run
    zero_ring = np.full((_ZERO_STREAK, (kernel.entries.size + 7) // 8), 0xFF, dtype=np.uint8)
    trace = []
    prev_p = prev_q = None
    converged = False
    stop_reason = "max_iter"
    stall_run = 0

    try:
        with np.errstate(over="raise", divide="raise"):
            for n in range(1, cfg.max_iter + 1):
                kernel.step()
                p, q = kernel.couplings()
                zeros = zero_ring[n % _ZERO_STREAK] = np.packbits(p < z_tol)

                gap = math.inf if prev_p is None else max(tv_distance(p, prev_p), tv_distance(q, prev_q))
                prev_p, prev_q = p, q
                trace.append((n, gap))

                if gap <= cfg.epsilon_tol:
                    converged, stop_reason = True, "criterion"
                    break

                stall_run = stall_run + 1 if gap <= stall_tol else 0
                # every entry below z_tol now has been for _ZERO_STREAK iterations
                if stall_run >= _ZERO_STREAK and n >= 2 * _ZERO_STREAK and \
                        np.array_equal(np.bitwise_and.reduce(zero_ring), zeros):
                    stop_reason = "stall"
                    break
    except FloatingPointError as exc:
        # an overflow, or a division by a denominator that underflowed to 0
        what = "float overflow" if "overflow" in str(exc) else "a float left its range"
        raise OverflowDetected(f"{what} at iteration {n} ({exc}); "
                               "masses near the float limit cause it") from exc

    with np.errstate(over="ignore"):
        state = SinkhornState(a=np.exp(kernel.log_a()), b=np.exp(kernel.log_b()),
                              b_prev=np.exp(kernel.log_b_prev()),
                              iteration=n, overflow_flag=kernel.absorbed)

    held = np.unpackbits(np.bitwise_and.reduce(zero_ring), count=p.size).astype(bool)
    structural = kernel.scatter(~held)  # the entry list is supp(R)
    # R* is 0 off the entry list, so its mass is the fsum over the list
    r_entries = geometric_mean(p, q)
    z = math.fsum(r_entries.tolist())
    p, q, r_star = kernel.scatter(p), kernel.scatter(q), kernel.scatter(r_entries)
    return SolveReport(
        p_star=p,
        q_star=q,
        r_star=r_star,
        r_bar_star=r_star / z if z > 0 else np.zeros_like(r_star),
        mu_star=marginal_row(q),
        nu_star=marginal_col(p),
        mu_g=geometric_mean(marginal_row(q), mu),
        nu_g=geometric_mean(marginal_col(p), nu),
        z_norm=z,
        iterations=n,
        converged=converged,
        stop_reason=stop_reason,
        structural_support=structural,
        gap_trace=trace,
        state=state,
    )


def detect_limit_support(r, mu, nu, max_iter=50_000):
    """Structural support of the limit couplings from a long scaling run.

    Runs the iterate-delta criterion at threshold 0, which never fires, so
    the run ends on the stall exit of :func:`run_sinkhorn` or at
    ``max_iter``; returns the boolean support mask together with the
    report.
    """
    report = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=0.0, max_iter=max_iter))
    return report.structural_support, report


def potentials_phi_psi(report, mu, nu):
    """Log-ratios phi_i = log(mu*_i / mu_i), psi_j = log(nu*_j / nu_j).

    Entries outside the supports of mu, nu carry NaN (the ratios are 0/0
    there and never enter any optimality condition)."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    phi = np.full(mu.shape, np.nan)
    psi = np.full(nu.shape, np.nan)
    smu = mu > 0
    snu = nu > 0
    with np.errstate(divide="ignore"):
        phi[smu] = np.log(report.mu_star[smu] / mu[smu])
        psi[snu] = np.log(report.nu_star[snu] / nu[snu])
    return phi, psi


@dataclass(frozen=True)
class OptimalityDiagnostics:
    """Residuals of the limit-point optimality conditions.

    ``eq_ratio_residual``: worst entrywise violation of
    P*_ij = (mu_i/mu*_i) Q*_ij and Q*_ij = (nu_j/nu*_j) P*_ij.
    ``support_sum_residual``: max |phi_i + psi_j| over the common support.
    ``min_sum_on_E``: min of phi_i + psi_j over supp R x supp mu x supp nu
    (must be >= 0 up to tolerance).
    ``swap_residuals``: |H(nu|nu*) - H(mu*|mu)| and |H(mu|mu*) - H(nu*|nu)|.
    ``mass_residuals``: |M(nu*) - M(mu)| and |M(mu*) - M(nu)|.

    :meth:`violations` lists every residual beyond 1e-6, and every NaN one.
    """

    eq_ratio_residual: float
    support_sum_residual: float
    min_sum_on_E: float
    swap_residuals: tuple
    mass_residuals: tuple

    def violations(self):
        tol = _OPTIMALITY_TOL
        out = []
        if not self.eq_ratio_residual <= tol:
            out.append(f"limit-ratio identity off by {self.eq_ratio_residual:.3g}")
        if not self.support_sum_residual <= tol:
            out.append(f"phi+psi on support off by {self.support_sum_residual:.3g}")
        if not self.min_sum_on_E >= -tol:
            out.append(f"phi+psi negative on E: {self.min_sum_on_E:.3g}")
        for name, v in zip(("H(nu|nu*) vs H(mu*|mu)", "H(mu|mu*) vs H(nu*|nu)",
                            "M(nu*) vs M(mu)", "M(mu*) vs M(nu)"),
                           self.swap_residuals + self.mass_residuals):
            if not v <= tol:
                out.append(f"{name} differ by {v:.3g}")
        return out

    def passed(self):
        return not self.violations()


def check_optimality(report, r, mu, nu):
    """Verify the limit-point optimality conditions on a report.

    Checks the entrywise ratio identities between P* and Q*, the sign
    structure of phi_i + psi_j (zero on the common support, nonnegative on
    supp R within the marginal supports), the swapped-entropy identities
    and the mass identities.  Returns an :class:`OptimalityDiagnostics`
    record.  Raises ValueError on NaN, infinite or negative input.
    """
    r, mu, nu = as_triple(r, mu, nu)
    p, q = report.p_star, report.q_star
    mu_star, nu_star = report.mu_star, report.nu_star

    ratio_mu = np.where(mu_star > 0, mu / np.where(mu_star > 0, mu_star, 1.0), 0.0)
    ratio_nu = np.where(nu_star > 0, nu / np.where(nu_star > 0, nu_star, 1.0), 0.0)
    res1 = float(np.abs(p - ratio_mu[:, None] * q).max(initial=0.0))
    res2 = float(np.abs(q - ratio_nu[None, :] * p).max(initial=0.0))

    phi, psi = potentials_phi_psi(report, mu, nu)
    e_mask = (r > 0) & (mu > 0)[:, None] & (nu > 0)[None, :]
    s_mask = report.structural_support & e_mask
    sums = phi[:, None] + psi[None, :]
    support_res = float(np.abs(sums[s_mask]).max()) if s_mask.any() else 0.0
    min_on_e = float(sums[e_mask].min()) if e_mask.any() else 0.0

    swap = (
        abs(rel_entropy(nu, nu_star) - rel_entropy(mu_star, mu)),
        abs(rel_entropy(mu, mu_star) - rel_entropy(nu_star, nu)),
    )
    masses = (
        abs(total_mass(nu_star) - total_mass(mu)),
        abs(total_mass(mu_star) - total_mass(nu)),
    )
    return OptimalityDiagnostics(
        eq_ratio_residual=max(res1, res2),
        support_sum_residual=support_res,
        min_sum_on_E=min_on_e,
        swap_residuals=swap,
        mass_residuals=masses,
    )
