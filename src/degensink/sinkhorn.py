"""The scaling (IPFP) iteration in potential form, its stopping criteria,
and extraction of the two limit couplings.

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
the penalized solvers share one absorption-stabilized kernel (Schmitzer,
SIAM J. Sci. Comput. 2019): scaled potentials a, b are updated at
matrix-vector speed and folded into a log-kernel whenever they leave a
fixed window.  ``sinkhorn_step`` keeps the literal recursion, with a
(c, 1/c) rescaling that recentres the geometric mean of the positive
entries of ``a`` at 1 (no product a_i b_j changes).
"""

import math
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
from .scalability import check_assumption1

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

MODE_BALANCED_GAP = "balanced-gap"
MODE_UNBALANCED_GAP = "unbalanced-gap"
MODE_ITERATE_DELTA = "iterate-delta"

_RESCALE_HI = 1e150
_RESCALE_LO = 1e-150
_ABSORB = 1e50
_ZERO_STREAK = 50
# An entry is a structural zero of the limit once it stays below
# Z_TOL_FACTOR * M(mu) for _ZERO_STREAK consecutive iterations.
Z_TOL_FACTOR = 1e-12
_OPTIMALITY_TOL = 1e-6  # of OptimalityDiagnostics.violations


@dataclass(frozen=True)
class StopConfig:
    """Stopping rule for :func:`run_sinkhorn`.

    ``epsilon_tol`` is the criterion threshold, ``lam`` the penalization
    weight used by the unbalanced-gap criterion (the default pairing
    lam = 1/epsilon_tol works well in practice), ``mode`` one of
    "balanced-gap", "unbalanced-gap", "iterate-delta".
    """

    epsilon_tol: float = 1e-3
    lam: float = 1e3
    max_iter: int = 100_000
    mode: str = MODE_UNBALANCED_GAP

    def __post_init__(self):
        if self.epsilon_tol < 0:
            raise ValueError("epsilon_tol must be nonnegative")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.mode not in (MODE_BALANCED_GAP, MODE_UNBALANCED_GAP, MODE_ITERATE_DELTA):
            raise ValueError(f"unknown stopping mode {self.mode!r}")


@dataclass(frozen=True)
class SinkhornState:
    """Dual potentials after ``iteration`` full (a, b) updates.

    ``b_prev`` is the b vector from before the latest b-update, so that
    the coupling P^n = a (x) b_prev . R of the most recent a-update can be
    reconstructed.  ``overflow_flag`` records that the potentials left
    their stable range at least once: in ``sinkhorn_step`` that the drift
    rescaling fired, in a :func:`run_sinkhorn` report that the kernel
    absorbed its scaled potentials at least once.
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
    """One full (a then b) update of the potentials.

    Rows with mu_i = 0 keep a_i = 0; a zero denominator under positive
    target mass means the iteration is undefined (Assumption1Violated).
    Potentials beyond the representable comfort zone trigger the
    (c, 1/c) recentring; a non-finite potential after that raises
    OverflowDetected.
    """
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    b_prev = state.b
    den_a = r @ b_prev
    if np.any((mu > 0) & (den_a == 0.0)):
        raise Assumption1Violated("zero denominator under positive first-marginal mass")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.where(mu > 0, mu / np.where(den_a > 0, den_a, 1.0), 0.0)
    den_b = r.T @ a
    if np.any((nu > 0) & (den_b == 0.0)):
        raise Assumption1Violated("zero denominator under positive second-marginal mass")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = np.where(nu > 0, nu / np.where(den_b > 0, den_b, 1.0), 0.0)

    overflow = state.overflow_flag
    pos = a > 0
    if pos.any():
        hi = max(a[pos].max(), b[b > 0].max() if (b > 0).any() else 0.0)
        lo = min(a[pos].min(), b[b > 0].min() if (b > 0).any() else math.inf)
        if hi > _RESCALE_HI or lo < _RESCALE_LO:
            # Recentre the geometric mean of a at 1; clip so the scaling
            # itself cannot push any potential over the representable cap
            # (products a_i b_j are invariant either way).
            log_c = -float(np.log(a[pos]).mean())
            bpos = b[b > 0]
            cap_hi = math.log(_RESCALE_HI)
            log_c = min(log_c, cap_hi - math.log(a[pos].max()))
            log_c = max(log_c, math.log(a[pos].min()) - cap_hi)
            if bpos.size:
                log_c = max(log_c, math.log(bpos.max()) - cap_hi)
                log_c = min(log_c, cap_hi + math.log(bpos.min()))
            c = math.exp(log_c)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                a = a * c
                b = b / c
                b_prev = b_prev / c
            overflow = True
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise OverflowDetected("non-finite potential after rescaling")
    return replace(state, a=a, b=b, b_prev=b_prev, iteration=state.iteration + 1,
                   overflow_flag=overflow)


def _log_dot(log_vec, weights):
    """<log v, w> over the support of w; 0-mass entries contribute nothing."""
    sup = weights > 0
    return float(np.sum(weights[sup] * log_vec[sup])) if sup.any() else 0.0


def _gap_balanced_from_logs(log_a, log_b_prev, p, r, mu, nu):
    return rel_entropy_coupling(p, r) - _log_dot(log_a, mu) - _log_dot(log_b_prev, nu)


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
    stays bounded away from 0 in the non-scalable case).
    """
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return _gap_balanced_from_logs(_safe_log(state.a), _safe_log(state.b_prev),
                                   current_P(state, r), r, mu, nu)


def gap_unbalanced(state, r, mu, nu, lam):
    """Penalized stopping value

    SCu^n = H(P^n|R) + lam (H(nu^{P^n}|nu) - <1 - (1/b^{n-1})^{1/lam}, nu>) - <log a^n, mu>.

    Used as the default stopping criterion with lam = 1/epsilon.  Note a
    caveat inherited from the formula: in the non-scalable case the trace
    dips for a number of iterations of order lam and later diverges, so it
    is a window criterion, not a limit.
    """
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
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
    z_tol = 1e-12 M(mu) for 50 consecutive iterations).  ``rate_slope`` and
    ``rate_r_squared`` are set by :func:`degensink.support.masked_solve`:
    the least-squares slope of log10 of the successive moves in
    ``gap_trace`` against n, and the R^2 of that fit."""

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
    structural_support: np.ndarray
    gap_trace: list = field(default_factory=list)
    state: SinkhornState | None = None
    rate_slope: float | None = None
    rate_r_squared: float | None = None


class _LogIteration:
    """The scaling recursion, stabilized by absorption.

    With log-potentials u = U + log a, v = V + log b and the kernel
    K = R . exp(U (+) V), a step is two matrix-vector products:
    a = (mu / K b)^kappa_row . exp((kappa_row - 1) U), then the same for b.
    kappa = 1 is the exact projection, kappa = lam/(1+lam) the proximal
    step of a KL penalty of weight lam (Chizat-Peyre-Schmitzer-Vialard,
    Math. Comp. 2018).  Scaled potentials outside [1/_ABSORB, _ABSORB]
    are absorbed into U, V and K is rebuilt from log R, so no float
    overflows however far u and v diverge.  Massless rows and columns keep
    a zero scaling; :meth:`restrict` zeroes reference entries as it goes.
    """

    def __init__(self, r, mu, nu, kappa=(1.0, 1.0)):
        self.kappa_row, self.kappa_col = kappa
        self._set_masses(mu, nu)
        with np.errstate(divide="ignore"):
            # a rebuilt kernel is zero on massless rows and columns; the
            # first step uses R itself, like the literal recursion's b^0 = 1
            self.log_r = np.log(r * (mu > 0)[:, None] * (nu > 0)[None, :])
        self.k = r
        self.u_abs = np.zeros(mu.size)
        self.v_abs = np.zeros(nu.size)
        self.damp_row = self.damp_col = 1.0
        self.a = np.ones(mu.size)
        self.b = self.b_prev = np.ones(nu.size)
        self.absorbed = False

    def _set_masses(self, mu, nu):
        self.mu, self.nu = mu, nu
        self.rows = slice(None) if (mu > 0).all() else mu > 0
        self.cols = slice(None) if (nu > 0).all() else nu > 0
        # massless rows/columns get the scaling 0/(den + 1) = 0, never 0/0
        self.pad_row = (mu == 0).astype(float)
        self.pad_col = (nu == 0).astype(float)

    def restrict(self, keep):
        """Zero the reference outside the boolean entry mask ``keep``;
        rows and columns left without an entry become massless."""
        self.log_r = np.where(keep, self.log_r, -np.inf)
        self.k = self.k * keep
        support = self.log_r > -np.inf
        self._set_masses(np.where(support.any(axis=1), self.mu, 0.0),
                         np.where(support.any(axis=0), self.nu, 0.0))

    def _absorb(self):
        self.u_abs[self.rows] += np.log(self.a[self.rows])
        self.v_abs[self.cols] += np.log(self.b[self.cols])
        self.b = 1.0 - self.pad_col
        self.k = np.exp(self.log_r + self.u_abs[:, None] + self.v_abs[None, :])
        self.damp_row = np.exp((self.kappa_row - 1.0) * self.u_abs)
        self.damp_col = np.exp((self.kappa_col - 1.0) * self.v_abs)
        self.absorbed = True

    def update_a(self):
        """The a half-update (P^n of :meth:`couplings`), absorbing first
        when a scaled potential has left the window."""
        # initial=1 lies inside the window and covers all-massless sides
        if max(self.a.max(initial=1.0), self.b.max(initial=1.0)) > _ABSORB or \
                min(self.a[self.rows].min(initial=1.0), self.b[self.cols].min(initial=1.0)) < 1.0 / _ABSORB:
            self._absorb()
        self.b_prev = self.b
        self.a = (self.mu / (self.k @ self.b + self.pad_row)) ** self.kappa_row * self.damp_row

    def update_b(self):
        """The b half-update (Q^n of :meth:`couplings`)."""
        self.b = (self.nu / (self.k.T @ self.a + self.pad_col)) ** self.kappa_col * self.damp_col

    def step(self):
        self.update_a()
        self.update_b()

    def couplings(self):
        """P = a (x) b_prev . K and Q = a (x) b . K."""
        ak = self.a[:, None] * self.k
        return ak * self.b_prev[None, :], ak * self.b[None, :]

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


def run_sinkhorn(r, mu, nu, cfg=None, *, stall_exit=False):
    """Run the scaling iteration until the configured criterion fires.

    Parameters
    ----------
    r, mu, nu : array-like
        Reference coupling and target marginals.
    cfg : StopConfig, optional
        Stopping rule; defaults to the unbalanced-gap criterion at 1e-3
        with lam = 1000.
    stall_exit : bool
        Also stop (with ``converged`` reflecting the criterion, not the
        stall) once the iterates are numerically stationary: successive
        total-variation moves below 1e-15 M(mu) for 50 consecutive steps
        with all structural-zero counters saturated.  Used by long-run
        support detection, where further iterations cannot change any
        decision but the diverging potentials eventually exhaust float
        range.

    Returns a :class:`SolveReport`; ``converged`` is False when max_iter
    (or a stall exit) was reached without meeting the criterion.  Under
    the iterate-delta mode ``gap_trace`` holds the successive moves
    max(TV(P^n, P^{n-1}), TV(Q^n, Q^{n-1})).  Raises ValueError on
    inconsistent shapes and on NaN, infinite or negative input.
    """
    r, mu, nu = as_triple(r, mu, nu)
    if not check_assumption1(r, mu, nu):
        raise Assumption1Violated("the scaling iteration is undefined for this triple")
    cfg = cfg or StopConfig()

    mass = total_mass(mu)
    z_tol = Z_TOL_FACTOR * mass
    stall_tol = 1e-15 * max(mass, 1.0)
    below = np.zeros(r.shape, dtype=np.int64)
    trace = []
    kernel = _LogIteration(r, mu, nu)
    prev_p = prev_q = None
    converged = False
    stall_run = 0

    for n in range(1, cfg.max_iter + 1):
        kernel.step()
        p, q = kernel.couplings()

        isbelow = p < z_tol
        below += isbelow
        below *= isbelow

        if cfg.mode == MODE_ITERATE_DELTA or stall_exit:
            move = math.inf if prev_p is None else max(tv_distance(p, prev_p), tv_distance(q, prev_q))
        if cfg.mode == MODE_ITERATE_DELTA:
            gap = move
        else:
            log_a, log_b_prev = kernel.log_a(), kernel.log_b_prev()
            if cfg.mode == MODE_BALANCED_GAP:
                gap = _gap_balanced_from_logs(log_a, log_b_prev, p, r, mu, nu)
            else:
                gap = _gap_unbalanced_from_logs(log_a, log_b_prev, p, r, mu, nu, cfg.lam)
        trace.append((n, gap))

        if gap <= cfg.epsilon_tol:
            converged = True
            break

        if stall_exit:
            stall_run = stall_run + 1 if move <= stall_tol else 0
            if stall_run >= _ZERO_STREAK and n >= 2 * _ZERO_STREAK and \
                    bool((below[isbelow] >= _ZERO_STREAK).all()):
                break
        prev_p, prev_q = p, q

    with np.errstate(over="ignore"):
        state = SinkhornState(a=np.exp(kernel.log_a()), b=np.exp(kernel.log_b()),
                              b_prev=np.exp(kernel.log_b_prev()),
                              iteration=n, overflow_flag=kernel.absorbed)

    structural = (r > 0) & ~(isbelow & (below >= min(_ZERO_STREAK, n)))
    r_star = geometric_mean(p, q)
    z = total_mass(r_star)
    return SolveReport(
        p_star=p,
        q_star=q,
        r_star=r_star,
        r_bar_star=r_star / z if z > 0 else np.zeros_like(r_star),
        mu_star=marginal_row(q),
        nu_star=marginal_col(p),
        mu_g=np.sqrt(marginal_row(q) * mu),
        nu_g=np.sqrt(marginal_col(p) * nu),
        z_norm=z,
        iterations=n,
        converged=converged,
        structural_support=structural,
        gap_trace=trace,
        state=state,
    )


def detect_limit_support(r, mu, nu, max_iter=50_000):
    """Structural support of the limit couplings from a long scaling run.

    Runs with the iterate-delta criterion at threshold 0 (never fires) up
    to ``max_iter`` iterations, with the stall exit enabled, and returns
    the boolean support mask together with the report.
    """
    cfg = StopConfig(epsilon_tol=0.0, max_iter=max_iter, mode=MODE_ITERATE_DELTA)
    report = run_sinkhorn(r, mu, nu, cfg, stall_exit=True)
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

    :meth:`violations` lists every residual beyond 1e-6.
    """

    eq_ratio_residual: float
    support_sum_residual: float
    min_sum_on_E: float
    swap_residuals: tuple
    mass_residuals: tuple

    def violations(self):
        tol = _OPTIMALITY_TOL
        out = []
        if self.eq_ratio_residual > tol:
            out.append(f"limit-ratio identity off by {self.eq_ratio_residual:.3g}")
        if self.support_sum_residual > tol:
            out.append(f"phi+psi on support off by {self.support_sum_residual:.3g}")
        if self.min_sum_on_E < -tol:
            out.append(f"phi+psi negative on E: {self.min_sum_on_E:.3g}")
        for name, v in zip(("H(nu|nu*) vs H(mu*|mu)", "H(mu|mu*) vs H(nu*|nu)",
                            "M(nu*) vs M(mu)", "M(mu*) vs M(nu)"),
                           self.swap_residuals + self.mass_residuals):
            if v > tol:
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
    record.
    """
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    p, q = report.p_star, report.q_star
    mu_star, nu_star = report.mu_star, report.nu_star

    ratio_mu = np.where(mu_star > 0, mu / np.where(mu_star > 0, mu_star, 1.0), 0.0)
    ratio_nu = np.where(nu_star > 0, nu / np.where(nu_star > 0, nu_star, 1.0), 0.0)
    res1 = float(np.abs(p - ratio_mu[:, None] * q).max())
    res2 = float(np.abs(q - ratio_nu[None, :] * p).max())

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
