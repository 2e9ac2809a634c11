import math

import numpy as np
import pytest

from degensink import appendix_a_instance
from degensink.instances import InstanceSpec, KIND_RANDOM, gen_instance

SQ2 = math.sqrt(2.0)
SQ5 = math.sqrt(5.0)

P_STAR = np.array([[1.6, 0.4, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
Q_STAR = np.array([[2.0, 0.5, 0.0], [0.0, 2.5, 0.0], [0.0, 0.0, 1.0]])
R_STAR = np.array([[4 / SQ5, 1 / SQ5, 0.0], [0.0, SQ5, 0.0], [0.0, 0.0, SQ2]])
MU_STAR = np.array([2.5, 2.5, 1.0])
NU_STAR = np.array([1.6, 2.4, 2.0])
MU_G = np.array([SQ5, SQ5, SQ2])
NU_G = np.array([4 / SQ5, 6 / SQ5, SQ2])
Z_NORM = 2 * SQ5 + SQ2
S_MASK = np.array([[True, True, False], [False, True, False], [False, False, True]])


@pytest.fixture
def appendix():
    return appendix_a_instance()


# Iterate values as printed in the worked example, keyed by half-step.
# The b-vector printed at half-step 81 repeats the one of half-step 80;
# near-zero coupling entries appear as 0 here and are asserted to be
# negligible rather than digit-matched (the printed figures there are
# inconsistent with the printed potentials they derive from).
PRINTED_CHECKPOINTS = {
    1: dict(a=[2 / 3, 1.0, 2.0], b=[1.0, 1.0, 1.0],
            P=[[2 / 3, 2 / 3, 2 / 3], [0, 1, 1], [0, 0, 2]]),
    2: dict(a=[2 / 3, 1.0, 2.0], b=[3.0, 9 / 5, 3 / 11],
            Q=[[2, 6 / 5, 2 / 11], [0, 9 / 5, 3 / 11], [0, 0, 6 / 11]]),
    5: dict(a=[2.7e-1, 8.6e-1, 1.7e1], b=[5.0, 2.2, 1.2e-1],
            P=[[1.4, 0.59, 3.2e-2], [0, 1.9, 1.0e-1], [0, 0, 2.0]]),
    11: dict(a=[1.2e-1, 5.1e-1, 1.5e2], b=[1.3e1, 3.9, 1.3e-2],
             P=[[1.55, 0.45, 1.5e-3], [0, 2.0, 6.6e-3], [0, 0, 2.0]]),
    80: dict(a=[5.5e-5, 2.8e-4, 2.7e12], b=[3.6e4, 9.1e3, 3.8e-13],
             Q=[[2.0, 0.50, 0], [0, 2.5, 0], [0, 0, 1.0]]),
    81: dict(a=[4.4e-5, 2.2e-4, 5.3e12], b=[3.6e4, 9.1e3, 3.8e-13],
             P=[[1.6, 0.40, 0], [0, 2.0, 0], [0, 0, 2.0]]),
}


def log_arrays(r, mu, nu):
    """log R, log mu and log nu, with -inf at the zeros: the inputs of the
    plain log-domain reference recursions."""
    with np.errstate(divide="ignore"):
        return np.log(r), np.log(mu), np.log(nu)


def printed_close(value, printed):
    """Match a computed value against a printed figure: within one unit in
    the second significant digit (the source mixes rounding and
    truncation, so half-ulp comparisons are too strict)."""
    if printed == 0:
        return abs(value) < 1e-12
    ulp = 10.0 ** (math.floor(math.log10(abs(printed))) - 1)
    return abs(value - printed) <= 1.0000001 * ulp


def assert_printed(arr, printed_arr, tiny=None):
    arr = np.asarray(arr, dtype=float)
    printed_arr = np.asarray(printed_arr, dtype=float)
    assert arr.shape == printed_arr.shape
    for got, want in zip(arr.ravel(), printed_arr.ravel()):
        if tiny is not None and abs(want) < tiny:
            assert abs(got) < tiny, f"{got} not ~0"
        else:
            assert printed_close(got, want), f"{got} vs printed {want}"


def random_instance(rng, max_n=8, balanced=True, full_support=False):
    """A random sparse instance from the generator, optionally rescaled to
    unbalanced targets; full_support additionally requires both marginals
    of R positive (it already has no empty rows or columns)."""
    while True:
        spec = InstanceSpec(
            KIND_RANDOM,
            int(rng.integers(2, max_n + 1)),
            int(rng.integers(2, max_n + 1)),
            density=float(rng.uniform(0.35, 0.9)),
            seed=int(rng.integers(1 << 30)),
        )
        r, mu, nu = gen_instance(spec)
        if not full_support or ((r.sum(0) > 0).all() and (r.sum(1) > 0).all()):
            break
    if not balanced:
        nu = nu * float(rng.uniform(0.5, 2.0))
    return r, mu, nu
