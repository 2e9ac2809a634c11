"""Instance generators and the JSON instance format.

An instance file is a JSON object with keys "R" (row-major array of
arrays), "mu" and "nu" (arrays); shapes must be consistent.
"""

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .measures import as_coupling, as_measure

__all__ = [
    "InstanceSpec",
    "gen_instance",
    "appendix_a_instance",
    "staircase_instance",
    "load_instance",
    "KIND_UPPER",
    "KIND_STAIRCASE",
    "KIND_RANDOM",
]

KIND_UPPER = "upper-triangular-ones"
KIND_STAIRCASE = "staircase-blocks"
KIND_RANDOM = "random-sparse"

_RIPPLE = 0.4
_MAX_REJECTS = 1000


def _require_integer(name, value):
    # generation would fail on the value later, inside numpy
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class InstanceSpec:
    """Generator parameters.

    ``kind`` is one of "upper-triangular-ones", "staircase-blocks",
    "random-sparse".  ``n_blocks`` applies to staircases, ``density`` and
    ``seed`` to random instances; generation is bit-reproducible from the
    spec.
    """

    kind: str
    n_rows: int
    n_cols: int
    n_blocks: int = 1
    density: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (KIND_UPPER, KIND_STAIRCASE, KIND_RANDOM):
            raise ValueError(f"unknown instance kind {self.kind!r}")
        for name in ("n_rows", "n_cols", "n_blocks", "seed"):
            _require_integer(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("dimensions must be at least 1")
        if self.kind in (KIND_UPPER, KIND_STAIRCASE) and self.n_rows != self.n_cols:
            raise ValueError(f"{self.kind} instances are square")
        if self.kind == KIND_STAIRCASE and not (1 <= self.n_blocks <= self.n_rows):
            raise ValueError("n_blocks must be between 1 and n_rows")
        if self.kind == KIND_RANDOM and not (0 < self.density <= 1):
            raise ValueError("density must be in (0, 1]")


def block_ratio_schedule(n_blocks):
    """Removal-order ratio sequence for staircase instances.

    The values 1 + (-1)^k 0.5/k for k = 1..K, sorted decreasingly, so the
    reduction procedure sees a strictly decreasing theta sequence with
    members on both sides of 1 (a single block gets ratio 1 and is
    scalable)."""
    if n_blocks == 1:
        return [1.0]
    return sorted((1.0 + ((-1) ** k) * 0.5 / k for k in range(1, n_blocks + 1)), reverse=True)


def staircase_instance(n, block_sizes, ratios_desc):
    """Upper-triangular-ones reference whose limit support is the union of
    the diagonal blocks.

    ``ratios_desc`` lists the per-block mu/nu mass ratios in removal order
    (strictly decreasing); block k in matrix order (left to right) gets
    the k-th smallest, so the bottom-right block is removed first.  Within
    a block, mu is proportional to the block's row counts and nu to its
    column counts modulated by a smooth +-20% ramp: the block solution
    then stays within a bounded factor of the uniform coupling (no
    spurious near-zeros for the threshold detector to trip on) while
    converging at a genuine, cleanly geometric linear rate.

    Returns ``(R, mu, nu, support, bounds)`` with ``support`` the expected
    limit-support mask and ``bounds`` the (start, end) block ranges.
    Raises ValueError unless ``n`` and every block size are integers,
    every block has at least one row and every ratio is finite and
    positive.
    """
    _require_integer("n", n)
    for size in block_sizes:
        _require_integer("every block size", size)
    if min(block_sizes, default=0) < 1:
        raise ValueError("every block needs at least one row")
    if sum(block_sizes) != n:
        raise ValueError("block sizes must partition the index range")
    k = len(block_sizes)
    if len(ratios_desc) != k:
        raise ValueError("one ratio per block")
    # inf gave NaN masses, a negative ratio negative ones, 0 an empty block
    if not all(0 < x < np.inf for x in ratios_desc):
        raise ValueError(f"ratios must be finite and positive, got {ratios_desc}")
    if any(nxt >= cur for cur, nxt in zip(ratios_desc, ratios_desc[1:])):
        raise ValueError("ratios must be strictly decreasing in removal order")
    ratios_asc = sorted(ratios_desc)
    above = sum(x - 1.0 for x in ratios_asc if x > 1.0)
    below = sum(1.0 - x for x in ratios_asc if x < 1.0)
    if k > 1 and (above <= 0 or below <= 0):
        raise ValueError("ratios must straddle 1 so the instance can be balanced")

    r = np.triu(np.ones((n, n)))
    mu = np.empty(n)
    nu = np.empty(n)
    support = np.zeros((n, n), dtype=bool)
    bounds = []
    start = 0
    for ratio, size in zip(ratios_asc, block_sizes):
        block_total = size * (size + 1) / 2.0
        if ratio > 1.0:
            scale = 1.0 / (above * block_total)
        elif ratio < 1.0:
            scale = 1.0 / (below * block_total)
        else:
            scale = 1.0 / block_total
        row_counts = np.arange(size, 0, -1.0)
        col_counts = np.arange(1.0, size + 1)
        ramp = 1.0 + _RIPPLE * ((np.arange(size) + 0.5) / size - 0.5)
        weights = col_counts * ramp
        mu[start:start + size] = ratio * scale * row_counts
        nu[start:start + size] = scale * block_total * weights / weights.sum()
        support[start:start + size, start:start + size] = np.triu(np.ones((size, size), dtype=bool))
        bounds.append((start, start + size))
        start += size
    norm = n / mu.sum()
    return r, mu * norm, nu * norm, support, bounds


def _near_equal_blocks(n, k):
    base, extra = divmod(n, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def appendix_a_instance():
    """The 3x3 upper-triangular worked example: mu = (2,2,2), nu = (2,3,1)."""
    r = np.triu(np.ones((3, 3)))
    return r, np.array([2.0, 2.0, 2.0]), np.array([2.0, 3.0, 1.0])


def gen_instance(spec):
    """Generate (R, mu, nu) from an :class:`InstanceSpec`."""
    if spec.kind == KIND_UPPER:
        n = spec.n_rows
        r = np.triu(np.ones((n, n)))
        mu = np.full(n, 2.0)
        if n == 1:
            nu = np.array([2.0])
        else:
            nu = np.full(n, 2.0)
            nu[-2:] = (3.0, 1.0)
        return r, mu, nu
    if spec.kind == KIND_STAIRCASE:
        r, mu, nu, _, _ = staircase_instance(
            spec.n_rows, _near_equal_blocks(spec.n_rows, spec.n_blocks),
            block_ratio_schedule(spec.n_blocks))
        return r, mu, nu
    rng = np.random.default_rng(spec.seed)
    for _ in range(_MAX_REJECTS):
        mask = rng.random((spec.n_rows, spec.n_cols)) < spec.density
        if mask.any(axis=1).all() and mask.any(axis=0).all():
            break
    else:
        raise ValueError(f"no admissible mask in {_MAX_REJECTS} draws for {spec}")
    r = np.where(mask, rng.uniform(0.5, 1.5, mask.shape), 0.0)
    mu = rng.uniform(0.5, 1.5, spec.n_rows)
    nu = rng.uniform(0.5, 1.5, spec.n_cols)
    nu *= mu.sum() / nu.sum()
    return r, mu, nu


def load_instance(source):
    """Read an instance from a JSON file path, file object or dict.
    Raises ValueError unless the JSON is an object with keys R, mu and nu
    that hold a valid triple."""
    if isinstance(source, dict):
        payload = source
    elif hasattr(source, "read"):
        payload = json.load(source)
    else:
        with open(source) as handle:
            payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"instance JSON must be an object, got {type(payload).__name__}")
    try:
        r = as_coupling(payload["R"])
        mu = as_measure(payload["mu"])
        nu = as_measure(payload["nu"])
    except KeyError as exc:
        raise ValueError(f"instance JSON lacks key {exc}") from exc
    if r.shape != (mu.size, nu.size):
        raise ValueError(f"inconsistent shapes: R is {r.shape}, mu has {mu.size}, nu has {nu.size}")
    return r, mu, nu
