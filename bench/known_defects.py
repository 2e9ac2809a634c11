"""Reproducer of a known defect the benchmark's workloads leave out.

    python3 bench/known_defects.py

Run from the repository root.  Above the enumeration cap,
``classify_exact`` takes a NonScalable instance's witness from the source
side of ``networkx.minimum_cut``, which networkx builds by removing the
edges whose flow equals their capacity exactly.  With float capacities a
saturated edge can end one ulp short, and the witness then fails Hall's
condition (it is often empty).  This classifies the 4-block 200x200
staircase under 30 relabellings and checks every witness.  Exits 1 while
the defect is present, 0 once every witness is a Hall violator.
"""

import sys

import numpy as np

import run  # pins the BLAS threads and locates the package source

sys.path.insert(0, str(run.SRC))

from degensink.scalability import classify_exact  # noqa: E402
import workloads  # noqa: E402

RELABELLINGS = 30


def main():
    bad = []
    for seed in range(RELABELLINGS):
        r, mu, nu = workloads._permuted(seed, *workloads._staircase(200, 4)[:3])
        cls = classify_exact(r, mu, nu)
        rows = list(cls.witness or ())
        image = np.nonzero((r[rows] > 0).any(axis=0))[0]
        if cls.base_tag != "NonScalable" or not mu[rows].sum() > nu[image].sum():
            bad.append((seed, cls.tag, len(rows)))
    for seed, tag, size in bad:
        print(f"relabelling {seed}: {tag}, and its {size}-row witness is not a Hall violator")
    print(f"{len(bad)} of {RELABELLINGS} NonScalable witnesses are wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
