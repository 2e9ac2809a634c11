import numpy as np
import pytest

from degensink import classify_exact, gen_instance
from degensink.instances import (
    InstanceSpec,
    KIND_RANDOM,
    KIND_STAIRCASE,
    KIND_UPPER,
    appendix_a_instance,
    block_ratio_schedule,
    load_instance,
    staircase_instance,
)
from conftest import write_instance


def test_upper_triangular_is_worked_example():
    r, mu, nu = gen_instance(InstanceSpec(KIND_UPPER, 3, 3))
    ra, mua, nua = appendix_a_instance()
    np.testing.assert_array_equal(r, ra)
    np.testing.assert_array_equal(mu, mua)
    np.testing.assert_array_equal(nu, nua)


def test_upper_triangular_general_size_balanced():
    r, mu, nu = gen_instance(InstanceSpec(KIND_UPPER, 6, 6))
    assert mu.sum() == pytest.approx(nu.sum())
    assert classify_exact(r, mu, nu).tag == "NonScalable"


def test_ratio_schedule():
    assert block_ratio_schedule(1) == [1.0]
    for k in range(2, 11):
        sched = block_ratio_schedule(k)
        assert len(sched) == k
        assert all(b < a for a, b in zip(sched, sched[1:]))
        assert sched[0] > 1.0 > sched[-1]


@pytest.mark.parametrize("n_blocks,expected", [(1, "Scalable"), (2, "NonScalable"),
                                               (4, "NonScalable")])
def test_staircase_classification(n_blocks, expected):
    r, mu, nu = gen_instance(InstanceSpec(KIND_STAIRCASE, 12, 12, n_blocks=n_blocks))
    assert mu.sum() == pytest.approx(nu.sum())
    assert classify_exact(r, mu, nu).tag == expected


def test_staircase_support_shape():
    r, mu, nu, support, bounds = staircase_instance(10, [4, 6], block_ratio_schedule(2))
    assert bounds == [(0, 4), (4, 10)]
    assert support[:4, :4].sum() == 10  # upper triangle of a 4-block
    assert not support[:4, 4:].any()
    assert (mu > 0).all() and (nu > 0).all()


@pytest.mark.parametrize("sizes", [[0, 1], [0, 0], []])
def test_staircase_rejects_empty_blocks(sizes):
    # a block of size 0 ended in a ZeroDivisionError
    with pytest.raises(ValueError, match="at least one row"):
        staircase_instance(sum(sizes), sizes, [1.5, 0.5][:len(sizes)])


@pytest.mark.parametrize("n, sizes, name", [
    (4, [2.0, 2.0], "every block size"), (4, [2.5, 1.5], "every block size"),
    (2, [True, True], "every block size"), (4.0, [2, 2], "n"), (np.float64(4), [2, 2], "n"),
], ids=["float-sizes", "fractional-sizes", "bool-sizes", "float-n", "numpy-float-n"])
def test_staircase_rejects_sizes_not_integers(n, sizes, name):
    # ended in a bare TypeError from the slicing
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        staircase_instance(n, sizes, [1.5, 0.5])


def test_staircase_takes_numpy_integers():
    r, *_ = staircase_instance(np.int64(4), np.array([2, 2]), [1.5, 0.5])
    assert r.shape == (4, 4)


@pytest.mark.parametrize("ratios", [[np.inf, 0.5], [1.5, -0.5], [1.5, 0.0]],
                         ids=["inf", "negative", "zero"])
def test_staircase_rejects_ratios_not_finite_and_positive(ratios):
    # inf gave NaN masses, -0.5 a negative mu, 0 a block without mass
    with pytest.raises(ValueError, match="finite and positive"):
        staircase_instance(4, [2, 2], ratios)


def test_random_sparse_deterministic_and_balanced():
    spec = InstanceSpec(KIND_RANDOM, 6, 6, density=0.5, seed=7)
    first = gen_instance(spec)
    second = gen_instance(spec)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    r, mu, nu = first
    assert mu.sum() == pytest.approx(nu.sum())
    assert (r.sum(axis=1) > 0).all() and (r.sum(axis=0) > 0).all()


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec("nope", 3, 3)
    with pytest.raises(ValueError):
        InstanceSpec(KIND_UPPER, 3, 4)
    with pytest.raises(ValueError):
        InstanceSpec(KIND_RANDOM, 3, 3, density=0.0)
    with pytest.raises(ValueError):
        InstanceSpec(KIND_STAIRCASE, 4, 4, n_blocks=9)
    # non-integral sizes and seeds, and bools, used to pass here and fail
    # inside the generator
    for fields in ({"n_rows": 3.5, "n_cols": 3.5}, {"n_rows": 3.0, "n_cols": 3.0},
                   {"n_blocks": 2.5}, {"seed": 1.5}, {"n_blocks": True}, {"seed": False}):
        spec = {"kind": KIND_STAIRCASE, "n_rows": 4, "n_cols": 4, **fields}
        with pytest.raises(ValueError, match="must be an integer"):
            InstanceSpec(**spec)
    # numpy integers are integers
    assert InstanceSpec(KIND_RANDOM, np.int64(3), 3, seed=np.uint32(7)).seed == 7
    # a negative seed used to pass here and fail inside numpy without
    # naming the field
    for seed in (-1, np.int64(-5)):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            InstanceSpec(KIND_RANDOM, 3, 3, seed=seed)


def test_instance_json_roundtrip(appendix, tmp_path):
    r, mu, nu = appendix
    path = tmp_path / "appendix.json"
    write_instance(r, mu, nu, path)
    with open(path) as handle:  # a file object; the CLI passes the path
        r2, mu2, nu2 = load_instance(handle)
    np.testing.assert_array_equal(r, r2)
    np.testing.assert_array_equal(mu, mu2)
    np.testing.assert_array_equal(nu, nu2)


def test_instance_json_validation():
    with pytest.raises(ValueError):
        load_instance({"R": [[1.0, 0.0]], "mu": [1.0], "nu": [1.0]})
    with pytest.raises(ValueError):
        load_instance({"R": [[1.0]], "mu": [1.0]})
    with pytest.raises(ValueError):
        load_instance({"R": [[-1.0]], "mu": [1.0], "nu": [1.0]})
