"""The numpy behaviour the batched combine and the neighbour re-rank rely on.

Each test makes the call with the dtype, shape and keywords the code makes it
with, and checks the result against an oracle that handles one row or one
element at a time. A numpy release that broke one of them would change the
samplers' points without failing on any sampler test's small inputs first.
"""

import numpy as np
import pytest

# Stack heights around numpy's and the BLAS's inner block and unroll sizes.
HEIGHTS = (1, 2, 3, 7, 8, 9, 64, 257)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("w", [2, 3, 5, 9])
def test_stacked_matmul_rows_are_each_rows_product(w, d):
    # samplers._combine: one vector-matrix product per row of a (rows, 1, w) @
    # (rows, w, d) stack, written into a reshaped slice of the (m, d) output;
    # each row must round as ``weights[i] @ features[simplex_i]`` does alone
    rng = _rng(w * 100 + d)
    features = rng.normal(size=(50, d)) * np.exp(rng.normal(size=(50, 1)) * 5)
    for rows in HEIGHTS:
        simplices = rng.integers(0, 50, size=(rows, w))
        weights = rng.dirichlet(np.ones(w), size=rows)
        points = np.full((rows + 5, d), np.nan)
        np.matmul(weights[:, None, :], features.take(simplices, axis=0),
                  out=points[2:2 + rows, None, :])
        want = np.array([weights[i] @ features[simplices[i]] for i in range(rows)])
        assert np.array_equal(points[2:2 + rows], want), (rows, w, d)
        assert np.isnan(points[:2]).all() and np.isnan(points[2 + rows:]).all()


@pytest.mark.parametrize("w", [1, 2, 3, 7, 8, 9, 17, 40])
def test_row_sums_of_a_column_slice_are_each_rows_sum(w):
    # geometry.dirichlet_weights on ``lam[lo:hi, :w]``, a column slice of the
    # combine's wider variates: each row's sum must be that row's sum alone
    rng = _rng(w)
    for rows in HEIGHTS:
        lam = rng.standard_exponential((rows, w + 3)) * np.exp(rng.normal(size=(rows, 1)) * 30)
        total = lam[:, :w].sum(axis=-1, keepdims=True)
        want = np.array([[lam[i, :w].copy().sum()] for i in range(rows)])
        assert total.shape == (rows, 1)
        assert np.array_equal(total, want), (rows, w)


@pytest.mark.parametrize("n_cols, dtype", [(3, np.uint8), (40, np.uint8), (255, np.uint8),
                                           (300, np.uint16)])
def test_stable_argsort_of_narrow_widths(n_cols, dtype):
    # samplers._combine sorts rows by their width, a np.min_scalar_type(n_cols)
    # count; rows of one width must keep their order
    assert np.min_scalar_type(n_cols) == dtype
    rng = _rng(n_cols)
    for m in (0, 1, 2, 17, 300, 5000):
        width = rng.integers(1, min(n_cols, 6) + 1, size=m).astype(dtype)
        order = width.argsort(kind="stable")
        assert order.dtype == np.intp
        assert order.tolist() == sorted(range(m), key=lambda i: int(width[i])), m


@pytest.mark.parametrize("d", [1, 2, 16])
def test_take_rows_into_a_slice(d):
    # samplers._combine copies lone vertices with take(axis=0, out=) into a
    # slice of its (m, d) output; every other row must stay as it was
    rng = _rng(d)
    features = rng.normal(size=(30, d))
    for lo, hi in ((0, 0), (0, 1), (3, 10), (5, 40)):
        ids = rng.integers(0, 30, size=hi - lo).astype(np.intp)
        points = np.full((45, d), np.nan)
        got = features.take(ids, axis=0, out=points[lo:hi])
        assert np.shares_memory(got, points) or hi == lo
        for i in range(45):
            if lo <= i < hi:
                assert np.array_equal(points[i], features[ids[i - lo]]), (lo, hi, i)
            else:
                assert np.isnan(points[i]).all(), (lo, hi, i)


@pytest.mark.parametrize("case", ["slots", "permutation", "table", "repeated"])
def test_flat_put_writes_in_the_order_of_its_ids(case):
    # samplers._variates puts variates at ascending flat slots, _combine puts
    # a permutation to invert it, graphs._rerank puts distances at flat slots
    # of a 2-D table; a put writes value j at flat id ids[j], one after another
    rng = _rng(len(case))
    if case == "slots":
        target = np.zeros((40, 6))
        ids = np.flatnonzero(rng.integers(0, 2, size=target.shape))
    elif case == "permutation":
        target = np.empty(500, np.intp)
        ids = rng.permutation(500)
    elif case == "table":
        target = np.full((25, 9), np.inf)
        ids = np.sort(rng.choice(target.size, size=120, replace=False))
    else:
        target = np.zeros((10, 4))
        ids = rng.integers(0, target.size, size=200)
    values = (rng.normal(size=ids.size) if target.dtype == float
              else np.arange(ids.size, dtype=target.dtype))
    want = target.copy()
    flat = want.reshape(-1)
    for j, i in enumerate(ids.tolist()):
        flat[i] = values[j]
    target.put(ids, values)
    assert np.array_equal(target, want)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 3), (300, 9)])
def test_boolean_mask_fill_follows_flatnonzero(shape):
    # the per-point oracles fill each point's variates into its padded simplex
    # row with a boolean mask; samplers._variates puts them at np.flatnonzero
    # of that mask: both must be row-major, slot after slot
    rng = _rng(shape[0])
    verts = rng.integers(0, 50, size=shape)
    verts[rng.integers(0, 2, size=shape).astype(bool) & (np.arange(shape[1]) > 0)] = -1
    verts.sort(axis=1)
    verts = verts[:, ::-1].copy()  # the -1 pads trail, as in a simplex table
    mask = verts >= 0
    values = rng.standard_exponential(int(mask.sum()))
    filled = np.zeros(shape)
    filled[mask] = values
    want, j = np.zeros(shape), 0
    for i, slot in enumerate(mask.reshape(-1).tolist()):
        if slot:
            want.reshape(-1)[i], j = values[j], j + 1
    assert np.array_equal(filled, want)
    assert np.flatnonzero(mask).tolist() == [i for i, s in enumerate(mask.reshape(-1)) if s]
