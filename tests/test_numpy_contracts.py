"""The numpy behaviour the samplers' streams, the batched combine, the neighbour
re-rank and the grid search's tally rely on.

Each test makes the call with the dtype, shape and keywords the code makes it
with, and checks the result against an oracle that handles one row or one
element at a time. A numpy release that broke one of them would change the
samplers' points without failing on any sampler test's small inputs first.
"""

from collections import Counter

import numpy as np
import pytest

from simbal.samplers import _PCG64_JUMP

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


# Point widths of a batch, lone vertices to 9-vertex simplices, and batch sizes.
WIDTHS = (1, 2, 3, 1, 9, 4, 2, 2, 5)
SIZES = (0, 1, 2, 3, 7, 8, 9, 64, 257, 1000)


def _chunks(n: int):
    """(lo, hi) bounds of consecutive point widths covering n draws."""
    lo, i = 0, 0
    while lo < n:
        hi = min(n, lo + WIDTHS[i % len(WIDTHS)])
        yield lo, hi
        lo, i = hi, i + 1


@pytest.mark.parametrize("n", SIZES)
def test_exponential_fill_is_successive_single_draws(n):
    # samplers._variates draws all of a batch's exponentials in one call; the
    # per-point oracles draw them point by point
    got = _rng(n).standard_exponential(n)
    single = _rng(n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tolist() == [single.standard_exponential() for _ in range(n)]


@pytest.mark.parametrize("n", SIZES)
def test_gamma_fill_of_a_shape_array_is_successive_draws(n):
    # samplers._variates draws one standard_gamma over the safe-level alphas of
    # every slot (k / max(k_plus, 1) or 1 + k_plus / k, float64); the per-point
    # oracles draw each point's alphas, and single draws must agree too
    k = 8
    k_plus = np.arange(n) % (k + 1)
    shapes = np.where(np.arange(n) % 2 == 0, k / np.maximum(k_plus, 1.0), 1.0 + k_plus / k)
    got = _rng(n).standard_gamma(shapes)
    per_point, single = _rng(n), _rng(n)
    assert got.dtype == np.float64 and got.shape == (n,)
    want = [per_point.standard_gamma(shapes[lo:hi]) for lo, hi in _chunks(n)]
    assert got.tolist() == (np.concatenate(want).tolist() if want else [])
    assert got.tolist() == [single.standard_gamma(float(a)) for a in shapes]


@pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
def test_normal_fill_is_row_major(d):
    # samplers._gaussian_batch draws standard_normal((m, d)); the per-point
    # oracle takes point i from the next d normals
    for m in (0, *HEIGHTS):
        got = _rng(d * 1000 + m).standard_normal((m, d))
        per_point = _rng(d * 1000 + m)
        assert got.shape == (m, d) and got.flags.c_contiguous
        assert got.tolist() == [per_point.standard_normal(d).tolist() for _ in range(m)]


@pytest.mark.parametrize("n", SIZES)
def test_gamma_of_one_is_the_standard_exponential(n):
    # samplers._variates draws exponentials where the per-point oracles draw
    # standard_gamma(np.ones(w)) per point, and Gamma(1.0) single draws
    got = _rng(n).standard_exponential(n)
    per_point, single = _rng(n), _rng(n)
    want = [per_point.standard_gamma(np.ones(hi - lo)) for lo, hi in _chunks(n)]
    assert got.tolist() == (np.concatenate(want).tolist() if want else [])
    assert got.tolist() == [single.standard_gamma(1.0) for _ in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 53, 2**32 + 7, 2**63 - 1, 2**64 - 1])
def test_pcg64_advance_returns_itself_in_the_jumped_state(seed):
    # SampleStreams builds the weights stream as PCG64(SeedSequence(seed))
    # advanced by one jump's step, in place of PCG64(seed).jumped(1)
    bit_generator = np.random.PCG64(np.random.SeedSequence(seed))
    assert bit_generator.advance(_PCG64_JUMP) is bit_generator
    jumped = np.random.PCG64(seed).jumped(1)
    assert bit_generator.state == jumped.state
    assert (np.random.Generator(bit_generator).standard_exponential(5).tolist()
            == np.random.Generator(jumped).standard_exponential(5).tolist())


@pytest.mark.parametrize("n_sets, n_test", [(1, 0), (1, 1), (1, 30), (2, 5), (7, 88)])
def test_bincount_of_offset_cells_with_minlength(n_sets, n_test):
    # evaluation._score tallies the confusion cells of every row set in one
    # bincount over 2 * truth + pred + 4 * set, minlength 4 * sets, and reads
    # it as (sets, 4) rows of (tn, fp, fn, tp); the last cells may be empty
    rng = _rng(n_sets * 100 + n_test)
    truth = np.where(rng.integers(0, 3, size=n_test) == 0, 1, -1)
    preds = [np.where(rng.integers(0, 2, size=n_test) == 1, 1, -1) for _ in range(n_sets)]
    preds[-1][:] = -1  # the last set predicts no minority: its last cell, tp, stays empty
    cells = 2 * (truth == 1) + (np.array(preds) == 1) + 4 * np.arange(n_sets)[:, None]
    got = np.bincount(cells.ravel(), minlength=4 * n_sets)
    assert got.shape == (4 * n_sets,) and got.dtype == np.intp
    for c, row in enumerate(got.reshape(-1, 4).tolist()):
        tally = Counter((int(t == 1), int(p == 1)) for t, p in zip(truth, preds[c]))
        assert row == [tally[0, 0], tally[0, 1], tally[1, 0], tally[1, 1]], c


@pytest.mark.parametrize("n_shared, sizes", [(0, [3, 4]), (262, [188] * 15), (5, [0, 2, 0, 0, 3]),
                                             (3, [0, 0]), (40, [1, 17, 0])])
def test_group_of_each_column_by_searchsorted_right(n_shared, sizes):
    # graphs._search finds each candidate column's group as
    # cumsum([n_shared, *sizes]).searchsorted(cols, side="right") - 1, -1 on a
    # shared column; an empty group (an unsampled draw) repeats a bound and
    # must own no column
    rng = _rng(n_shared + len(sizes))
    bounds = np.cumsum([n_shared, *sizes])
    n_ref = int(bounds[-1])
    cols = np.divmod(rng.integers(0, 50 * n_ref, size=n_ref + 500), n_ref)[1]
    cols[:n_ref] = np.arange(n_ref)  # every column, every bound included
    got = bounds.searchsorted(cols, side="right") - 1
    owner = [-1] * n_shared + [c for c, size in enumerate(sizes) for _ in range(size)]
    assert bounds.dtype == np.int64 and got.dtype == np.intp
    assert got.tolist() == [owner[col] for col in cols.tolist()]


@pytest.mark.parametrize("n_groups", [1, 2, 3, 15])
def test_tile_repeats_the_whole_block(n_groups):
    # graphs._search copies row i's shared candidate columns to every group with
    # np.tile(cols, n_groups), c-major, and the query block with
    # np.tile(block_q, (n_groups, 1)); copy c of the block is rows c * n .. c * n + n - 1
    rng = _rng(n_groups)
    for n in (0, 1, 5, 88):
        cols = rng.integers(0, 1000, size=3 * n)
        block = rng.normal(size=(n, 2))
        tiled_cols, tiled_block = np.tile(cols, n_groups), np.tile(block, (n_groups, 1))
        assert tiled_cols.tolist() == [int(col) for _ in range(n_groups) for col in cols]
        assert tiled_block.shape == (n_groups * n, 2)
        assert tiled_block.tolist() == [row.tolist() for _ in range(n_groups) for row in block]


@pytest.mark.parametrize("n_groups, n_rows, n_ref", [(1, 7, 30), (6, 88, 450), (15, 88, 3082),
                                                     (4, 3, 2)])
def test_in_place_sort_and_divmod_of_packed_keys(n_groups, n_rows, n_ref):
    # graphs._search packs each (virtual row, column) pair into the int64 key
    # row * n_ref + col, sorts the keys in place and unpacks them with
    # np.divmod(keys, n_ref): rows ascend, and columns ascend within a row
    rng = _rng(n_groups * n_rows)
    rows = rng.integers(0, n_groups * n_rows, size=4 * n_rows)
    cols = rng.integers(0, n_ref, size=rows.size)
    keys = rows * n_ref + cols
    want = sorted(int(key) for key in keys)
    keys.sort()
    assert keys.dtype == np.int64 and keys.tolist() == want
    got_rows, got_cols = np.divmod(keys, n_ref)
    assert got_rows.dtype == got_cols.dtype == np.int64
    assert list(zip(got_rows.tolist(), got_cols.tolist())) == [divmod(key, n_ref) for key in want]


@pytest.mark.parametrize("width", [1, 2, 5, 16, 17, 40, 300])
def test_stable_row_argsort_of_an_inf_padded_table_and_clipped_take(width):
    # graphs._rerank writes each row's candidate distances into a float64 table
    # padded with inf, orders every row with argsort(axis=1, kind="stable") (a
    # tie, an overflowed inf included, keeps the lower column; the pads come
    # last) and gathers the ids with cols.take(first[:-1, None] + order,
    # mode="clip"): a pad of the last row points past cols and reads its last id
    rng = _rng(width)
    counts = rng.integers(1, width + 1, size=30)
    counts[-1] = max(1, width // 2)
    first = np.concatenate([[0], np.cumsum(counts)])
    cols = rng.integers(0, 10_000, size=int(first[-1]))
    table = np.full((counts.size, width), np.inf)
    for i, n in enumerate(counts.tolist()):
        # few distinct values, so most rows hold ties; some distances overflow to inf
        table[i, :n] = rng.choice([0.5, 1.0, 2.0, np.inf], size=n)
    order = table.argsort(axis=1, kind="stable")
    got = cols.take(first[:-1, None] + order, mode="clip")
    for i in range(counts.size):
        want = sorted(range(width), key=lambda j: (table[i, j], j))
        assert order[i].tolist() == want, i
        assert got[i].tolist() == [int(cols[min(first[i] + j, cols.size - 1)]) for j in want], i
