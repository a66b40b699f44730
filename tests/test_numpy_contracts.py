"""The numpy behaviour the samplers' streams, the batched combine, the neighbour
filter and re-rank, the clique step's bitsets, the grid search's tally and the
point-to-hull face solve rely on.

Each test makes the call with the dtype, shape and keywords the code makes it
with, and checks the result against an oracle that handles one row or one
element at a time. A numpy release that broke one of them would change the
samplers' points without failing on any sampler test's small inputs first.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from simbal.complexes import _LOWEST, _row_keys
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


# Squared norms from subnormal to near the float range, as the filter meets them.
NORMS = (5e-324, 2.0 ** -1030, 1e-300, 2.0 ** -60, 0.75, 1.0, 3.0, 2.0 ** 60, 1e300, 1.7e308)


@pytest.mark.parametrize("norm", NORMS)
def test_frexp_and_ldexp_scale_by_an_exact_power_of_two(norm):
    # graphs._candidates takes e = frexp(norm)[1] // 2 + 1 and scales both point
    # sets by ldexp(1.0, -e): the exponent is frexp's, the scale is 2**-e exactly,
    # and the product rounds each coordinate as a scaling by 2**-e does alone
    mantissa, exp = np.frexp(norm)
    assert (float(mantissa), int(exp)) == math.frexp(norm)
    e = int(exp) // 2 + 1
    scale = np.ldexp(1.0, -e)
    assert Fraction(float(scale)) == Fraction(2) ** -e
    rng = _rng(int(exp) % 997)
    points = rng.normal(size=(40, 3)) * math.sqrt(norm) / 4
    scaled = points * scale
    assert scaled.tolist() == [[math.ldexp(v, -e) for v in row] for row in points.tolist()]
    # geometry._hull_distances scales with an array ldexp the same way
    assert np.ldexp(points, -e).tolist() == scaled.tolist()


def _flat_views(size: int, rows: int, cols: int, dtype):
    """A sentinel-filled flat buffer of ``size`` elements and its first rows * cols as a
    (rows, cols) view, as graphs._filter_buffers hands the filter its scratch arrays."""
    buf = np.full(size, np.nan if dtype != bool else True, dtype)
    return buf, buf[:rows * cols].reshape(rows, cols)


@pytest.mark.parametrize("d", [1, 2, 16])
@pytest.mark.parametrize("n_ref", [1, 7, 65, 1750])
def test_float32_matmul_into_a_view_of_a_reused_buffer(d, n_ref):
    # graphs._candidates: np.matmul(q2[s:s + step], r2, out=g), q2 (rows, d + 1) and
    # r2 (d + 1, n_ref) float32, g the first rows * n_ref entries of a flat
    # float32 buffer reshaped; g must hold the product and nothing past it change
    rng = _rng(d * 10_000 + n_ref)
    q2 = rng.normal(size=(300, d + 1)).astype(np.float32)
    r2 = rng.normal(size=(d + 1, n_ref)).astype(np.float32)
    step = max(1, 2 ** 17 // n_ref)
    for s in range(0, len(q2), step):
        rows = min(step, len(q2) - s)
        buf, g = _flat_views(step * n_ref + 13, rows, n_ref, np.float32)
        assert np.matmul(q2[s:s + step], r2, out=g) is g
        assert g.tobytes() == np.matmul(q2[s:s + step], r2).tobytes()
        assert np.isnan(buf[rows * n_ref:]).all()
        # float32 rounding of a (d + 1)-term product: well inside gamma_{d+1}
        exact = q2[s:s + step].astype(np.float64) @ r2.astype(np.float64)
        bound = (d + 2) * 2.0 ** -23 * (np.abs(q2[s:s + step]) @ np.abs(r2))
        assert (np.abs(g - exact) <= bound).all()


@pytest.mark.parametrize("w, m", [(1, 5), (3, 1), (5, 40), (128, 3)])
def test_min_over_axis_1_of_a_reshape_into_a_view(w, m):
    # graphs._candidates folds row i's threshold columns into w classes with
    # g[:, :whole].reshape(rows, -1, w).min(axis=1, out=mins), g a float32 view
    # wider than whole = m * w and mins a (rows, w) view of a flat buffer
    rng = _rng(w * 100 + m)
    for rows in (1, 3, 9):
        g = rng.choice(np.float32([-2.0, -0.5, 0.25, 1.0, 3.0]), size=(rows, m * w + 4))
        g += rng.normal(size=g.shape).astype(np.float32) * np.float32(rng.integers(0, 2))
        buf, mins = _flat_views(rows * w + 5, rows, w, np.float32)
        assert g[:, :m * w].reshape(rows, -1, w).min(axis=1, out=mins) is mins
        for i in range(rows):
            assert mins[i].tolist() == [min(g[i, c:m * w:w].tolist()) for c in range(w)], i
        assert np.isnan(buf[rows * w:]).all()


@pytest.mark.parametrize("w", [1, 2, 5, 20, 128, 513])
def test_float32_partition_places_the_kth_smallest(w):
    # graphs._candidates calls mins.partition(kk - 1, axis=1) in place on a (rows, w)
    # float32 view and reads column kk - 1: it must be each row's kk-th smallest
    rng = _rng(w)
    for kk in sorted({1, min(2, w), (w + 1) // 2, w}):
        buf, mins = _flat_views(9 * w + 3, 9, w, np.float32)
        mins[:] = rng.choice(np.float32([-1.0, 0.0, 0.5, 2.0, np.inf]), size=(9, w))
        mins[::2] += rng.normal(size=(5, w)).astype(np.float32)
        before = mins.tolist()
        mins.partition(kk - 1, axis=1)
        for i, row in enumerate(before):
            kth = sorted(row)[kk - 1]
            assert mins[i, kk - 1] == kth, (kk, i)
            assert sorted(mins[i].tolist()) == sorted(row), (kk, i)
            assert all(v <= kth for v in mins[i, :kk - 1].tolist()), (kk, i)
            assert all(v >= kth for v in mins[i, kk:].tolist()), (kk, i)
        assert np.isnan(buf[9 * w:]).all()


@pytest.mark.parametrize("n_ref", [1, 4, 300])
def test_less_equal_into_a_view_of_a_bool_buffer(n_ref):
    # graphs._candidates: np.less_equal(g, t[:, None], out=keep), g a (rows, n_ref)
    # float32 view, t the float32 row thresholds and keep the first rows * n_ref
    # entries of a flat bool buffer reshaped; flatnonzero(keep) lists the kept pairs
    rng = _rng(n_ref)
    values = np.float32([-np.inf, -1.0, -0.0, 0.0, 1e-45, 0.5, 1.0, np.inf])
    for rows in (1, 2, 17):
        g = rng.choice(values, size=(rows, n_ref))
        t = rng.choice(values[1:-1], size=rows)
        buf, keep = _flat_views(rows * n_ref + 7, rows, n_ref, bool)
        keep[:] = False
        assert np.less_equal(g, t[:, None], out=keep) is keep
        want = [i * n_ref + j for i in range(rows) for j in range(n_ref)
                if float(g[i, j]) <= float(t[i])]
        assert np.flatnonzero(keep).tolist() == want
        assert buf[rows * n_ref:].all()


def _words(rng, rows: int, width: int) -> np.ndarray:
    """(rows, width) uint64 bitsets, sparse and dense, with an empty row and a full word."""
    bits = rng.random((rows, width, 64)) < rng.choice([0.02, 0.3, 0.9], size=(rows, 1, 1))
    words = (bits * (np.uint64(1) << np.arange(64, dtype=np.uint64))).sum(axis=-1, dtype=np.uint64)
    words[0] = 0
    words[-1, -1] = np.uint64(2 ** 64 - 1)
    return words


def _as_int(row) -> int:
    """A row of uint64 words as one Python int, word j holding bits 64j..64j+63."""
    return sum(int(word) << (64 * j) for j, word in enumerate(row))


@pytest.mark.parametrize("width", [1, 2, 5])
def test_unpackbits_little_on_the_byte_view_lists_set_bits_ascending(width):
    # complexes._set_bits: the bytes of a "<u8" view, the nonzero ones unpacked
    # with bitorder="little", give the flat indices of the set bits in order
    rng = _rng(width)
    words = _words(rng, 12, width)
    byte = words.astype("<u8", copy=False).view(np.uint8).ravel()
    full = byte.nonzero()[0]
    bits = np.unpackbits(byte.take(full), bitorder="little").nonzero()[0]
    got = 8 * full.take(bits >> 3) + (bits & 7)
    whole = _as_int(words.ravel())
    assert got.tolist() == [b for b in range(64 * words.size) if whole >> b & 1]


@pytest.mark.parametrize("width", [1, 2, 5])
def test_lowest_set_bit_from_the_byte_view_and_table(width):
    # complexes._expand takes the pivot as 8 * first + _LOWEST[byte], first the
    # first nonzero byte of the row's "<u8" view; _LOWEST[b] is b's lowest set bit
    assert _LOWEST.tolist()[1:] == [min(i for i in range(8) if b >> i & 1) for b in range(1, 256)]
    rng = _rng(width)
    either = _words(rng, 30, width)
    either = either[either.any(axis=1)]  # rows with a set bit
    byte = either.astype("<u8", copy=False).view(np.uint8)
    first = (byte != 0).argmax(axis=1)
    low = _LOWEST.take(byte[np.arange(first.size), first])
    for i, row in enumerate(either):
        whole = _as_int(row)
        assert 8 * first[i] + low[i] == (whole & -whole).bit_length() - 1, i


@pytest.mark.parametrize("width", [1, 2, 4])
def test_bincount_of_distinct_powers_of_two_is_the_or(width):
    # complexes._clique_table sums float64 2**(col & 31) per 32-bit half word with
    # np.bincount, block by block into one array, and casts the sums to uint64:
    # distinct bits below 2**32 add up exactly to their OR
    rng = _rng(width)
    n_rows = 20
    cells = 2 * width * n_rows
    # distinct (row, col) pairs; row 0 is full, so every half word holds 2**32 - 1
    pairs = {(0, col) for col in range(64 * width)}
    pairs |= {(int(r), int(c)) for r, c in zip(rng.integers(1, n_rows, 400),
                                                rng.integers(0, 64 * width, 400))}
    row, col = np.array(sorted(pairs)).T
    order = rng.permutation(row.size)
    row, col = row[order], col[order]
    halves = np.zeros(cells)
    for s in range(0, row.size, 97):
        r, c = row[s:s + 97], col[s:s + 97]
        halves += np.bincount(r * 2 * width + (c >> 5), 2.0 ** np.arange(32).take(c & 31), cells)
    got = halves.astype(np.uint64)
    want = [0] * cells
    for r, c in zip(row.tolist(), col.tolist()):
        want[r * 2 * width + (c >> 5)] |= 1 << (c & 31)
    assert got.tolist() == want


def test_uint64_shift_and_bitwise_ops():
    # complexes joins the half words as lo | hi << np.uint64(32) and combines the
    # bitsets with &, | and ~; each must act on all 64 bits and stay uint64
    rng = _rng(64)
    mask = 2 ** 64 - 1
    lo, hi = (rng.integers(0, 2 ** 32, size=200, dtype=np.uint64) for _ in range(2))
    lo[:2], hi[:2] = 2 ** 32 - 1, [0, 2 ** 32 - 1]
    a, b = _words(rng, 3, 200)[1:]  # a random row, and one ending in a full word
    joined = lo | hi << np.uint64(32)
    for got, want in ((joined, [x | (y << 32) for x, y in zip(lo.tolist(), hi.tolist())]),
                      (a & ~b, [x & (mask ^ y) for x, y in zip(a.tolist(), b.tolist())]),
                      ((a | b) & ~a, [(x | y) & (mask ^ x) for x, y in zip(a.tolist(), b.tolist())]),
                      (~a, [mask ^ x for x in a.tolist()])):
        assert got.dtype == np.uint64 and got.tolist() == want


@pytest.mark.parametrize("n, width", [(2, 3), (9, 4), (1000, 7), (2 ** 31, 3), (5, 40)])
def test_lexsort_of_packed_row_keys_orders_rows_as_tuples(n, width):
    # complexes._clique_table orders its table with
    # np.lexsort(_row_keys(table, n)[::-1]): each int64 key packs several
    # columns, id + 1 in base n + 1, and the rows come out in tuple order
    rng = _rng(width)
    table = rng.integers(-1, n, size=(300, width))
    table[::3, width // 2:] = -1  # padded rows
    table[1::7] = table[2::7]  # repeated rows
    keys = _row_keys(table, n)
    assert all(key.dtype == np.int64 for key in keys)
    got = table[np.lexsort(keys[::-1])]
    assert list(map(tuple, got.tolist())) == sorted(map(tuple, table.tolist()))


def _hull_stack(rng, n_faces: int, size: int, d: int, n_rows: int):
    """(diff, edges) as geometry._hull_distances builds them for a block of faces of
    ``size`` vertices: each face's vertices less its first, and each query row less
    every face's first vertex; face 0 repeats a vertex, so its Gram is singular."""
    verts = rng.normal(size=(n_faces, size, d)) * np.exp(rng.normal(size=(n_faces, 1, 1)) * 3)
    verts[0, -1] = verts[0, 0]
    q = rng.normal(size=(n_rows, d)) * 4
    return q[:, None, :] - verts[:, 0], verts[:, 1:] - verts[:, :1]


def _blocks(n: int):
    """Contiguous blocks of 0..n-1: the whole, one row each and about a third each."""
    step = max(1, -(-n // 3))
    return [slice(0, n)] + [slice(i, i + 1) for i in range(n)] + \
        [slice(i, i + step) for i in range(0, n, step)]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_stacked_pinv_of_a_gram_stack_is_each_faces_pinv(d):
    # geometry._hull_distances inverts the Gram matrices of a block of faces with
    # one stacked pinv: face f's inverse must be pinv of its Gram alone, bit for
    # bit, singular Grams included, and a face block's Gram stack that slice of
    # the whole, so no distance depends on the face block size
    rng = _rng(d)
    for size in range(1, d + 2):
        for n_faces in HEIGHTS:
            _, edges = _hull_stack(rng, n_faces, size, d, 1)
            gram = np.einsum("fsd,ftd->fst", edges, edges)
            inv = np.linalg.pinv(gram)
            assert inv.shape == (n_faces, size - 1, size - 1)
            for f in range(n_faces):
                assert np.array_equal(inv[f], np.linalg.pinv(gram[f])), (size, n_faces, f)
            for faces in _blocks(n_faces):
                block = edges[faces].copy()
                assert np.array_equal(np.einsum("fsd,ftd->fst", block, block), gram[faces])


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_hull_einsums_on_a_block_are_that_slice_of_the_whole(d):
    # geometry._hull_distances runs its four contractions on (row block, face
    # block) pieces, the diffs computed and the faces gathered per block: each
    # must give that slice of the whole contraction, bit for bit
    rng = _rng(10 + d)
    for size in range(1, d + 2):
        for n_faces, n_rows in ((1, 1), (3, 7), (9, 2), (64, 9)):
            diff, edges = _hull_stack(rng, n_faces, size, d, n_rows)
            inv = np.linalg.pinv(np.einsum("fsd,ftd->fst", edges, edges))
            proj = np.einsum("bfd,fsd->bfs", diff, edges)
            mu = np.einsum("fst,bft->bfs", inv, proj)
            back = np.einsum("bfs,fsd->bfd", mu, edges)
            res = diff - back
            sq = np.einsum("bfd,bfd->bf", res, res)
            for rows in _blocks(n_rows):
                for faces in _blocks(n_faces):
                    part = (rows, faces)
                    e, i = edges[faces].copy(), inv[faces].copy()
                    for got, want in (
                            (np.einsum("bfd,fsd->bfs", diff[part].copy(), e), proj),
                            (np.einsum("fst,bft->bfs", i, proj[part].copy()), mu),
                            (np.einsum("bfs,fsd->bfd", mu[part].copy(), e), back),
                            (np.einsum("bfd,bfd->bf", res[part].copy(), res[part].copy()), sq)):
                        assert np.array_equal(got, want[part]), (size, n_faces, n_rows)
