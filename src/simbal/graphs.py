"""Exact (distance, index)-ordered nearest neighbours, kNN graphs.

One search, ``_search``, ranks every neighbour. ``nearest``, the public
query, checks its arguments and searches one reference: the kNN graph, the
safety counts and the kNN classifier go through it. The search's grouped case
serves the grid search's classifier: several references that share their
leading rows (a training fold plus each configuration's synthetic rows) are
ranked in one pass, with the same block loop over the query's rows, the same
filter and the same re-rank.
Single-precision GEMMs give every squared distance of a block by the Gram
identity ||q||^2 + ||r||^2 - 2 q.r, on both sets scaled by one power of two,
but those values only filter. The filter has its own, smaller working set:
it takes a block in sub-blocks of at most ``_FILTER_ELEMS`` Gram entries,
written into float32 scratch arrays that each thread reuses, so no
Gram-sized temporary is allocated. Each Gram row is folded into column
classes, and the threshold comes from the classes' minima plus a rounding
bound that reads only the row, built from Higham's gamma_{d+1} at
u = 2**-24 ("Accuracy and Stability of Numerical Algorithms", ch. 3) and
derived at ``_candidates``: each row keeps every column that can rank among
its first k, ties included. Only these candidates get their distances
recomputed in float64 from coordinate differences, the formula
``cross_distances`` uses, and are sorted exactly, row by row. So the ids do
not depend on the BLAS, its summation order or its thread count. When two
candidate neighbors are at the same distance, the one with the lower vertex
index wins. Distances are Euclidean throughout.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass

import numpy as np

# Symmetrization modes for the directed kNN relation.
UNION = "union"
MUTUAL = "mutual"

# Elements of one temporary: the (block, n_ref) row block that ``_search``
# re-ranks (its Gram filter works on smaller sub-blocks, ``_FILTER_ELEMS``, and
# its re-rank table, one row of candidates per query row, is no wider),
# the (pairs, d) coordinate differences of that exact re-rank, gathered in
# chunks even when every pair is a candidate, the (block, n_b, d) difference
# tensor of ``cross_distances`` and the (block, n_faces, d) tensors of
# ``geometry._hull_distances``. It sets the row block size, so no full
# (n_query, n_ref) matrix is ever held.
_BLOCK_ELEMS = 1_000_000

# Elements of each of the three scratch arrays that ``_candidates`` filters a
# block through, ``_FILTER_ELEMS // n_ref`` rows at a time: the float32 Gram
# sub-block, the float32 one that holds its folded row minima, and the bool
# mask of kept pairs; about 1.1 MB, so the filter's working set stays in cache.
# Each thread keeps its own set for the life of the thread, so a query
# allocates and frees no Gram-sized array (fresh ones cost a page fault per
# 4 KB page on every call); a row longer than this gets arrays of its own, for
# that call only.
_FILTER_ELEMS = 2 ** 17
# Column classes j mod w that ``_candidates`` folds each Gram row into, taking
# its filter threshold from their minima: w = min(n_ref, max(_FOLD, 4 kk)) for
# the first kk of a row.
_FOLD = 128
_scratch = threading.local()

# A block whose squared norms reach this (or are inf) is re-ranked on every
# pair: below it no squared distance of the re-rank overflows, so the filter's
# bound (``_candidates``) holds for every pair.
_NORM_LIMIT = 2.0 ** 1000


class GraphParameterError(ValueError):
    """Raised when a graph parameter is outside its valid range."""


def _integer(value, what: str, error: type[ValueError] = GraphParameterError) -> int:
    """``value`` as a Python int: numpy ints pass, a float raises ``error``, not truncates."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _floats(values) -> np.ndarray:
    """``values`` as a float array; ragged or non-numeric input raises ``GraphParameterError``."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise GraphParameterError("points must be a numeric, non-ragged (n, d) matrix") from None


def as_points(points) -> np.ndarray:
    """Validate and return an (n, d) float array of finite coordinates."""
    pts = _floats(points)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise GraphParameterError(
            f"expected an (n, d) matrix with n >= 1, d >= 1, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise GraphParameterError("point coordinates must be finite (no NaN/Inf)")
    return pts


@dataclass(frozen=True)
class NeighborhoodGraph:
    """Undirected graph over vertices 0..n_vertices-1 with canonical (u < v) edges."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise GraphParameterError("n_vertices must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n_vertices):
                raise GraphParameterError(f"invalid edge ({u}, {v}) for n={self.n_vertices}")

    def _pairs(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(n, lo, hi): the edges lo < hi in lexicographic order, as ``_knn_pairs`` gives them."""
        return self.n_vertices, *np.array(sorted(self.edges), np.intp).reshape(-1, 2).T

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(self._pairs()[1:]), minlength=self.n_vertices)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Row sums of squares of an (m, d) array; every exact distance goes through it."""
    return np.einsum("ij,ij->i", x, x)


def _check_dims(pa: np.ndarray, pb: np.ndarray) -> None:
    if pa.shape[1] != pb.shape[1]:
        raise GraphParameterError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")


def cross_distances(a, b) -> np.ndarray:
    """Euclidean distances between two point sets as an (n_a, n_b) matrix."""
    pa, pb = as_points(a), as_points(b)
    _check_dims(pa, pb)
    n_b, d = pb.shape
    out = np.empty((pa.shape[0], n_b), dtype=float)
    block = max(1, _BLOCK_ELEMS // (n_b * d))
    for start in range(0, pa.shape[0], block):
        # a difference past the float range is inf: the distance is inf, as it must be
        with np.errstate(over="ignore"):
            diff = pa[start:start + block, None, :] - pb[None, :, :]
        out[start:start + block] = np.sqrt(_sq_norms(diff.reshape(-1, d))).reshape(-1, n_b)
    return out


def pairwise_distances(points) -> np.ndarray:
    """Full Euclidean distance matrix, exactly symmetric with a zero diagonal."""
    return cross_distances(points, points)


def _every_pair(n_rows: int, n_cols: int) -> np.ndarray:
    """Flat row-major ids of every pair of a block: the exact path."""
    return np.arange(n_rows * n_cols)


def _filter_buffers(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's (float32, float32, bool) scratch arrays with at least ``size`` elements."""
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or bufs[0].size < size:
        n = max(size, _FILTER_ELEMS)
        bufs = np.empty(n, np.float32), np.empty(n, np.float32), np.empty(n, dtype=bool)
        if size <= _FILTER_ELEMS:
            _scratch.bufs = bufs
    return bufs


def _candidates(q, r, qn, rn, kk: int, n_thr: int) -> np.ndarray:
    """Flat row-major ids of the (row, col) pairs that can rank in the first kk of their row,
    among any columns that hold the first ``n_thr``.

    ``q`` and ``r`` are the query and reference points q*, r* shifted by one
    centre, ``qn`` and ``rn`` their squared norms. The threshold comes from the
    first ``n_thr`` columns (the threshold columns) alone, and every column is
    compared with it: the kk-th nearest threshold column ranks no earlier than
    the kk-th of any column set that holds all of them. With fewer than kk
    threshold columns there is no such bound, and every pair is kept.
    The filter runs in float32. Both sets are first scaled by 2**-e, e taken
    from ``np.frexp`` of the largest squared norm, so every squared norm is
    below 1 (where that norm is subnormal, up to the digits it has lost; the
    bound does not rest on it). The scaling is exact, but for a coordinate it
    makes subnormal, which is off by at most 2**-1075, and the squared norms
    are computed again from the scaled points, since at scale 1e-160 ``qn``
    and ``rn`` are subnormal and have lost their digits. Below, Q and R are the scaled points, qn_i and
    rn_j their float64 squared norms, D = ||q* - r*||^2 2**-2e, and every
    quantity is in scaled units. Rounding bound, with u = 2**-24 and
    v = 2**-53 (Higham, "Accuracy and Stability of Numerical Algorithms",
    ch. 3; each bound holds for any summation order, so for any IEEE float32
    sgemm and thread count):
    - the shift rounds each coordinate once (a subnormal difference is exact),
      so S = ||Q - R||^2 has |S - D| <= 4.01 v (||Q||^2 + ||R||^2);
    - the re-rank computes D' = fl(sum fl(fl(q*_k - r*_k)^2)) in float64:
      |D' - D| <= (d + 2) v D / (1 - (d + 2) v), and it orders by
      fl(sqrt(D')), where fl(sqrt(x)) <= fl(sqrt(y)) only if x < (1 + 5v) y;
    - the GEMM multiplies (fl32(-2Q), 1) by (fl32(R), fl32(rn)). Each
      conversion rounds by at most u relative, so the exact product of the
      converted rows is off from g = ||R||^2 - 2Q.R = S - ||Q||^2 by at most
      3.02u (||Q||^2 + ||R||^2); the (d + 1)-term sgemm adds at most
      gamma_{d+1} times the sum of its terms' magnitudes, which is under
      2.02 (||Q||^2 + ||R||^2);
    - together the float32 g has |g + qn - D'| <= eps (qn + rn) + a0, with
      gamma_m = m u / (1 - m u), eps = 3.1u + 2.02 gamma_{d+1} <= 2.44 (d + 2) u
      (float64 terms included) and a0 the underflow below.
    So if column j ranks no later than column l in row i, ties included,
    g_ij <= g_il + e_ij + e_il with e_ij = eps (qn_i + rn_j) + a0.
    Row i folds its threshold columns into the w = min(n_thr, max(_FOLD, 4 kk))
    >= kk classes j mod w and takes each class's smallest g. Their kk-th
    smallest, M_i, is reached by kk distinct threshold columns l
    (g_il <= M_i), and one of them ranks no earlier than the row's kk-th in
    any column set that holds them: every column j of that set's exact first
    kk, and every tie with it, has g_ij <= M_i + e_ij + e_il for that l. The
    slack needs only the row: ||R_j||^2 <= 2 ||Q_i||^2 + 2 S_ij, S_il <= M_i +
    qn_i + e_il and S_ij <= S_il up to float64 rounding, so with
    X_i = max(M_i + qn_i, 0) both rn_j and rn_l are at most
    1.01 (2 qn_i + 2 X_i) + 2.01 a0, and e_ij + e_il <= 1.03 eps (6 qn_i +
    4 X_i) + 2.1 a0. A far reference row widens no other row's slack.
    Row i keeps column j when g_ij <= t_i = fl(y_i - P_i), with
    y_i = max(x_i, fl(x_i (1 + 4c))), x_i = fl(M_i + fl(qn_i)),
    P_i = fl((1 - 6c) qn_i - 2a) and c = 8 (d + 2) u. Unrounded,
    t_i = M_i + 4c X_i + 6c qn_i + 2a; its roundings, float32 except in
    P_i, lose at most 3.1u X_i + 4.1u qn_i + 4.1u a. So t_i covers
    e_ij + e_il when c >= 1.03 eps + 0.8u, under 2.8 (d + 2) u since d + 2 >= 3,
    and c is more than twice it. That needs (d + 2) u <= 2**-10 (gamma_{d+1}
    and the 1.01 above rest on it), so wider points keep every pair.
    Underflow (IEEE gradual underflow) adds an absolute error of at most
    2**-150 to each float32 conversion, product and threshold operation,
    under (d + 2) 2**-147 in all, and at most 2**-1075 to each float64 one:
    the re-rank's, under 4 (d + 2) 2**-1074 in original units, is 2**-2e times
    that in scaled units. a = (d + 2) (2**-120 + 2**(-1060 - 2e)) covers both
    with room, and lies far below any squared distance that float32 and the
    re-rank resolve. ||Q_i||^2 is the same along a row, so g leaves it out.
    """
    norm = max(qn.max(), rn.max())
    n_ref, d = r.shape
    if kk > n_thr or d + 2 > 2 ** 14 or not norm < _NORM_LIMIT:  # also false on inf
        return _every_pair(len(q), len(r))
    e = int(np.frexp(norm)[1]) // 2 + 1
    scale = np.ldexp(1.0, -e)
    q, r = q * scale, r * scale
    qn = _sq_norms(q)
    c, a = (d + 2) * 2.0 ** -21, (d + 2) * (2.0 ** -120 + 2.0 ** (-1060 - 2 * e))
    # the row terms of the threshold, once per call
    row_qn, grow = qn.astype(np.float32), np.float32(1 + 4 * c)
    row_base = ((1 - 6 * c) * qn - 2 * a).astype(np.float32)
    w = min(n_thr, max(_FOLD, 4 * kk))
    whole = n_thr - n_thr % w
    # one GEMM gives g = ||r||^2 - 2 q.r: the rows (-2q, 1) times the columns (r, ||r||^2)
    q2 = np.empty((len(q), d + 1), np.float32)
    q2[:, :d], q2[:, d] = -2.0 * q, 1.0
    r2 = np.empty((d + 1, n_ref), np.float32)
    r2[:d], r2[d] = r.T, _sq_norms(r)
    step = max(1, _FILTER_ELEMS // n_ref)
    g_buf, min_buf, keep_buf = _filter_buffers(step * n_ref)
    found = []
    for s in range(0, len(q), step):
        rows = min(step, len(q) - s)
        g, mins = g_buf[:rows * n_ref].reshape(rows, n_ref), min_buf[:rows * w].reshape(rows, w)
        np.matmul(q2[s:s + step], r2, out=g)
        g[:, :whole].reshape(rows, -1, w).min(axis=1, out=mins)
        rest = mins[:, :n_thr - whole]
        np.minimum(rest, g[:, whole:n_thr], out=rest)
        mins.partition(kk - 1, axis=1)
        x = mins[:, kk - 1] + row_qn[s:s + step]
        t = np.maximum(x, x * grow)
        t -= row_base[s:s + step]
        keep = np.less_equal(g, t[:, None], out=keep_buf[:rows * n_ref].reshape(rows, n_ref))
        found.append(np.flatnonzero(keep) + s * n_ref)
    return np.concatenate(found)


def _rerank(q, r, rows, cols, kk: int) -> np.ndarray:
    """(len(q), kk) first cols per row in exact (distance, index) order.

    ``rows`` ascend, each row holds at least kk pairs or every column of its
    reference, and ``cols`` ascend within a row. Each row's distances go into
    one row of a table padded with inf; a stable sort of each table row keeps
    the lower column first on a tie, and every real distance, inf included,
    before the pads. A row of fewer than kk pairs ends in ids that mean
    nothing, which the grouped search drops.
    """
    dist = np.empty(rows.size)
    step = max(1, _BLOCK_ELEMS // q.shape[1])
    for s in range(0, rows.size, step):
        diff = q.take(rows[s:s + step], axis=0)
        # an overflowed difference makes an inf distance, which ranks last
        with np.errstate(over="ignore"):
            diff -= r.take(cols[s:s + step], axis=0)
        dist[s:s + step] = np.sqrt(_sq_norms(diff))
    first = rows.searchsorted(np.arange(len(q) + 1))
    width = (first[1:] - first[:-1]).max()
    table = np.full((len(q), width), np.inf)
    # pair j of row i goes to flat slot i * width + j - first[i]
    table.put(rows * width - first.take(rows) + np.arange(rows.size), dist)
    order = table.argsort(axis=1, kind="stable")[:, :kk]
    return cols.take(first[:-1, None] + order, mode="clip")


def nearest(query, ref, k: int, self_ids=None) -> np.ndarray:
    """(n_query, k) ``ref`` row ids nearest each query row, in (distance, index) order.

    ``self_ids[i]``, when given, is the ``ref`` row that query row i skips.
    Query rows go in blocks of ``_BLOCK_ELEMS // n_ref``, never as a full
    (n_query, n_ref) matrix. Per block, GEMMs over sub-blocks of
    ``_FILTER_ELEMS // n_ref`` rows filter the candidates of each row:
    float32 Gram-identity squared distances of both sets shifted by the mean
    of ``ref`` (so data far from the origin still filter) and scaled by a
    power of two, kept within a rounding bound from Higham's gamma_{d+1}
    (``_candidates``) of an upper bound on the k-th smallest, the k-th
    smallest of the row's folded column minima, so every tie survives; with
    self skipped, of the (k+1)-th. The candidates'
    distances are then recomputed from the original coordinates' differences,
    as in ``cross_distances``, and each row's are sorted by (distance, index). A block
    with squared norms past an overflow-safe limit re-ranks every pair. The ids
    are exact whatever the BLAS and its thread count.
    """
    q, r = as_points(query), as_points(ref)
    k, skip = _integer(k, "k"), self_ids is not None
    if not 1 <= k <= r.shape[0] - skip:
        raise GraphParameterError(f"k must satisfy 1 <= k <= {r.shape[0] - skip}, got {k}")
    if skip:
        try:
            self_ids = np.asarray(self_ids)
        except ValueError:  # a ragged nesting
            raise GraphParameterError("need one self id per query row") from None
        if self_ids.shape != (q.shape[0],):
            raise GraphParameterError(f"need one self id per query row, not {self_ids.shape}")
        if self_ids.dtype.kind not in "iu" or not 0 <= self_ids.min() <= self_ids.max() < len(r):
            raise GraphParameterError(f"self ids must be integers in [0, {len(r)})")
    _check_dims(q, r)
    return _search(q, r, k, len(r), [0], self_ids)[0]


def _centred(q: np.ndarray, r: np.ndarray):
    """(qc, rc, qn, rn): both sets shifted by the reference mean, and their squared norms.

    The filter works on the shifted sets: distances stay, and the norms its
    bound scales with shrink (see ``_candidates``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centre = r.mean(axis=0)
        centre[~np.isfinite(centre)] = 0.0  # an overflowed mean: shift nothing
        qc, rc = q - centre, r - centre
    return qc, rc, _sq_norms(qc), _sq_norms(rc)


def _search(q, r, k: int, n_shared: int, sizes, self_ids=None) -> list[np.ndarray]:
    """Per group c, the (len(q), k_c) ids into ``r`` nearest each query row in
    reference c, in (distance, index) order, k_c = min(k, n_shared + sizes[c]).

    ``q`` and ``r`` are (n, d) float arrays of finite coordinates with the same
    d, and ``self_ids``, when given, the checked ``r`` row each query row
    skips: the caller validates them. ``r`` is [shared rows; group 0; group 1;
    ...], group c holding ``sizes[c]`` rows, and reference c is the shared rows
    followed by group c; ``nearest`` passes all of ``r`` as shared rows and
    one empty group. Shared rows come before group rows in both numberings, so
    the (distance, index) order is the same. The filter (``_candidates``)
    takes each row's threshold from the columns every reference holds: all of
    a lone reference's, the shared rows when there are several; with fewer
    than k of them (k + 1 with self skipped) every pair is kept. With several
    groups the survivors are re-ranked on virtual rows (group c, query row i),
    c-major: row i's shared candidates go to every group, its group candidates
    to their own.
    """
    n_ref, n_groups, skip = len(r), len(sizes), self_ids is not None
    kks = [min(k, n_shared + size) for size in sizes]
    qc, rc, qn, rn = _centred(q, r)
    out = [np.empty((len(q), kk), dtype=int) for kk in kks]
    # a query row has at most this many virtual pairs: every shared column once
    # per group, every group column once
    block = max(1, _BLOCK_ELEMS // (n_ref + (n_groups - 1) * n_shared))
    for start in range(0, len(q), block):
        stop = min(start + block, len(q))
        n_rows, block_q = stop - start, q[start:stop]
        rows, cols = np.divmod(_candidates(qc[start:stop], rc, qn[start:stop], rn, k + skip,
                                           n_ref if n_groups == 1 else n_shared), n_ref)
        if skip:
            # drop self by id: an inf sentinel would tie with overflowed distances
            keep = cols != self_ids[start + rows]
            rows, cols = rows[keep], cols[keep]
        if n_groups > 1:
            # each column's group, -1 on a shared column
            group = np.cumsum([n_shared, *sizes]).searchsorted(cols, side="right") - 1
            shared = group < 0
            # (virtual row, col) keys, sorted: cols ascend within each virtual row
            keys = np.concatenate((
                (np.arange(n_groups)[:, None] * n_rows + rows[shared]).ravel() * n_ref
                + np.tile(cols[shared], n_groups),
                (group[~shared] * n_rows + rows[~shared]) * n_ref + cols[~shared]))
            keys.sort()
            rows, cols = np.divmod(keys, n_ref)
            block_q = np.tile(block_q, (n_groups, 1))
        # with fewer than k shared rows k_c varies; each group keeps its first k_c
        ids = _rerank(block_q, r, rows, cols, max(kks)).reshape(n_groups, n_rows, -1)
        for c, kk in enumerate(kks):
            out[c][start:stop] = ids[c, :, :kk]
    return out


def _knn_pairs(points, k: int, symmetrize: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, lo, hi): the edges lo < hi of ``knn_graph(points, k, symmetrize)``, lexicographic."""
    pts = as_points(points)
    n = pts.shape[0]
    if symmetrize not in (UNION, MUTUAL):
        raise GraphParameterError(f"symmetrize must be '{UNION}' or '{MUTUAL}', got {symmetrize!r}")
    neighbors = nearest(pts, pts, k, np.arange(n))  # which checks k
    return _listed_pairs(n, np.repeat(np.arange(n), neighbors.shape[1]), neighbors.ravel(),
                         symmetrize)


def _listed_pairs(n: int, src: np.ndarray, dst: np.ndarray,
                  symmetrize: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, lo, hi): the edges lo < hi, lexicographic, of the graph on 0..n-1 in which
    vertex src[i] lists dst[i], no vertex listing itself or another twice."""
    # each undirected pair as min * n + max; a pair listed from both ends
    # appears exactly twice
    pairs, listed = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                              return_counts=True)
    if symmetrize == MUTUAL:
        pairs = pairs[listed == 2]
    return n, *np.divmod(pairs, n)


def knn_graph(points, k: int, symmetrize: str = UNION) -> NeighborhoodGraph:
    """Symmetrized k-nearest-neighbor graph.

    Each vertex lists its k nearest other vertices (distance ties broken by
    lower index); the directed lists are then merged. With ``union`` an edge
    exists if either endpoint lists the other, with ``mutual`` only if both do.
    """
    n, lo, hi = _knn_pairs(points, k, symmetrize)
    return NeighborhoodGraph(n, frozenset(zip(lo.tolist(), hi.tolist())))
