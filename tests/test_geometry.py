import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simbal import (
    MAXIMAL,
    distance_to_simplex,
    mean_model_distance,
    sample_dirichlet,
)
from simbal.geometry import GeometryParameterError, project_to_probability_simplex


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestSampleDirichlet:
    def test_single_vertex_forces_unit_weight(self):
        lam = sample_dirichlet([1.0], rng_for(0))
        assert lam.tolist() == [1.0]

    def test_sum_and_bounds(self):
        rng = rng_for(1)
        for alpha in ([1, 1], [2, 1, 0.5], [0.1, 0.1, 0.1, 0.1]):
            for _ in range(200):
                lam = sample_dirichlet(alpha, rng)
                assert lam.shape == (len(alpha),)
                assert np.all(lam >= 0) and np.all(lam <= 1)
                assert abs(lam.sum() - 1.0) < 1e-12

    def test_mean_matches_alpha_ratio(self):
        rng = rng_for(2)
        alpha = np.array([2.0, 1.0, 1.0])
        draws = np.array([sample_dirichlet(alpha, rng) for _ in range(20_000)])
        assert np.allclose(draws.mean(axis=0), alpha / alpha.sum(), atol=0.01)

    def test_small_alpha_no_nan(self):
        rng = rng_for(3)
        draws = np.array([sample_dirichlet([0.01, 0.01], rng) for _ in range(2_000)])
        assert np.all(np.isfinite(draws))
        assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic_per_state(self):
        a = sample_dirichlet([1, 2, 3], rng_for(7))
        b = sample_dirichlet([1, 2, 3], rng_for(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("alpha", [[0.0, 1.0], [-1.0], [np.nan, 1.0], []])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(GeometryParameterError):
            sample_dirichlet(alpha, rng_for(0))


class TestProjectToProbabilitySimplex:
    def test_already_feasible_fixed(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_probability_simplex(v), v, atol=1e-12)

    def test_matches_exhaustive_small_cases(self):
        rng = rng_for(5)
        grid = np.array([w for w in np.ndindex(51, 51) if sum(w) <= 50]) / 50.0
        grid = np.column_stack([grid, 1.0 - grid.sum(axis=1)])
        for _ in range(20):
            v = rng.normal(scale=2.0, size=3)
            proj = project_to_probability_simplex(v)
            best = grid[np.argmin(((grid - v) ** 2).sum(axis=1))]
            assert np.linalg.norm(proj - v) <= np.linalg.norm(best - v) + 1e-9


class TestDistanceToSimplex:
    def test_edge_distance_from_origin(self):
        verts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert distance_to_simplex(np.zeros(3), verts) == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-6)

    def test_triangle_distance_from_origin(self):
        assert distance_to_simplex(np.zeros(3), np.eye(3)) == pytest.approx(
            1.0 / np.sqrt(3.0), abs=1e-6)

    def test_vertex_on_simplex_is_zero(self):
        verts = rng_for(6).normal(size=(4, 3))
        for v in verts:
            assert distance_to_simplex(v, verts) == pytest.approx(0.0, abs=1e-7)

    def test_single_vertex(self):
        assert distance_to_simplex([3.0, 4.0], [[0.0, 0.0]]) == pytest.approx(5.0)

    def test_matches_constrained_solver(self):
        from scipy.optimize import minimize

        rng = rng_for(7)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            d = int(rng.integers(2, 6))
            verts = rng.normal(size=(k, d))
            q = rng.normal(size=d)
            got = distance_to_simplex(q, verts)
            res = minimize(
                lambda lam: float(np.sum((lam @ verts - q) ** 2)),
                np.full(k, 1.0 / k),
                constraints=[{"type": "eq", "fun": lambda lam: lam.sum() - 1.0}],
                bounds=[(0.0, 1.0)] * k, method="SLSQP",
                options={"ftol": 1e-14, "maxiter": 500})
            assert got == pytest.approx(float(np.sqrt(res.fun)), abs=1e-5)

    def test_face_distance_never_smaller(self):
        rng = rng_for(8)
        for _ in range(20):
            verts = rng.normal(size=(4, 3))
            q = rng.normal(size=3)
            full = distance_to_simplex(q, verts)
            for drop in range(4):
                face = np.delete(verts, drop, axis=0)
                assert full <= distance_to_simplex(q, face) + 1e-8


class TestMeanModelDistance:
    def test_scaled_basis_triangle(self):
        # three scaled basis points with the origin as the lone majority
        # point: edges at s/sqrt(2), the full triangle at s/sqrt(3)
        for s in (1.0, 2.5):
            mino = s * np.eye(3)
            maj = np.zeros((1, 3))
            d_edges = mean_model_distance(maj, mino, k=2, p=1)
            d_tri = mean_model_distance(maj, mino, k=2, p=2)
            assert d_edges == pytest.approx(s / np.sqrt(2.0), abs=1e-6)
            assert d_tri == pytest.approx(s / np.sqrt(3.0), abs=1e-6)

    def test_single_minority_point_is_mean_distance(self):
        maj = np.array([[3.0, 0.0], [0.0, 4.0]])
        mino = np.array([[0.0, 0.0]])
        assert mean_model_distance(maj, mino, k=1) == pytest.approx(3.5)

    def test_monotone_in_p(self):
        rng = rng_for(9)
        for seed in range(5):
            mino = rng.normal(size=(10, 3))
            maj = rng.normal(size=(8, 3)) * 2.0
            d1 = mean_model_distance(maj, mino, k=4, p=1)
            d3 = mean_model_distance(maj, mino, k=4, p=3)
            dmax = mean_model_distance(maj, mino, k=4, p=MAXIMAL)
            assert d3 <= d1 + 1e-8
            assert dmax <= d3 + 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryParameterError):
            mean_model_distance(np.zeros((2, 2)), np.zeros((3, 3)), k=1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_projection_distance_bounded_by_vertex_distances(seed):
    rng = rng_for(seed)
    verts = rng.normal(size=(int(rng.integers(1, 6)), 3))
    q = rng.normal(size=3)
    dist = distance_to_simplex(q, verts)
    assert 0.0 <= dist <= float(np.min(np.linalg.norm(verts - q, axis=1))) + 1e-8
