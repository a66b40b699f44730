import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simbal import (
    MAXIMAL,
    distance_to_simplex,
    graphs,
    mean_model_distance,
    sample_dirichlet,
)
from simbal.geometry import GeometryParameterError, dirichlet_weights


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

    @pytest.mark.parametrize("alpha", [[0.3, 1.0, 2.5], [0.01, 0.01]])
    def test_small_alpha_boost_is_gamma_of_alpha_plus_one_times_uniform_power(self, alpha):
        # the draw order and the boost, bit for bit: len(alpha) Gamma variates of
        # the shapes alpha + 1 (alpha < 1) or alpha, then len(alpha) uniforms;
        # a boosted component is G * U ** (1 / alpha), and the row its own sum
        rng = rng_for(11)
        clone = np.random.PCG64()
        clone.state = rng.bit_generator.state
        twin = np.random.Generator(clone)
        a = np.asarray(alpha)
        for _ in range(50):
            g = twin.standard_gamma(np.where(a < 1.0, a + 1.0, a))
            u = twin.uniform(size=a.size)
            boosted = np.where(a < 1.0, g * u ** (1.0 / a), g)
            assert sample_dirichlet(alpha, rng).tobytes() == (boosted / boosted.sum()).tobytes()

    @pytest.mark.parametrize("alpha", [[1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 1.0],
                                       [5.0, 1.0, 1.0, 1.0]])
    def test_alpha_of_at_least_one_matches_the_general_formula(self, alpha):
        # gate 5's alphas: nothing is boosted, but the uniforms are still drawn,
        # so 2000 draws in a row equal the general formula's bit for bit
        rng = rng_for(12)
        clone = np.random.PCG64()
        clone.state = rng.bit_generator.state
        twin = np.random.Generator(clone)
        a = np.asarray(alpha)
        for _ in range(2_000):
            g = twin.standard_gamma(np.where(a < 1.0, a + 1.0, a))
            u = twin.uniform(size=a.size)
            weights = np.where(a < 1.0, g * u ** (1.0 / a), g)
            assert sample_dirichlet(alpha, rng).tobytes() == (weights / weights.sum()).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_all_underflowed_row_gets_the_centre(self):
        gammas = np.array([[0.0, 0.0, 0.0], [1.0, 3.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = dirichlet_weights(gammas)
        assert lam.tolist() == [[1 / 3, 1 / 3, 1 / 3], [0.25, 0.75, 0.0]]

    @pytest.mark.parametrize("alpha", [[0.0, 1.0], [-1.0], [np.nan, 1.0], [], ["a", 1],
                                       [[1.0], [1.0, 2.0]]])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(GeometryParameterError):
            sample_dirichlet(alpha, rng_for(0))


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
        for v in [*verts, verts.mean(axis=0)]:  # the centroid needs all d + 1
            assert distance_to_simplex(v, verts) == pytest.approx(0.0, abs=1e-7)

    def test_single_vertex(self):
        assert distance_to_simplex([3.0, 4.0], [[0.0, 0.0]]) == pytest.approx(5.0)

    def test_matches_constrained_solver(self):
        from scipy.optimize import minimize

        rng = rng_for(7)
        cases = []
        for _ in range(30):
            k = int(rng.integers(2, 6))
            d = int(rng.integers(2, 6))
            cases.append((rng.normal(size=(k, d)), rng.normal(size=d)))
        # two inputs that need an exact solve to meet 1e-7; the second
        # repeats a vertex, so some of its faces are singular
        for seed, repeat in ((89, False), (216, True)):
            r = np.random.default_rng(seed)
            k, d = int(r.integers(1, 7)), int(r.integers(1, 6))
            verts = r.normal(size=(k, d))
            q = 2 * r.normal(size=d)
            if repeat:
                verts[1] = verts[0]
            cases.append((verts, q))
        for verts, q in cases:
            k = verts.shape[0]
            best = min(
                minimize(
                    lambda lam: float(np.sum((lam @ verts - q) ** 2)), start,
                    constraints=[{"type": "eq", "fun": lambda lam: lam.sum() - 1.0}],
                    bounds=[(0.0, 1.0)] * k, method="SLSQP",
                    options={"ftol": 1e-14, "maxiter": 500}).fun
                for start in [np.full(k, 1.0 / k), *np.eye(k)])
            assert distance_to_simplex(q, verts) == pytest.approx(float(np.sqrt(best)), abs=1e-7)

    def test_far_from_the_origin(self):
        # differences to a face vertex keep the offset out of the rounding
        got = distance_to_simplex(np.full(3, 1e8), np.eye(3) + 1e8)
        assert abs(got - 1.0 / np.sqrt(3.0)) <= 1e-15

    @pytest.mark.parametrize("e", [-600, 600])
    def test_power_of_two_scaling_is_exact(self, e):
        rng = rng_for(10)
        for _ in range(20):
            verts = rng.normal(size=(int(rng.integers(1, 6)), 3))
            q = rng.normal(size=3)
            assert distance_to_simplex(np.ldexp(q, e), np.ldexp(verts, e)) == np.ldexp(
                distance_to_simplex(q, verts), e)

    def test_huge_coordinates(self):
        got = distance_to_simplex(np.zeros(3), 1e200 * np.eye(3))
        assert got == pytest.approx(1e200 / np.sqrt(3.0), rel=1e-15)

    @pytest.mark.parametrize("q, verts", [
        ([np.nan, 0.0], np.eye(2)),
        ([np.inf, 0.0], np.eye(2)),
        ([0.0, 0.0], [[np.nan, 0.0], [1.0, 1.0]]),
        ([0.0, 0.0], [[-np.inf, 0.0], [1.0, 1.0]]),
        ([0.0, 0.0], np.zeros((0, 2))),
    ])
    def test_invalid_input_raises_typed_error(self, q, verts):
        with pytest.raises(graphs.GraphParameterError):
            distance_to_simplex(q, verts)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryParameterError):
            distance_to_simplex(np.zeros(2), np.eye(3))

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

    @staticmethod
    def demo_clouds():
        """The minority and majority clouds of ``simbal distance-demo``."""
        rng = rng_for(0)
        mino = rng.normal(0.0, 1.0, size=(12, 2))
        return mino, rng.normal(0.0, 2.0, size=(30, 2))

    def test_same_faces_give_the_same_bits(self):
        # in d = 2, p = 2, 3 and MAXIMAL have the same faces of up to d + 1
        # vertices, and the nearest point lies on one of them (Caratheodory)
        mino, maj = self.demo_clouds()
        d2, d3, dmax = (mean_model_distance(maj, mino, k=4, p=p) for p in (2, 3, MAXIMAL))
        assert d2 == d3 == dmax

    def test_block_size_does_not_change_the_bits(self, monkeypatch):
        mino, maj = self.demo_clouds()
        full = mean_model_distance(maj, mino, k=4)
        monkeypatch.setattr(graphs, "_BLOCK_ELEMS", 7)
        assert mean_model_distance(maj, mino, k=4) == full

    @pytest.mark.parametrize("e", [-400, 400])
    def test_power_of_two_scaling_is_exact(self, e):
        rng = rng_for(11)
        mino = rng.normal(size=(10, 3))
        maj = 2.0 * rng.normal(size=(8, 3))
        assert mean_model_distance(np.ldexp(maj, e), np.ldexp(mino, e), k=4) == np.ldexp(
            mean_model_distance(maj, mino, k=4), e)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_projection_distance_bounded_by_vertex_distances(seed):
    rng = rng_for(seed)
    verts = rng.normal(size=(int(rng.integers(1, 6)), 3))
    q = rng.normal(size=3)
    dist = distance_to_simplex(q, verts)
    assert 0.0 <= dist <= float(np.min(np.linalg.norm(verts - q, axis=1))) + 1e-8
