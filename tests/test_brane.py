import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from semicoop import GridSpec
from semicoop import brane
from semicoop import geometry as geo
from semicoop.market import FirmState


def einsum_component(config):
    """Reference 3-form component: the full pulled-back tensor contracted
    back with the alternating symbol."""
    jac = config.embedding_jacobian()
    raw = np.einsum(
        "...ap,...bq,...cr,pqr->...abc", jac, jac, jac, config.coupling_pattern
    )
    component = np.einsum("abc,...abc->...", brane.LEVI_CIVITA, raw) / 6.0
    return component * config.coupling_scalar


def antisymmetric_pattern(rng, density):
    pattern = np.zeros((brane.TRANSVERSE_DIM,) * 3)
    for p, q, r in itertools.combinations(range(brane.TRANSVERSE_DIM), 3):
        if rng.random() < density:
            value = float(rng.integers(-5, 6))
            for perm in itertools.permutations((0, 1, 2)):
                idx = tuple((p, q, r)[i] for i in perm)
                sign = np.linalg.det(np.eye(3)[list(perm)])
                pattern[idx] = sign * value
    return pattern


def curved_metric(grid):
    mesh = grid.meshgrid()
    values = np.zeros(grid.shape + (3, 3))
    values[...] = np.eye(3)
    values[..., 0, 0] = 1.5 + 0.2 * np.sin(mesh[1])
    values[..., 1, 2] = values[..., 2, 1] = 0.1 * mesh[0]
    values[..., 2, 2] = 2.0 + mesh[2] ** 2
    return geo.MetricField(values, grid)


FLAT_MATRIX = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 0.8]])


def identity_embedding_config(**kwargs):
    """Constant world metric with the embedding equal to the world-volume
    coordinates on the first three transverse slots."""
    grid = GridSpec.from_axes((0, 1, 5), (0, 2, 9), (-1, 1, 9))
    mesh = grid.meshgrid()
    emb = np.zeros(grid.shape + (brane.TRANSVERSE_DIM,))
    for k in range(3):
        emb[..., k] = mesh[k]
    return brane.BraneConfiguration(
        embedding=emb,
        world_metric=geo.constant_metric(grid, FLAT_MATRIX),
        background=np.eye(brane.BACKGROUND_DIM),
        **kwargs,
    )


class TestPullbacks:
    @pytest.mark.parametrize("seed, density", [(0, 0.3), (1, 1.0), (2, 0.05), (3, 0.0)])
    def test_closed_form_matches_einsum(self, seed, density):
        rng = np.random.default_rng(seed)
        grid = GridSpec.from_axes((0, 1, 4), (0, 2, 5), (-1, 1, 6))
        config = brane.BraneConfiguration(
            embedding=rng.normal(size=grid.shape + (brane.TRANSVERSE_DIM,)),
            world_metric=curved_metric(grid),
            background=np.eye(brane.BACKGROUND_DIM),
            coupling_scalar=rng.normal(size=grid.shape),
            coupling_pattern=antisymmetric_pattern(rng, density),
        )
        _, component = brane.pullbacks(config)
        expected = einsum_component(config)
        assert component.shape == grid.shape
        scale = max(np.abs(expected).max(), np.finfo(float).tiny)
        assert np.abs(component - expected).max() <= 1e-12 * scale

    def test_default_pattern_is_leading_minor(self):
        rng = np.random.default_rng(4)
        grid = GridSpec.from_axes((0, 1, 4), (0, 2, 5), (-1, 1, 6))
        metric = curved_metric(grid)
        config = brane.BraneConfiguration(
            embedding=rng.normal(size=grid.shape + (brane.TRANSVERSE_DIM,)),
            world_metric=metric,
            background=np.eye(brane.BACKGROUND_DIM),
        )
        _, component = brane.pullbacks(config)
        minor = np.linalg.det(config.embedding_jacobian()[..., :3])
        np.testing.assert_allclose(component, -minor / metric.determinant, rtol=1e-12)
        np.testing.assert_allclose(component, einsum_component(config), rtol=1e-12)

    def test_identity_embedding_flat_grid(self):
        config = identity_embedding_config()
        npull, component = brane.pullbacks(config)
        np.testing.assert_allclose(
            component, -1.0 / np.linalg.det(FLAT_MATRIX), rtol=1e-14
        )
        np.testing.assert_allclose(npull, np.broadcast_to(np.eye(3), npull.shape), atol=1e-14)

    def test_field_background_matches_plain_einsum(self):
        rng = np.random.default_rng(5)
        grid = GridSpec.from_axes((0, 1, 3), (0, 1, 4), (0, 1, 5))
        block = rng.normal(size=grid.shape + (brane.BACKGROUND_DIM,) * 2)
        background = block + np.swapaxes(block, -1, -2)
        config = brane.BraneConfiguration(
            embedding=rng.normal(size=grid.shape + (brane.TRANSVERSE_DIM,)),
            world_metric=curved_metric(grid),
            background=background,
        )
        npull, _ = brane.pullbacks(config)
        jac = config.embedding_jacobian()
        expected = np.einsum(
            "...ap,...bq,...pq->...ab", jac, jac, background[..., 3:, 3:]
        )
        np.testing.assert_allclose(npull, expected, rtol=1e-12, atol=1e-12)


def brane_firm():
    return FirmState(
        share=[0.3, 1.0, 0.5],
        strategy=0.2,
        alpha_own=0.5,
        alpha_other=0.5,
        coop_own=0.5,
        coop_other=0.5,
    )


def profit(s, share, u_own, u_other):
    return 1.0 + s**2 + 0.1 * u_own


class TestEvaluateAction:
    def make_config(self, grid):
        mesh = grid.meshgrid()
        t = mesh[0]
        emb = np.zeros(grid.shape + (brane.TRANSVERSE_DIM,))
        for p in range(brane.TRANSVERSE_DIM):
            emb[..., p] = (0.3 + 0.1 * p) * t + np.sin((p + 1) * mesh[1]) * np.cos(
                mesh[2] + p
            )
        ghost_e = np.zeros(grid.shape + (3, 3))
        ghost_e[...] = np.eye(3)
        ghost_c = np.stack([2.0 * t + mesh[1], t - mesh[2] ** 2, mesh[1] * mesh[2]], axis=-1)
        return brane.BraneConfiguration(
            embedding=emb,
            world_metric=geo.sphere_metric(grid),
            background=np.eye(brane.BACKGROUND_DIM),
            ghost_e=ghost_e,
            ghost_c=ghost_c,
            multiplier=0.7,
            mean_share=0.4,
            ricci_scalar=2.0,
        )

    def action(self, t_lo, t_hi, count):
        grid = GridSpec.from_axes((t_lo, t_hi, count), (0.5, 2.5, 7), (0.0, 1.0, 6))
        firm = brane_firm()
        residuals = np.sin(grid.meshgrid()[1]) * grid.meshgrid()[2]
        return brane.evaluate_action(
            self.make_config(grid), firm, profit, residuals, ghost_epsilon=0.25
        )

    def test_identity_embedding_bracket(self):
        # N = 1 and Hpull_{012} = -1/det h, so the bracket is
        # 3 + tr(h^-1) w^W + det(h)^(-3/2) w^(1-W)
        config = identity_embedding_config(freedom_exponent=0.3)
        firm = brane_firm()
        weight = profit(config.grid.meshgrid()[0], firm.share, firm.strategy, 0.0)
        expected = (
            3.0
            + np.trace(np.linalg.inv(FLAT_MATRIX)) * weight**0.3
            + np.linalg.det(FLAT_MATRIX) ** -1.5 * weight**0.7
        )
        terms = brane.scalar_action_terms(config, firm, profit)
        np.testing.assert_allclose(terms, expected, rtol=1e-13)

    def test_additive_across_time_split(self):
        whole = self.action(0.0, 1.0, 9)
        split = self.action(0.0, 0.5, 5) + self.action(0.5, 1.0, 5)
        assert abs(whole - split) <= 1e-12 * abs(whole)

    def test_precomputed_terms_give_same_value(self):
        grid = GridSpec.from_axes((0.0, 1.0, 5), (0.5, 2.5, 7), (0.0, 1.0, 6))
        config = self.make_config(grid)
        firm = brane_firm()
        terms = brane.scalar_action_terms(config, firm, profit)
        assert brane.evaluate_action(config, firm, profit, terms=terms) == (
            brane.evaluate_action(config, firm, profit)
        )


def sphere_fp_matrix(counts):
    grid = GridSpec.from_axes((0, 1, counts[0]), (0.5, 2.5, counts[1]), (0, 1, counts[2]))
    metric = geo.sphere_metric(grid, radius=1.05)
    config = brane.BraneConfiguration(
        embedding=np.zeros(grid.shape + (brane.TRANSVERSE_DIM,)),
        world_metric=metric,
        background=np.eye(brane.BACKGROUND_DIM),
    )
    return brane.fp_operator_matrix(config, geo.christoffel(metric))


class TestFPDeterminant:
    @pytest.mark.parametrize("counts", [(4, 4, 4), (4, 6, 8), (6, 4, 6)])
    def test_sparse_matches_dense_nonsingular(self, counts):
        matrix = sphere_fp_matrix(counts)
        sign, logdet = np.linalg.slogdet(matrix.toarray())
        assert sign != 0.0
        fp = brane.fp_log_determinant(matrix)
        assert not fp.singular
        assert fp.sign == sign
        assert fp.log_abs_det == pytest.approx(logdet, rel=1e-12, abs=1e-12)

    # odd interior counts leave the central difference without full rank;
    # (4, 5, 6) and (3, 5, 7) are structurally singular matrices on which
    # SuperLU aborts instead of reporting a zero pivot
    @pytest.mark.parametrize("counts", [(3, 3, 3), (4, 5, 6), (3, 5, 7), (5, 6, 8)])
    def test_singular_operator_flagged(self, counts):
        matrix = sphere_fp_matrix(counts)
        assert np.linalg.slogdet(matrix.toarray())[0] == 0.0
        fp = brane.fp_log_determinant(matrix)
        assert fp.singular
        assert fp.sign == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sparse_sign_and_magnitude(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        matrix = sp.random(n, n, density=0.05, random_state=rng, format="csr")
        matrix = matrix + sp.diags(rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n))
        matrix = matrix[rng.permutation(n)]
        sign, logdet = np.linalg.slogdet(matrix.toarray())
        fp = brane.fp_log_determinant(matrix)
        assert fp.sign == sign
        assert fp.log_abs_det == pytest.approx(logdet, rel=1e-12, abs=1e-12)

    def test_numerically_singular_matrix(self):
        # full structural rank, but row 1 is twice row 2
        dense = np.array(
            [[3.0, 1.0, 0.0, 0.0], [1.0, 4.0, 2.0, 0.0], [0.5, 2.0, 1.0, 0.0], [0.0, 0.0, 1.0, 5.0]]
        )
        assert np.linalg.slogdet(dense)[0] == 0.0
        fp = brane.fp_log_determinant(sp.csr_matrix(dense))
        assert fp.singular

    def test_large_operator_factored(self):
        matrix = sphere_fp_matrix((4, 60, 60))
        assert matrix.shape[0] > 20000
        fp = brane.fp_log_determinant(matrix)
        assert not fp.singular
