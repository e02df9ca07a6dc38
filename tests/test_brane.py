import ast
import functools
import itertools
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from semicoop import GridSpec
from semicoop import brane
from semicoop import geometry as geo
from semicoop.errors import NumericalError, ValidationError


TRANSVERSE_DIM = 8


def embedding_jacobian(embedding, grid):
    """``J[..., a, p] = d embedding_p / d sigma_a`` by the module
    difference stencils."""
    cols = [geo.first_derivative(embedding, grid.spacing(a), axis=a) for a in range(3)]
    return np.stack(cols, axis=-2)


def pullbacks(embedding, metric):
    """The general pull-back, the oracle of the static-gauge closed forms:
    ``npull = J J^T`` of the identity background and the one 3-form
    component ``det J[..., :3] * (-1/det h)``."""
    jac = embedding_jacobian(embedding, metric.grid)
    npull = jac @ np.swapaxes(jac, -1, -2)
    component = np.linalg.det(jac[..., :3]) * (-1.0 / metric.determinant)
    return npull, component


def ghost_covariant_derivative(ghost_c, metric, chris):
    """``out[..., a, b] = h^{ac} (d_c ghost^b + gamma^b_{cd} ghost^d)``."""
    grid = metric.grid
    dc = np.stack(
        [geo.first_derivative(ghost_c, grid.spacing(t), axis=t) for t in range(3)], axis=-2
    )
    cov = dc + np.einsum("...btd,...d->...tb", chris, ghost_c)
    return np.einsum("...ac,...cb->...ab", metric.inverse, cov)


def static_embedding(grid):
    """The world-volume coordinates on the first three transverse slots."""
    emb = np.zeros(grid.shape + (TRANSVERSE_DIM,))
    emb[..., :3] = np.stack(grid.meshgrid(), axis=-1)
    return emb


def oracle_bracket(metric, weight, exponent):
    """The bracket through the general pull-back of the static embedding,
    with the weight's powers taken node by node."""
    npull, component = pullbacks(static_embedding(metric.grid), metric)
    weight = np.full(metric.grid.shape, weight)
    pw_w, pw_1mw = weight**exponent, weight ** (1.0 - exponent)
    world_term = np.einsum("...ab,...ab->...", metric.inverse, npull)
    trans_term = component / np.sqrt(metric.determinant)
    return 3.0 + world_term * pw_w - trans_term * pw_1mw


def oracle_ghost_action(metric, chris, step):
    """The ghost action of the general pair ``e = I``, ``c = sigma``."""
    grid = metric.grid
    ghost_e = np.broadcast_to(np.eye(3), grid.shape + (3, 3))
    raised = ghost_covariant_derivative(static_embedding(grid)[..., :3], metric, chris)
    density = np.einsum("...ab,...ab->...", ghost_e, raised)
    sqrt_h = np.sqrt(metric.determinant)
    integral = float(np.sum(grid.trapezoid_weights() * sqrt_h * density))
    return integral / (2.0 * np.pi * step)


def einsum_component(embedding, metric):
    """Reference 3-form component: the full pulled-back tensor of the
    coupling ``-eps_{pqr} / det h`` on the first three transverse slots,
    contracted back with the alternating symbol."""
    levi_civita = np.zeros((3, 3, 3))
    for perm in itertools.permutations(range(3)):
        levi_civita[perm] = np.linalg.det(np.eye(3)[list(perm)])
    pattern = np.zeros((TRANSVERSE_DIM,) * 3)
    pattern[:3, :3, :3] = levi_civita
    jac = embedding_jacobian(embedding, metric.grid)
    raw = np.einsum("...ap,...bq,...cr,pqr->...abc", jac, jac, jac, pattern)
    component = np.einsum("abc,...abc->...", levi_civita, raw) / 6.0
    return component * (-1.0 / metric.determinant)


def curved_metric(grid):
    mesh = grid.meshgrid()
    values = np.zeros(grid.shape + (3, 3))
    values[...] = np.eye(3)
    values[..., 0, 0] = 1.5 + 0.2 * np.sin(mesh[1])
    values[..., 1, 2] = values[..., 2, 1] = 0.1 * mesh[0]
    values[..., 2, 2] = 2.0 + mesh[2] ** 2
    return geo.MetricField(values, grid)


FLAT_MATRIX = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 0.8]])


def constant_world_metric():
    """A constant world metric."""
    grid = GridSpec.from_axes((0, 1, 5), (0, 2, 9), (-1, 1, 9))
    return geo.constant_metric(grid, FLAT_MATRIX)


def bracket_without_potential(metric, weight, exponent):
    """The package bracket at ``R = 0``: the terms before the potential."""
    return brane.scalar_action_terms(metric, 0.0, weight, exponent, 2.0, 0.0)


class TestPullbacks:
    """The general pull-back oracle: its closed form against the full
    contraction on random embeddings, and its static-gauge values."""

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_matches_einsum(self, seed):
        rng = np.random.default_rng(seed)
        grid = GridSpec.from_axes((0, 1, 4), (0, 2, 5), (-1, 1, 6))
        metric = curved_metric(grid)
        embedding = rng.normal(size=grid.shape + (TRANSVERSE_DIM,))
        npull, component = pullbacks(embedding, metric)
        jac = embedding_jacobian(embedding, grid)
        expected = np.einsum("...ap,...bq,pq->...ab", jac, jac, np.eye(TRANSVERSE_DIM))
        np.testing.assert_allclose(npull, expected, rtol=1e-13, atol=1e-13)
        expected = einsum_component(embedding, metric)
        assert component.shape == grid.shape
        assert np.abs(component - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_component_is_the_leading_minor(self):
        rng = np.random.default_rng(4)
        grid = GridSpec.from_axes((0, 1, 4), (0, 2, 5), (-1, 1, 6))
        metric = curved_metric(grid)
        embedding = rng.normal(size=grid.shape + (TRANSVERSE_DIM,))
        _, component = pullbacks(embedding, metric)
        minor = np.linalg.det(embedding_jacobian(embedding, grid)[..., :3])
        np.testing.assert_allclose(component, -minor / metric.determinant, rtol=1e-12)
        np.testing.assert_allclose(component, einsum_component(embedding, metric), rtol=1e-12)

    def test_identity_embedding_flat_grid(self):
        metric = constant_world_metric()
        npull, component = pullbacks(static_embedding(metric.grid), metric)
        np.testing.assert_allclose(
            component, -1.0 / np.linalg.det(FLAT_MATRIX), rtol=1e-14
        )
        np.testing.assert_allclose(npull, np.broadcast_to(np.eye(3), npull.shape), atol=1e-14)


# the firm's profit times its stubbornness, one number per world volume
WEIGHT = 1.37


# the potential Q R xbar of the action tests: Q = 2, R = 2, xbar = 0.4
MEASURE, RICCI, MEAN_SHARE = 2.0, 2.0, 0.4


class TestEvaluateAction:
    def bracket(self, metric):
        return brane.scalar_action_terms(metric, RICCI, WEIGHT, 0.5, MEASURE, MEAN_SHARE)

    def action(self, t_lo, t_hi, count):
        grid = GridSpec.from_axes((t_lo, t_hi, count), (0.5, 2.5, 7), (0.0, 1.0, 6))
        metric = geo.sphere_metric(grid)
        return brane.evaluate_action(metric, self.bracket(metric))

    def test_identity_embedding_bracket(self):
        # N = 1 and Hpull_{012} = -1/det h, so the bracket is
        # 3 + tr(h^-1) w^W + det(h)^(-3/2) w^(1-W) - Q R xbar
        metric = constant_world_metric()
        expected = (
            3.0
            + np.trace(np.linalg.inv(FLAT_MATRIX)) * WEIGHT**0.3
            + np.linalg.det(FLAT_MATRIX) ** -1.5 * WEIGHT**0.7
        )
        terms = bracket_without_potential(metric, WEIGHT, 0.3)
        np.testing.assert_allclose(terms, expected, rtol=1e-13)
        bracket = brane.scalar_action_terms(metric, RICCI, WEIGHT, 0.3, MEASURE, MEAN_SHARE)
        np.testing.assert_allclose(bracket, expected - MEASURE * RICCI * MEAN_SHARE, rtol=1e-13)

    def test_additive_across_time_split(self):
        whole = self.action(0.0, 1.0, 9)
        split = self.action(0.0, 0.5, 5) + self.action(0.5, 1.0, 5)
        assert abs(whole - split) <= 1e-12 * abs(whole)

    def test_precomputed_terms_give_same_value(self):
        # the action of the precomputed bracket is the trapezoid action of
        # the oracle bracket, to the bit on a grid of dyadic spacings
        grid = GridSpec.from_axes((0.0, 1.0, 5), (0.5, 2.5, 9), (0.0, 1.0, 5))
        metric = geo.sphere_metric(grid)
        potential = MEASURE * np.full(grid.shape, RICCI) * MEAN_SHARE
        bracket = oracle_bracket(metric, WEIGHT, 0.5) - potential
        density = 0.5 * np.sqrt(metric.determinant) * bracket
        assert brane.evaluate_action(metric, self.bracket(metric)) == float(
            np.sum(grid.trapezoid_weights() * density)
        )

    @pytest.mark.parametrize("ricci_axes", [(), (0,), (1,), (0, 2), (0, 1, 2)])
    def test_potential_is_subtracted_node_by_node(self, ricci_axes):
        # the bracket is formed on the joint support of the metric ({1} for
        # the sphere) and R; each node holds (terms - (Q R) xbar) bitwise
        grid = stage_grid((4, 7, 6))
        metric = geo.sphere_metric(grid)
        shape = [n if k in ricci_axes else 1 for k, n in enumerate(grid.shape)]
        ricci = np.broadcast_to(np.random.default_rng(7).normal(size=shape), grid.shape)
        bracket = brane.scalar_action_terms(metric, ricci, WEIGHT, 0.5, MEASURE, MEAN_SHARE)
        terms = bracket_without_potential(metric, WEIGHT, 0.5)
        assert bracket.shape == grid.shape
        assert np.array_equal(bracket, terms - MEASURE * ricci * MEAN_SHARE)

    def test_checks_of_the_world_volume_and_exponent(self):
        metric = geo.sphere_metric(stage_grid((3, 5, 5)))
        for exponent in (0.0, 1.0, -0.5, np.nan):
            with pytest.raises(ValidationError, match="strictly inside"):
                bracket_without_potential(metric, WEIGHT, exponent)
        plane = geo.sphere_metric(GridSpec.from_axes((0.5, 2.5, 5), (0.0, 1.0, 5)))
        with pytest.raises(ValidationError, match="must have 3 axes"):
            bracket_without_potential(plane, WEIGHT, 0.5)


def stage_grid(counts):
    """The benchmark's world-volume axes at the given node counts."""
    return GridSpec.from_axes((0, 1, counts[0]), (0.5, 2.5, counts[1]), (0, 1, counts[2]))


# the benchmark's world-volume grids: world_grid, path_ensemble and
# strategy_plane have dyadic spacings, stage_commands' 5x25x25 has 1/12
DYADIC_COUNTS = [(17, 65, 65), (5, 17, 17), (3, 65, 65)]


class TestStaticGauge:
    @pytest.mark.parametrize("counts", DYADIC_COUNTS)
    def test_bracket_and_ghost_equal_the_oracle_bitwise(self, counts):
        # on dyadic spacings the difference stencils give J = I exactly
        metric = geo.sphere_metric(stage_grid(counts))
        terms = bracket_without_potential(metric, WEIGHT, 0.5)
        assert np.array_equal(terms, oracle_bracket(metric, WEIGHT, 0.5))
        chris = geo.christoffel(metric)
        assert brane.ghost_action(metric, 0.01) == oracle_ghost_action(metric, chris, 0.01)

    def test_weight_powers_equal_the_per_node_powers_bitwise(self):
        # the 0-d weight takes numpy's array power, as a per-node weight did
        metric = geo.sphere_metric(stage_grid((3, 5, 5)))
        rng = np.random.default_rng(5)
        for weight, exponent in zip(rng.lognormal(0.0, 3.0, 200), rng.uniform(0.01, 0.99, 200)):
            terms = bracket_without_potential(metric, weight, exponent)
            assert np.array_equal(terms, oracle_bracket(metric, weight, exponent))

    @pytest.mark.parametrize("weight", [0.0, -1.2, np.nan])
    def test_weight_that_is_not_positive_is_a_numerical_error(self, weight):
        metric = geo.sphere_metric(stage_grid((3, 5, 5)))
        with pytest.raises(NumericalError, match="profit weight must be positive"):
            bracket_without_potential(metric, weight, 0.5)

    @pytest.mark.parametrize("radius", [0.9, 1.1])
    def test_bracket_and_ghost_match_the_oracle_on_the_stage_grid(self, radius):
        # spacing 1/12: the stencils leave J off the identity by rounding
        metric = geo.sphere_metric(stage_grid((5, 25, 25)), radius=radius)
        terms = bracket_without_potential(metric, WEIGHT, 0.5)
        expected = oracle_bracket(metric, WEIGHT, 0.5)
        assert np.abs(terms - expected).max() <= 1e-14 * np.abs(expected).max()
        chris = geo.christoffel(metric)
        expected = oracle_ghost_action(metric, chris, 0.01)
        assert abs(brane.ghost_action(metric, 0.01) - expected) <= 1e-14 * abs(expected)


def forward_difference(n, spacing):
    """First-order forward difference on the ``n - 2`` interior nodes of
    one axis, with zero boundary values."""
    m = n - 2
    return sp.diags([np.full(m, -1.0 / spacing), np.full(m - 1, 1.0 / spacing)], [0, 1])


def fp_operator_matrix(metric, chris):
    """The assembled gauge-fixing operator, the oracle of
    ``brane.fp_determinant``:

        (F c)^b(n) = sqrt(h) h^{bc} (d_c c^b + gamma^b_{cd} c^d)

    on interior nodes with zero boundary values and forward differences;
    degrees of freedom run node-major, component within node."""
    grid = metric.grid
    inner = (slice(1, -1),) * 3
    hinv = metric.inverse[inner].reshape(-1, 3, 3)
    sqrt_h = np.sqrt(metric.determinant[inner]).reshape(-1)
    gamma = chris[inner].reshape(-1, 3, 3, 3)
    local = sqrt_h[:, None, None] * np.einsum("nbc,nbcd->nbd", hinv, gamma)
    matrix = sp.block_diag(list(local))
    eyes = [sp.identity(n - 2) for n in grid.shape]
    for c in range(3):
        factors = eyes[:c] + [forward_difference(grid.shape[c], grid.spacing(c))] + eyes[c + 1 :]
        diff = functools.reduce(sp.kron, factors + [sp.identity(3)])
        matrix = matrix + sp.diags((sqrt_h[:, None] * hinv[:, :, c]).reshape(-1)) @ diff
    return sp.csc_matrix(matrix)


def permutation_sign(perm):
    """``(-1)**(n - cycles)`` of a permutation given as an index array."""
    seen = np.zeros(perm.size, dtype=bool)
    cycles = 0
    for start in range(perm.size):
        if not seen[start]:
            cycles += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
    return -1.0 if (perm.size - cycles) % 2 else 1.0


def oracle_slogdet(matrix):
    """Dense ``slogdet`` of a small operator, sparse LU of a large one."""
    if matrix.shape[0] <= 1000:
        return np.linalg.slogdet(matrix.toarray())
    lu = spla.splu(matrix)
    diag = lu.U.diagonal()
    sign = permutation_sign(lu.perm_r) * permutation_sign(lu.perm_c) * np.prod(np.sign(diag))
    return sign, np.sum(np.log(np.abs(diag)))


def random_spd_metric(grid, seed):
    rng = np.random.default_rng(seed)
    a = 0.4 * rng.normal(size=grid.shape + (3, 3))
    return geo.MetricField(a @ np.swapaxes(a, -1, -2) + np.eye(3), grid)


BENCHMARK_COUNTS = [(4, 8, 8), (5, 9, 9), (3, 9, 9), (5, 25, 25)]


class TestFPDeterminant:
    @pytest.mark.parametrize("counts", BENCHMARK_COUNTS)
    def test_flat_metric_closed_form(self, counts):
        # every block is -diag(1/spacing_b): log|det F| = N sum_b log(1/spacing_b)
        metric = geo.flat_metric(stage_grid(counts))
        fp = brane.fp_determinant(metric)
        n_nodes = int(np.prod([n - 2 for n in counts]))
        expected = n_nodes * sum(np.log(1.0 / h) for h in metric.grid.spacings)
        assert fp.log_abs_det == pytest.approx(expected, rel=1e-13)
        assert fp.sign == (-1.0) ** n_nodes
        assert fp.singular_node is None

    @pytest.mark.parametrize("counts", BENCHMARK_COUNTS)
    @pytest.mark.parametrize("preset", ["flat", "sphere"])
    def test_regular_on_benchmark_grids(self, counts, preset):
        # central differences left these operators singular on every axis
        # with an odd interior count (5x9x9, 3x9x9 and 5x25x25 here)
        grid = stage_grid(counts)
        metric = geo.flat_metric(grid) if preset == "flat" else geo.sphere_metric(grid, radius=0.97)
        fp = brane.fp_determinant(metric)
        assert not fp.singular
        assert fp.singular_node is None
        assert np.isfinite(fp.log_abs_det) and fp.sign in (-1.0, 1.0)

    @pytest.mark.parametrize("seed, counts", [(0, (4, 5, 6)), (1, (5, 4, 5)), (2, (4, 4, 4))])
    def test_block_product_matches_assembled_operator(self, seed, counts):
        metric = random_spd_metric(stage_grid(counts), seed)
        chris = geo.christoffel(metric)
        assert np.abs(chris[1:-1, 1:-1, 1:-1]).max() > 0.1
        matrix = fp_operator_matrix(metric, chris)
        # block upper triangular: no node couples to an earlier node
        coo = matrix.tocoo()
        assert np.all(coo.col // 3 >= coo.row // 3)
        sign, logdet = oracle_slogdet(matrix)
        fp = brane.fp_determinant(metric)
        assert sign != 0.0 and fp.sign == sign
        assert fp.log_abs_det == pytest.approx(logdet, rel=1e-12)

    # the ends of the benchmark's radius range and its draws for seeds 1 and 2
    @pytest.mark.parametrize(
        "radius", [0.9, 1.1] + [0.9 + 0.2 * np.random.default_rng(s).random() for s in (1, 2)]
    )
    def test_matches_assembled_operator_on_stage_grid(self, radius):
        metric = geo.sphere_metric(stage_grid((5, 25, 25)), radius=radius)
        chris = geo.christoffel(metric)
        matrix = fp_operator_matrix(metric, chris)
        assert matrix.shape == (4761, 4761)
        sign, logdet = oracle_slogdet(matrix)
        fp = brane.fp_determinant(metric)
        assert fp.sign == sign
        assert fp.log_abs_det == pytest.approx(logdet, rel=1e-12)

    def test_singular_block_names_its_node(self):
        # h = diag(a(x0) + b(x1, x2), 1, 1) with b = 0 and symmetric about
        # (x1, x2) = (0.75, 0.75): at node (2, 3, 3) gamma^0_00 is exactly
        # 1/spacing_0 and gamma^0_01 = gamma^0_02 = 0, so row 0 of D_n vanishes
        grid = GridSpec.from_axes((0, 1.25, 6), (0, 1.25, 6), (0, 1.25, 6))
        x0, x1, x2 = grid.meshgrid()
        a = np.array([1.0, 0.5, 1.0, 4.5, 5.0, 6.0])[np.rint(x0 / 0.25).astype(int)]
        values = np.zeros(grid.shape + (3, 3))
        values[...] = np.eye(3)
        values[..., 0, 0] = a + (x1 - 0.75) ** 2 + (x2 - 0.75) ** 2
        metric = geo.MetricField(values, grid)
        chris = geo.christoffel(metric)
        fp = brane.fp_determinant(metric)
        assert fp.singular and fp.singular_node == (2, 3, 3)
        assert fp.sign == 0.0 and fp.log_abs_det == -np.inf
        assert oracle_slogdet(fp_operator_matrix(metric, chris))[0] == 0.0

    def test_overflowing_block_is_a_numerical_error(self):
        # spacing 1e-200 makes each flat block -diag(1/spacing), whose
        # determinant overflows double precision
        metric = geo.flat_metric(GridSpec.from_axes(*[(0.0, 1e-200, 4)] * 3))
        with pytest.raises(NumericalError, match=r"not finite at node \(1, 1, 1\)"):
            brane.fp_determinant(metric)


def test_brane_imports_no_scipy():
    # the FP determinant is a product of per-node blocks; a scipy import
    # in brane.py is how a general sparse factorization would come back
    tree = ast.parse(Path(brane.__file__).read_text())
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import)
            else [node.module or ""]
        )
    ]
    assert imported and not [n for n in imported if n.split(".")[0] == "scipy"]
