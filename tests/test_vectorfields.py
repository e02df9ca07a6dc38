import numpy as np
import pytest
import sympy

from semicoop import NumericalError, ValidationError
from semicoop.vectorfields import (
    FourierComponent,
    PolynomialComponent,
    VectorField,
    lie_bracket,
)

Y = sympy.symbols("y0 y1 y2")


def sympy_bracket(v_terms, u_terms, point):
    """Independent oracle: apply each field as a directional-derivative
    operator to the coordinate functions and subtract, symbolically."""

    def poly(terms):
        return sum(
            c * Y[0] ** e0 * Y[1] ** e1 * Y[2] ** e2 for c, (e0, e1, e2) in terms
        )

    v = [poly(t) for t in v_terms]
    u = [poly(t) for t in u_terms]
    subs = dict(zip(Y, point))
    out = []
    for nu in range(3):
        expr = sum(
            v[mu] * sympy.diff(u[nu], Y[mu]) - u[mu] * sympy.diff(v[nu], Y[mu])
            for mu in range(3)
        )
        out.append(float(expr.subs(subs)))
    return np.array(out)


def constant_field(drift_values):
    """Field whose drift components are the given constants, noise zero."""
    return VectorField(tuple(lambda y, v=float(v): v for v in drift_values))


def random_poly_terms(rng, degree=3, terms=4):
    out = []
    for _ in range(terms):
        exps = tuple(int(e) for e in rng.integers(0, degree + 1, 3))
        while sum(exps) > degree:
            exps = tuple(int(e) for e in rng.integers(0, degree + 1, 3))
        out.append((float(rng.uniform(-1, 1)), exps))
    return out


class TestLieBracket:
    def test_constant_fields_commute(self):
        v = constant_field((1.0, -2.0, 0.5))
        u = constant_field((0.3, 0.4, -0.7))
        assert np.array_equal(lie_bracket(v, u, (0.1, 0.2, 0.3)), np.zeros(3))

    def test_rotation_against_translation_oracle(self):
        v_terms = [[(1.0, (0, 1, 0))], [], []]
        u_terms = [[], [(1.0, (1, 0, 0))], []]
        v = VectorField.from_polynomials(v_terms)
        u = VectorField.from_polynomials(u_terms)
        point = (0.3, 0.7, -0.2)
        expected = sympy_bracket(v_terms, u_terms, point)
        assert np.allclose(lie_bracket(v, u, point), expected, atol=1e-10)

    def test_equal_noise_realizations_cancel(self):
        noise = [[(0.5, (2, 0, 0))], [(1.0, (0, 1, 1))], [(-0.25, (0, 0, 2))]]
        zero = [[], [], []]
        v = VectorField.from_polynomials(zero, noise)
        u = VectorField.from_polynomials(zero, noise)
        out = lie_bracket(v, u, (0.4, -0.3, 0.9))
        assert np.array_equal(out, np.zeros(3))

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(11)
        v = VectorField.from_polynomials([random_poly_terms(rng) for _ in range(3)])
        u = VectorField.from_polynomials([random_poly_terms(rng) for _ in range(3)])
        point = (0.2, 0.5, -0.4)
        forward = lie_bracket(v, u, point)
        backward = lie_bracket(u, v, point)
        assert np.abs(forward + backward).max() == 0.0

    def test_bilinearity_power_of_two_exact(self):
        rng = np.random.default_rng(5)
        terms = [random_poly_terms(rng) for _ in range(3)]
        scaled = [[(2.0 * c, e) for c, e in comp] for comp in terms]
        u_terms = [random_poly_terms(rng) for _ in range(3)]
        v = VectorField.from_polynomials(terms)
        v2 = VectorField.from_polynomials(scaled)
        u = VectorField.from_polynomials(u_terms)
        point = (0.3, -0.2, 0.6)
        assert np.array_equal(
            lie_bracket(v2, u, point), 2.0 * lie_bracket(v, u, point)
        )

    def test_oracle_equivalence_random_cubics(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            v_terms = [random_poly_terms(rng) for _ in range(3)]
            u_terms = [random_poly_terms(rng) for _ in range(3)]
            v = VectorField.from_polynomials(v_terms)
            u = VectorField.from_polynomials(u_terms)
            point = tuple(rng.uniform(-0.8, 0.8, 3))
            got = lie_bracket(v, u, point, spacing=1e-4)
            expected = sympy_bracket(v_terms, u_terms, point)
            assert np.abs(got - expected).max() < 1e-8

    def test_jacobi_identity_residual(self):
        rng = np.random.default_rng(3)
        fields = [
            VectorField.from_polynomials(
                [random_poly_terms(rng, degree=2) for _ in range(3)]
            )
            for _ in range(3)
        ]
        point = np.array([0.25, -0.4, 0.3])
        spacing = 1e-4

        def bracket_field(a, b):
            comps = tuple(
                (lambda y, i=i: lie_bracket(a, b, y, spacing)[i]) for i in range(3)
            )
            return VectorField(comps)

        residual = np.zeros(3)
        v, u, w = fields
        residual += lie_bracket(bracket_field(v, u), w, point, spacing)
        residual += lie_bracket(bracket_field(u, w), v, point, spacing)
        residual += lie_bracket(bracket_field(w, v), u, point, spacing)
        assert np.abs(residual).max() < 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_term_reported(self):
        def inverse(y):
            with np.errstate(divide="ignore"):
                return 1.0 / y[0]

        v = VectorField((inverse, lambda y: 0.0, lambda y: 0.0))
        u = constant_field((1.0, 0.0, 0.0))
        with pytest.raises(NumericalError):
            lie_bracket(v, u, (0.0, 0.0, 0.0))

    def test_spacing_validation(self):
        v = constant_field((1.0, 0.0, 0.0))
        with pytest.raises(ValidationError):
            lie_bracket(v, v, (0, 0, 0), spacing=-1.0)


def test_fourier_noise_reproducible_and_smooth():
    comp = FourierComponent(seed=7)
    again = FourierComponent(seed=7)
    y = np.array([0.3, -0.1, 0.8])
    assert comp(y) == again(y)
    # every component stays finite and bounded
    field = VectorField.from_fourier_noise([[], [], []], seed=7)
    values = np.concatenate([field.noise_at(p) for p in (y, y + 0.1)])
    assert np.isfinite(values).all() and np.abs(values).max() <= 1e6


def test_polynomial_component_validation():
    with pytest.raises(ValidationError):
        PolynomialComponent([(1.0, (0, 1))])
