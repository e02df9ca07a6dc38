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


def exact(x):
    """The exact rational value of a float."""
    return sympy.Rational(float(x))


def poly_expr(terms):
    """A polynomial component's terms as a sympy expression."""
    return sum(
        (exact(c) * Y[0] ** e0 * Y[1] ** e1 * Y[2] ** e2 for c, (e0, e1, e2) in terms),
        sympy.Integer(0),
    )


def fourier_expr(component):
    """``sum_m a_m sin(k_m . y + phi_m)`` from the component's own
    amplitudes, wavevectors and phases."""
    return sum(
        exact(a) * sympy.sin(sum(exact(k) * y for k, y in zip(ks, Y)) + exact(phi))
        for a, ks, phi in zip(component.amplitudes, component.wavevectors, component.phases)
    )


def bracket_exprs(v, u):
    """Independent oracle: ``[V, U]^nu = v^mu d_mu u^nu - u^mu d_mu v^nu``
    for fields given as three sympy expressions each."""
    return [
        sum(v[mu] * sympy.diff(u[nu], Y[mu]) - u[mu] * sympy.diff(v[nu], Y[mu]) for mu in range(3))
        for nu in range(3)
    ]


def evaluate(exprs, point):
    """The expressions at ``point``, to 30 digits, rounded to floats."""
    subs = {y: exact(x) for y, x in zip(Y, point)}
    return np.array([float(e.evalf(30, subs=subs)) for e in exprs])


def sympy_bracket(v_terms, u_terms, point):
    """The oracle bracket of two polynomial drifts at ``point``."""
    v = [poly_expr(t) for t in v_terms]
    u = [poly_expr(t) for t in u_terms]
    return evaluate(bracket_exprs(v, u), point)


def polynomial_terms(expr):
    """A polynomial expression as a component's ``(coefficient,
    exponents)`` terms."""
    return [(float(c), exps) for exps, c in sympy.Poly(expr, *Y).terms()]


def constant_field(drift_values):
    """Field whose drift components are the given constants, noise zero."""
    return VectorField.from_polynomials([[(float(v), (0, 0, 0))] for v in drift_values])


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
            got = lie_bracket(v, u, point)
            expected = sympy_bracket(v_terms, u_terms, point)
            assert np.abs(got - expected).max() < 1e-12

    def test_oracle_equivalence_fourier_noise(self):
        # cubic drifts plus seeded Fourier noise, all four commutator terms
        rng = np.random.default_rng(8)
        for seed in (3, 10, 17):
            v_terms = [random_poly_terms(rng) for _ in range(3)]
            u_terms = [random_poly_terms(rng) for _ in range(3)]
            v = VectorField.from_fourier_noise(v_terms, seed=seed)
            u = VectorField.from_fourier_noise(u_terms, seed=seed + 100, modes=4)
            v_expr = [poly_expr(t) + fourier_expr(b) for t, b in zip(v_terms, v.noise)]
            u_expr = [poly_expr(t) + fourier_expr(w) for t, w in zip(u_terms, u.noise)]
            oracle = bracket_exprs(v_expr, u_expr)
            for _ in range(2):
                point = tuple(rng.uniform(-0.8, 0.8, 3))
                got = lie_bracket(v, u, point)
                assert np.abs(got - evaluate(oracle, point)).max() < 1e-12

    def test_jacobi_identity_residual(self):
        rng = np.random.default_rng(3)
        terms = [[random_poly_terms(rng, degree=2) for _ in range(3)] for _ in range(3)]
        fields = [VectorField.from_polynomials(t) for t in terms]
        exprs = [[poly_expr(c) for c in t] for t in terms]
        point = np.array([0.25, -0.4, 0.3])

        def bracket_field(a, b):
            """``[a, b]`` as a polynomial field, from sympy's expansion."""
            comps = bracket_exprs(exprs[a], exprs[b])
            return VectorField.from_polynomials([polynomial_terms(c) for c in comps])

        residual = np.zeros(3)
        residual += lie_bracket(bracket_field(0, 1), fields[2], point)
        residual += lie_bracket(bracket_field(1, 2), fields[0], point)
        residual += lie_bracket(bracket_field(2, 0), fields[1], point)
        assert np.abs(residual).max() < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_term_reported(self):
        # J_U v and J_V u are both 1e200 * 1e200, which overflows
        v = VectorField.from_polynomials([[(1e200, (0, 1, 0))], [], []])
        u = VectorField.from_polynomials([[], [(1e200, (1, 0, 0))], []])
        with pytest.raises(NumericalError, match="'drift-drift'"):
            lie_bracket(v, u, (1.0, 1.0, 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_value_is_reported_as_its_term(self):
        # v itself, 1e200 * (1e100)^2, overflows, and so does its derivative
        v = VectorField.from_polynomials([[(1e200, (2, 0, 0))], [], []])
        u = VectorField.from_polynomials([[], [(1.0, (1, 0, 0))], []])
        with pytest.raises(NumericalError, match="'drift-drift'"):
            lie_bracket(v, u, (1e100, 1.0, 1.0))


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
