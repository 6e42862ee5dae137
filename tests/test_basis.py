import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_hermitenorm, roots_hermite

from osp22 import basis as b

ROOT4 = (2.0 * np.pi) ** -0.25


class TestHermite:
    def test_frozen_values(self):
        assert b.hermite_he(2, 0.0) == -1.0
        assert b.hermite_he(3, 2.0) == 2.0  # z^3 - 3z at z=2
        assert b.hermite_he(0, 123.0) == 1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(0, 26))
            z = float(rng.uniform(-5, 5))
            ref = float(eval_hermitenorm(n, z))
            assert abs(b.hermite_he(n, z) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_vectorized(self):
        z = np.linspace(-2, 2, 7)
        assert np.allclose(b.hermite_he(2, z), z * z - 1.0)

    def test_whole_draw_domain_against_scipy(self):
        """basis.hermite's gate over every degree it draws and a 2001-point grid of its x range.

        Each difference is divided by the sign-free recurrence, which bounds the
        rounding the three-term recurrence amplifies; it is 0 only at x = 0 for odd
        n, where both routes give exactly 0.
        """
        x = np.linspace(-5.0, 5.0, 2001)
        for n in range(26):
            diff = np.abs(b.hermite_he(n, x) - eval_hermitenorm(n, x))
            scale = b.hermite_he_scale(n, x)
            assert np.all(scale >= np.abs(b.hermite_he(n, x)))
            assert np.all(diff[scale == 0.0] == 0.0)
            assert np.max(diff / np.where(scale == 0.0, 1.0, scale)) <= 1e-12

    def test_scale_is_the_sign_free_recurrence(self):
        assert b.hermite_he_scale(0, -3.0) == 1.0
        assert b.hermite_he_scale(2, -2.0) == 5.0  # |z|^2 + 1
        assert b.hermite_he_scale(3, -2.0) == 14.0  # |z|^3 + 3|z|
        with pytest.raises(ValueError):
            b.hermite_he_scale(-1, 0.5)


class TestEvalChi:
    def test_ground_value(self):
        assert abs(b.eval_chi(0, 0.0, 0.0) - ROOT4) < 1e-15

    def test_negative_mode_rejected(self):
        with pytest.raises(ValueError):
            b.eval_chi(-1, 0.0, 0.0)

    def test_odd_mode_vanishes_at_origin(self):
        for t in (0.0, 0.5, -1.3):
            assert abs(b.eval_chi(1, 0.0, t)) == 0.0

    def test_ground_real_positive_at_t0(self):
        x = np.linspace(-4, 4, 17)
        vals = b.eval_chi(0, x, 0.0)
        assert np.all(np.abs(vals.imag) < 1e-16)
        assert np.all(vals.real > 0)

    def test_matches_batch_evaluator(self):
        """A row of the batch is bit for bit the one-mode evaluation, whatever rows come with it:
        600 and more in order, an unordered list with a repeat, and an array t."""
        x = np.linspace(-3, 3, 11)
        t_array = np.linspace(-2.0, 5.0, 11)
        for rows, t in (
            (range(12), 0.0),
            (range(606), 0.0),
            (range(606), 0.8),
            ([9, 2, 605, 0, 2, 17, 1], 0.8),
            ([9, 2, 605, 0, 2, 17, 1], t_array),
            (range(40), t_array),
        ):
            batch = b.chi_matrix(rows, x, t)
            for got, m in zip(batch, rows, strict=True):
                assert np.array_equal(got, b.eval_chi(m, x, t))

    @staticmethod
    def _packets_row_by_row(rows, x, t):
        """The kernel's values formed one row at a time, each phase from Python numbers."""
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        one_it = 1.0 + 1j * t
        z = x / np.sqrt(1.0 + t * t)
        H = [np.ones_like(z), z]
        for k in range(1, max(rows)):
            H.append((z * H[k] - np.sqrt(k) * H[k - 1]) / np.sqrt(k + 1))
        env = np.exp(-x * x / (4.0 * one_it)) / ((2.0 * np.pi) ** 0.25 * np.sqrt(one_it))
        return [((1, -1j, -1, 1j)[m % 4] * np.exp(-1j * m * np.arctan(t))) * env * H[m] for m in rows]

    @pytest.mark.parametrize("x, t", [
        (np.linspace(-6, 6, 41), 0.7),
        (np.linspace(-3, 3, 5)[:, None], np.linspace(-2, 4, 3)),
        (1.3, -0.4),  # a single point takes numpy's scalar arithmetic, whose rounding differs
        (-4.2, np.float64(2.5)),
    ])
    def test_batch_matches_row_by_row(self, x, t):
        rows = [7, 0, 3, 82, 1, 7, 40]
        batch = b.chi_matrix(rows, x, t) if np.ndim(x) else b._packets(rows, x, t)
        for got, want in zip(batch, self._packets_row_by_row(rows, x, t), strict=True):
            assert np.array_equal(got, want)

    def test_t_array_matches_per_t_calls(self):
        x, t = np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-2, 2, 5))
        for m in (0, 1, 2, 5, 13):
            vals = b.eval_chi(m, x, t)
            derivs = b.eval_chi_derivatives(m, x, t)
            for j in range(len(t)):
                assert np.array_equal(vals[j], b.eval_chi(m, x[j], t[j, 0]))
                for got, want in zip(derivs, b.eval_chi_derivatives(m, x[j], t[j, 0])):
                    assert np.array_equal(got[j], want)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("grid", ["quadrature", "nine_points"])
    def test_array_of_modes_matches_per_mode_calls(self, t, grid):
        """The grids of the basis suite's ladder and sector-weight checks: each mode's entry of
        the one array call, and of the ladder routes on it, is the per-mode call bit for bit."""
        x = b.quad_grid(t, b.QuadratureSpec())[0] if grid == "quadrature" else np.linspace(-4.0, 4.0, 9)
        modes = np.arange(22)
        derivs = b.eval_chi_derivatives(modes, x, t)
        ladders = {s: b.ladder_pointwise(s, modes, x, t) for s in "+-"}
        sym = b.symmetric_ladder_pointwise(modes, x, t)
        for m in modes:
            for got, want in zip(derivs, b.eval_chi_derivatives(int(m), x, t), strict=True):
                assert np.array_equal(got[m], want)
            for s in "+-":
                assert np.array_equal(ladders[s][m], b.ladder_pointwise(s, int(m), x, t))
            assert np.array_equal(sym[m], b.symmetric_ladder_pointwise(int(m), x, t))

    def test_array_of_modes_in_any_order_and_shape(self):
        x = np.linspace(-3.0, 3.0, 7)
        modes = np.array([[5, 0], [1, 5]])
        got = b.eval_chi_derivatives(modes, x, 0.3)
        assert all(value.shape == (2, 2, 7) for value in got)
        for (i, j), m in np.ndenumerate(modes):
            for value, want in zip(got, b.eval_chi_derivatives(int(m), x, 0.3), strict=True):
                assert np.array_equal(value[i, j], want)

    def test_negative_mode_in_an_array_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            b.eval_chi_derivatives(np.array([0, 3, -1]), np.linspace(-1.0, 1.0, 3), 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            b.eval_chi_derivatives(-1, 0.5, 0.0)

    def test_single_point_with_an_int_mode_returns_python_complexes(self):
        values = b.eval_chi_derivatives(3, 0.7, 0.3)
        assert all(type(v) is complex for v in values)
        assert type(b.ladder_pointwise("+", 3, 0.7, 0.3)) is complex

    def test_large_mode_is_finite(self):
        vals = b.eval_chi(321, np.linspace(-5, 5, 9), 0.3)
        assert np.all(np.isfinite(vals.view(float)))


class TestDerivatives:
    def test_even_mode_flat_at_origin(self):
        _, d1, _ = b.eval_chi_derivatives(0, 0.0, 0.0)
        assert abs(d1) == 0.0

    def test_second_derivative_frozen(self):
        _, _, d2 = b.eval_chi_derivatives(0, 0.0, 0.0)
        assert abs(d2 + 0.5 * ROOT4) < 1e-15

    def test_against_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-3
        for _ in range(40):
            m = int(rng.integers(0, 11))
            x = float(rng.uniform(-5, 5))
            t = float(rng.uniform(-2, 2))
            v, a1, a2 = b.eval_chi_derivatives(m, x, t)
            f = lambda xx: b.eval_chi(m, xx, t)
            fd1 = (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
            fd2 = (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)) / (
                12 * h * h
            )
            scale = max(abs(v), 1.0)
            assert abs(a1 - fd1) / max(abs(a1), scale) < 1e-7
            assert abs(a2 - fd2) / max(abs(a2), scale) < 1e-7


class TestQuadrature:
    def test_orthonormality_three_times(self):
        for t in (0.0, 0.5, 2.0):
            G = b.gram_matrix(range(21), t)
            assert np.abs(G - np.eye(21)).max() < 1e-10

    def test_unitary_evolution_of_ground(self):
        val = b.quad_inner(b.chi_evaluator(0, 2.0), b.chi_evaluator(0, 2.0), 2.0)
        assert abs(val - 1.0) < 1e-10

    def test_parity_kills_x_moment(self):
        f = b.chi_evaluator(0, 0.0)
        val = b.quad_inner(f, lambda x: x * f(x), 0.0)
        assert abs(val) < 1e-12

    def test_adaptive_agrees_with_hermite(self):
        """scipy's adaptive quad over [-6.5 c, 6.5 c] is the oracle for one Gauss-Hermite sum."""
        t = 0.5
        width = 6.5 * np.sqrt(2.0 * (1.0 + t * t))
        for mg, want in ((2, 1.0), (3, 0.0)):
            f, g = b.chi_evaluator(2, t), b.chi_evaluator(mg, t)
            (re, re_err), (im, im_err) = (
                integrate.quad(
                    lambda x: take(np.conjugate(f(x)) * g(x)), -width, width, epsabs=1e-12, epsrel=0.0
                )
                for take in (np.real, np.imag)
            )
            assert max(re_err, im_err) < 1e-10
            assert abs(complex(re, im) - want) < 1e-9
            assert abs(b.quad_inner(f, g, t) - complex(re, im)) < 1e-9

    @pytest.mark.parametrize("nodes", [2, 22, 200, 320])
    def test_rule_matches_scipy(self, nodes):
        """The numpy rule against scipy's roots_hermite, nodes absolute and weights relative."""
        want_u, want_w = roots_hermite(nodes)
        u, logw = b._hermite_rule(nodes)
        assert np.abs(u - want_u).max() < 1e-13
        assert np.abs(np.exp(logw) / want_w - 1.0).max() < 1e-12

    def test_node_count_validation(self):
        with pytest.raises(ValueError):
            b.QuadratureSpec(nodes=1)
        with pytest.raises(ValueError):
            b.QuadratureSpec(nodes=1000)


class TestLadder:
    def test_lowering_annihilates_ground(self):
        coeff, target = b.apply_ladder("-", 0)
        assert coeff == 0.0 and target is None
        av = lambda x: b.ladder_pointwise("-", 0, x, 0.7)
        assert abs(b.quad_inner(av, av, 0.7)) < 1e-20

    def test_raise_ground_frozen(self):
        coeff, target = b.apply_ladder("+", 0)
        assert target == 1 and coeff == 0.5

    def test_quadrature_oracle_rederives_coefficients(self):
        for t in (0.0, 1.0):
            for m in range(21):
                for sign in ("+", "-"):
                    coeff, target = b.apply_ladder(sign, m)
                    if target is None:
                        continue
                    av = lambda x: b.ladder_pointwise(sign, m, x, t)
                    got = b.quad_inner(b.chi_evaluator(target, t), av, t)
                    assert abs(got - coeff) < 1e-10

    def test_commutator_is_quarter(self):
        # [a-, a+] chi_m = 1/4 chi_m from the frozen coefficients
        for m in range(10):
            up, _ = b.apply_ladder("+", m)
            down_after_up, _ = b.apply_ladder("-", m + 1)
            down, tgt = b.apply_ladder("-", m)
            up_after_down = b.apply_ladder("+", tgt)[0] if tgt is not None else 0.0
            assert abs(down_after_up * up - down * up_after_down - 0.25) < 1e-14

    def test_coefficient_of_a_mode_array(self):
        modes = np.arange(40)
        for sign in ("+", "-"):
            got = b.ladder_coefficient(sign, modes)
            assert got.tolist() == [b.ladder_coefficient(sign, int(m)) for m in modes]
        with pytest.raises(ValueError):
            b.ladder_coefficient("+", np.array([0, 3, -1]))
        for sign in ("up", "plus", 1, -1):  # the sign is "+" or "-"
            with pytest.raises(ValueError):
                b.ladder_coefficient(sign, modes)

    def test_symmetric_ladder_diagonal(self):
        grid = np.linspace(-4, 4, 9)
        for t in (0.0, 1.0):
            for m in range(21):
                point = np.abs(
                    b.symmetric_ladder_pointwise(m, grid, t)
                    - (0.5 * m + 0.25) * b.eval_chi(m, grid, t)
                ).max()
                assert point < 1e-10


class TestSymmetryOps:
    def test_constant_operator(self):
        got = b.apply_symmetry_op("K0c", 0, 0.0, 0.0)
        assert abs(got - 1j * ROOT4) < 1e-15

    def test_derivative_of_even_mode(self):
        assert abs(b.apply_symmetry_op("Km1", 0, 0.0, 0.0)) == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            b.apply_symmetry_op("K9", 0, 0.0, 0.0)

    def test_dilation_span(self):
        keep = {1, 3, 5}
        probe = [m for m in range(12) if m not in keep]
        f = lambda x: b.apply_symmetry_op("K0", 3, x, 0.5)
        coeffs = b.project_onto_modes(f, probe, 0.5)
        assert np.sqrt(np.sum(np.abs(coeffs) ** 2)) < 1e-8

    def test_all_ops_map_solutions_to_solutions(self):
        for name in b.SYMMETRY_OPERATORS:
            ev = lambda x, t, name=name: b.apply_symmetry_op(name, 4, x, t)
            assert b.schrodinger_residual(ev, 0.9, 0.4) < 1e-6


class TestResidual:
    def test_solutions_pass(self):
        ev = lambda x, t: b.eval_chi(5, x, t)
        assert b.schrodinger_residual(ev, 1.3, 0.7) < 1e-6

    def test_negative_control(self):
        assert b.schrodinger_residual(lambda x, t: np.exp(-x * x), 1.0, 0.0) > 1e-2

    def test_grid_gate(self):
        for m in (0, 3, 11, 20):
            ev = lambda x, t, m=m: b.eval_chi(m, x, t)
            for x in np.linspace(-4, 4, 5):
                for t in np.linspace(-2, 2, 5):
                    assert b.schrodinger_residual(ev, x, t) < 1e-6

    def test_array_call_is_max_of_point_calls(self):
        x, t = np.meshgrid(np.linspace(-4, 4, 5), np.linspace(-2, 2, 5))
        for m in (0, 3, 11, 20):
            ev = lambda xx, tt, m=m: b.eval_chi(m, xx, tt)
            want = max(b.schrodinger_residual(ev, xx, tt) for xx, tt in zip(x.flat, t.flat))
            assert b.schrodinger_residual(ev, x, t) == want

    def test_state_called_once(self):
        shapes = []

        def state(x, t):
            shapes.append(np.shape(x))
            return b.eval_chi(3, x, t)

        x, t = np.meshgrid(np.linspace(-4, 4, 5), np.linspace(-2, 2, 3))
        b.schrodinger_residual(state, x, t)
        assert shapes == [(9, 3, 5)]

    def test_step_underflow(self):
        with pytest.raises(ValueError):
            b.schrodinger_residual(lambda x, t: 1.0, 1.0, 0.0, hx=1e-300)
