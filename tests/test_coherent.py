import math
from dataclasses import replace
from itertools import accumulate
from operator import mul

import numpy as np
import pytest

from osp22 import basis as b
from osp22 import coherent as coh
from osp22 import representation
from osp22.config import DISK_RADIUS
from osp22.grassmann import GENERATORS_EXTENDED, GrassmannAlgebra, GrassmannElement, default_algebra
from osp22.representation import GENERATOR_NAMES, SuperOperator, build_generator, operator_exp
from osp22.superspace import SuperVector, coefficient_algebra, random_supervector

ALG = default_algebra()
ALG6 = GrassmannAlgebra(GENERATORS_EXTENDED)
SCALARS = coefficient_algebra(ALG)  # superspace scalars: the algebra without theta, theta_bar
ROOT4 = (2.0 * np.pi) ** -0.25


def _ring(phase):
    """DISK_RADIUS * e^{i phase}, moved inward an ulp at a time until |z| <= DISK_RADIUS holds."""
    z = DISK_RADIUS * np.exp(1j * phase)
    while abs(z) > DISK_RADIUS:
        z *= 1.0 - 2.0**-53
    return complex(z)


# small |z| puts every eigenvalue of the body within |z| * 134 of the others, where a plain
# divided-difference quotient loses digits like eps / |z|
ORACLE_Z = (0.0, 1e-8, 1e-5, 1e-3, 1e-2j, 0.1, 0.5 + 0.3j, _ring(0.7), _ring(2.4), _ring(-1.9))


# the points at which the sector-form state is checked against the generic normalization
SECTOR_Z = (0.0, 0.3 + 0.2j, 0.9j, -0.9, 0.6 - 0.7j)
SECTOR_ALPHA = (0.0, 1.0, 0.7 - 0.4j, 10.0)
SECTOR_POINTS = [(alg, z, a) for alg in (ALG, ALG6) for z in SECTOR_Z for a in SECTOR_ALPHA]


def _generic_series_state(params, n, alg):
    """exp(z K+)(1 + alpha V+) vacuum normalized through the generic super inner product.

    The sector columns follow the recurrence of ``series_state`` bit for bit; the state
    E + alpha O is formed by plan product and multiplied by phase (Phi|Phi)^{-1/2}.
    """
    alg = coefficient_algebra(alg)
    z = params.z
    k = np.arange(1.0, n + 1.0)
    roots = np.sqrt(k * np.stack([k - 0.5, k + 0.5]))
    re, im = (z.real * roots / k).tolist(), (z.imag * roots / k).tolist()
    even = list(accumulate(map(complex, re[0], im[0]), mul, initial=1.0 + 0j))[:-1]
    odd = list(accumulate(map(complex, re[1], im[1]), mul, initial=1.0 / np.sqrt(2.0) + 0j))[:-1]
    vec = SuperVector(alg, even, [0.0] * n) + params.alpha(alg) * SuperVector(alg, [0.0] * n, odd)
    return (coh.closed_form_phase(z) * vec.super_inner(vec).power(-0.5)) * vec


# coefficients with signed zero parts, a negative part, or subnormal size
SIGNED_ALPHA = (complex(-0.0, 0.0), complex(0.0, -0.0), -1.0, -1j, -0.5 - 0.5j, 5e-324, 1e-310j)


def _grassmann_series_state(params, n, alg):
    """``series_state`` with its rows formed as Grassmann elements: c (1 - nu / (2 s_e)) and
    c alpha, nu = -i s_o conj(alpha) alpha, over the chain's columns."""
    alg = coefficient_algebra(alg)
    chain = coh._series_chain(params.z, n, 1e-12)
    a = params.alpha(alg)
    nu = (-1j * chain.s_o) * (a.conj() * a)
    rows = (chain.c * (1.0 - nu / (2.0 * chain.s_e))).coeffs, (chain.c * a).coeffs
    coeffs = np.concatenate([coh._outer(chain.even, rows[0]), coh._outer(chain.odd, rows[1])])
    return SuperVector.from_coeffs(alg, coeffs)


def _exponent(params, n, alg):
    """z K+ - conj(z) K- + alpha V+ - i conj(alpha) W-, summed from the generators."""
    a = params.alpha(alg)
    return (
        params.z * build_generator("K+", n, alg)
        - np.conjugate(params.z) * build_generator("K-", n, alg)
        + a * build_generator("V+", n, alg)
        + (-1j * a.conj()) * build_generator("W-", n, alg)
    )


class TestParams:
    def test_disk_boundary_rejected(self):
        with pytest.raises(ValueError):
            coh.CoherentParams(1.0)
        with pytest.raises(ValueError):
            coh.CoherentParams(0.8 + 0.7j)

    def test_alpha_element(self):
        p = coh.CoherentParams(0.2, 2j)
        assert p.alpha(ALG) == 2j * SCALARS.gen("alpha")


class TestClosedForm:
    def test_reduces_to_ground_state(self):
        cf = coh.closed_form(coh.CoherentParams(0.0))
        x = np.linspace(-4, 4, 17)
        assert np.abs(cf.psi(x, 0.0) - b.eval_chi(0, x, 0.0)).max() < 1e-15

    def test_normalizer_without_alpha(self):
        cf = coh.closed_form(coh.CoherentParams(0.4j, 0.0))
        assert cf.normalizer == SCALARS.one()

    def test_unit_norm_by_quadrature(self):
        for z in (0.3, 0.5j, -0.7):
            cf = coh.closed_form(coh.CoherentParams(z))
            for t in (0.0, 1.0):
                spec = replace(b.QuadratureSpec(), scale=coh.quad_scale(z, t))
                psi = lambda x: cf.psi(x, t)
                assert abs(b.quad_inner(psi, psi, t, spec) - 1.0) < 1e-10

    def test_phi_is_raised_psi(self):
        z = 0.2 - 0.4j
        cf = coh.closed_form(coh.CoherentParams(z))
        x = np.linspace(-3, 3, 13)
        for t in (0.0, 0.8):
            v = cf.psi(x, t)
            d1 = cf.dpsi(x, t)
            raised = 0.5 * (1j + t) * d1 - 0.25j * x * v
            assert np.abs(raised - cf.phi(x, t)).max() < 1e-14
            h = 1e-5
            central = (cf.phi(x + h, t) - cf.phi(x - h, t)) / (2 * h)
            assert np.abs(central - cf.dphi(x, t)).max() < 1e-9

    def test_phi_norm_value(self):
        z = 0.5j
        cf = coh.closed_form(coh.CoherentParams(z))
        spec = replace(b.QuadratureSpec(), scale=coh.quad_scale(z, 0.0))
        phi = lambda x: cf.phi(x, 0.0)
        got = b.quad_inner(phi, phi, 0.0, spec).real
        assert abs(got - 0.25 / (1 - abs(z) ** 2)) < 1e-12

    def test_norm_sq_identity(self):
        cf = coh.closed_form(coh.CoherentParams(0.5j, 0.7 - 0.2j))
        assert (cf.norm_sq(0.5) - 1.0).max_abs() < 1e-12

    @pytest.mark.parametrize(
        "z, t", [(0.0, 0.0), (0.3, 1.0), (0.5j, -5.0), (-0.7, 0.5), (_ring(0.7), 2.0), (0.2 - 0.4j, 50.0)]
    )
    def test_moments_match_the_quad_inner_route(self, z, t):
        """Each moment equals its basis.quad_inner integral bit for bit."""
        cf = coh.closed_form(coh.CoherentParams(z))
        spec = replace(b.QuadratureSpec(nodes=120), scale=coh.quad_scale(z, t))
        psi, phi = (lambda x: cf.psi(x, t)), (lambda x: cf.phi(x, t))
        norm_psi = b.quad_inner(psi, psi, t, spec).real
        norm_phi = b.quad_inner(phi, phi, t, spec).real
        want = {
            "mean_x_psi": b.quad_inner(psi, lambda x: x * psi(x), t, spec) / norm_psi,
            "mean_x_phi": b.quad_inner(phi, lambda x: x * phi(x), t, spec) / norm_phi,
            "mean_p_psi": b.quad_inner(psi, lambda x: -1j * cf.dpsi(x, t), t, spec) / norm_psi,
            "mean_p_phi": b.quad_inner(phi, lambda x: -1j * cf.dphi(x, t), t, spec) / norm_phi,
            "norm_psi": norm_psi,
            "norm_phi": norm_phi,
        }
        got = cf.moments(t, b.QuadratureSpec(nodes=120))
        assert got == want
        assert type(got["norm_psi"]) is float and type(got["mean_p_phi"]) is complex

    def test_fields_of_a_scalar_are_python_complex(self):
        cf = coh.closed_form(coh.CoherentParams(0.4 - 0.3j))
        scalar = cf.fields(0.7, 1.5)
        assert all(type(v) is complex for v in scalar)
        grid = cf.fields(np.array([-0.7, 0.7]), 1.5)
        assert all(v.shape == (2,) for v in grid)
        np.testing.assert_allclose(scalar, [v[1] for v in grid], rtol=1e-15)
        assert scalar == (cf.psi(0.7, 1.5), cf.phi(0.7, 1.5), cf.dpsi(0.7, 1.5), cf.dphi(0.7, 1.5))


class TestExpansionCoefficients:
    def test_leading_values(self):
        z = 0.4 + 0.1j
        ge, go = coh.expansion_coefficients(z, 4)
        pref = (1 - abs(z) ** 2) ** 0.25
        assert abs(ge[0] - pref) < 1e-15
        assert abs(go[0] - 0.5 * pref) < 1e-15

    def test_first_ratio(self):
        z = 0.37 - 0.2j
        ge, _ = coh.expansion_coefficients(z, 3)
        assert abs(ge[1] / ge[0] - z * np.sqrt(0.5)) < 1e-14

    def test_even_norm_is_one(self):
        z = 0.6
        ge, _ = coh.expansion_coefficients(z, coh.series_length_for(z, 1e-14))
        assert abs(np.sum(np.abs(ge) ** 2) - 1.0) < 1e-13


class TestSeriesState:
    def test_z_zero_is_vacuum(self):
        sv = coh.series_state(coh.CoherentParams(0.0), 8, ALG)
        vac = SuperVector.basis_state(0, 0, 8, ALG)
        assert (sv - vac).max_abs() < 1e-15

    def test_unit_super_norm_exact(self):
        sv = coh.series_state(coh.CoherentParams(0.4j, 1.5 - 0.5j), 64, ALG)
        assert (sv.super_inner(sv) - 1.0).max_abs() < 1e-14

    def test_coefficient_proportionality(self):
        z = 0.3 + 0.2j
        sv = coh.series_state(coh.CoherentParams(z), 64, ALG)
        ge, _ = coh.expansion_coefficients(z, 64)
        ratio = sv.even[1].body / sv.even[0].body
        assert abs(ratio - ge[1] / ge[0]) < 1e-14

    def test_truncation_error_raised(self):
        with pytest.raises(coh.TruncationError):
            coh.series_state(coh.CoherentParams(0.8), 16, ALG, tail_tol=1e-12)

    @pytest.mark.parametrize("alg, z, alpha", SECTOR_POINTS)
    def test_sector_form_matches_the_generic_normalization(self, alg, z, alpha):
        """The state built from s_e and s_o equals phase (Phi|Phi)^{-1/2} Phi formed generically."""
        p = coh.CoherentParams(z, alpha)
        n = coh.series_length_for(z, 1e-12)
        got = coh.series_state(p, n, alg)
        want = _generic_series_state(p, n, alg)
        assert (got - want).max_abs() < 4e-15 * max(1.0, abs(alpha) ** 2)

    @pytest.mark.parametrize("alg, z, alpha", SECTOR_POINTS + [(ALG, 0.3, a) for a in SIGNED_ALPHA])
    def test_packaging_matches_the_grassmann_expressions(self, alg, z, alpha):
        """The rows packaged from the chain equal the Grassmann expressions bit for bit, the
        signs of their zeros included."""
        p = coh.CoherentParams(z, alpha)
        n = coh.series_length_for(z, 1e-12)
        got = coh.series_state(p, n, alg).coeffs
        want = _grassmann_series_state(p, n, alg).coeffs
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_no_binomial_power(self, monkeypatch):
        """Series states, their symbols and the crosscheck take no power of a Grassmann element."""
        def refuse(self, p):
            raise AssertionError("GrassmannElement.power called")

        monkeypatch.setattr(GrassmannElement, "power", refuse)
        p = coh.CoherentParams(0.3 + 0.2j, 0.7 - 0.4j)
        coh.series_state(p, 64, ALG)
        coh.berezin_symbols([build_generator(name, 64, ALG) for name in ("I", "K0", "V+")], p, ALG)
        coh.crosscheck(p, 0.5)


class TestCrosscheck:
    @pytest.mark.parametrize("z", [0.5, 0.5j, -0.3 + 0.4j])
    def test_three_routes(self, z):
        p = coh.CoherentParams(z, 1.0)
        r = coh.crosscheck(p, 0.0)
        assert r["n_series"] == coh.series_length_for(z, 1e-12)
        assert r["max_pairwise_psi"] < 1e-8
        assert r["max_pairwise_phi"] < 1e-8
        assert r["coefficient_defect"] < 1e-8
        assert r["norm_defect"] < 1e-12
        assert r["max_residual"] < 1e-6

    @pytest.mark.parametrize("phase", [0.0, 0.25, 0.5, 1.0, 1.5])
    def test_residual_on_the_z_09_ring(self, phase):
        # the packet narrows to Re sigma = 0.053 at z = 0.9; fixed steps gave 3.6e-6 there
        p = coh.CoherentParams(0.9 * np.exp(1j * np.pi * phase))
        for t in (-5.0, 0.0, 5.0):
            assert coh.crosscheck(p, t)["max_residual"] < 1e-6

    def test_z_zero_recovers_ground(self):
        r = coh.crosscheck(coh.CoherentParams(0.0), 0.0)
        assert r["n_series"] == coh.series_length_for(0.0, 1e-12) == 4
        assert r["max_pairwise_psi"] < 1e-14

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310j, -3e-300 + 1e-300j, 2.0])
    def test_phi_series_route_at_any_alpha(self, alpha):
        """The phi series route reads the alpha-free series, so an alpha whose products with the
        series coefficients are subnormal cannot make its quotient NaN (5e-324 did)."""
        r = coh.crosscheck(coh.CoherentParams(0.8 + 0.2j, alpha), 1.0)
        assert r["max_pairwise_phi"] < 1e-8
        assert r["max_pairwise_phi"] == coh.crosscheck(coh.CoherentParams(0.8 + 0.2j, 1.0), 1.0)["max_pairwise_phi"]


class TestDisplacement:
    def test_identity_at_origin(self):
        d = coh.displacement_operator(coh.CoherentParams(0.0, 0.0), 8, ALG)
        assert (d - SuperOperator.identity(8, ALG)).max_abs() < 1e-15

    def test_superisometry(self):
        rng = np.random.default_rng(21)
        d = coh.displacement_operator(coh.CoherentParams(0.25, 0.5 - 0.5j), 48, ALG)
        for _ in range(3):
            v1 = random_supervector(48, rng, ALG, support=7)
            v2 = random_supervector(48, rng, ALG, support=7)
            defect = (d.apply(v1).super_inner(d.apply(v2)) - v1.super_inner(v2)).max_abs()
            assert defect < 1e-6

    def test_vacuum_maps_to_disk_coordinate(self):
        for zeta in (0.3, 0.2j, 0.15 - 0.25j):
            d = coh.displacement_operator(coh.CoherentParams(zeta), 64, ALG)
            vac = SuperVector.basis_state(0, 0, 64, ALG)
            w = coh.disk_parameter(zeta)
            ref = coh.series_state(coh.CoherentParams(w), 64, ALG, tail_tol=1e-10)
            ov = ref.super_inner(d.apply(vac))
            assert abs(abs(ov.body) - 1.0) < 1e-6

    def test_naive_same_label_overlap_only_at_small_z(self):
        # the group parameter and the disk coordinate agree to O(z^3), so the
        # same-label overlap is 1 only for small |z|
        vac = SuperVector.basis_state(0, 0, 64, ALG)
        d = coh.displacement_operator(coh.CoherentParams(0.05), 64, ALG)
        ov = coh.series_state(coh.CoherentParams(0.05), 64, ALG).super_inner(d.apply(vac))
        assert abs(abs(ov.body) - 1.0) < 1e-6
        d = coh.displacement_operator(coh.CoherentParams(0.3), 64, ALG)
        ov = coh.series_state(coh.CoherentParams(0.3), 64, ALG).super_inner(d.apply(vac))
        assert abs(abs(ov.body) - 1.0) > 1e-6

    def test_disk_parameter_map(self):
        assert coh.disk_parameter(0.0) == 0.0
        assert abs(coh.disk_parameter(0.3) - np.tanh(0.3)) < 1e-15


class TestSpectralDisplacement:
    """The spectral displacement against ``operator_exp`` of the same exponent."""

    def test_ring_points_are_in_the_validated_disk(self):
        for z in ORACLE_Z[-3:]:
            assert DISK_RADIUS - 1e-15 < abs(z) <= DISK_RADIUS

    @pytest.mark.parametrize("alpha", [0.0, 0.7 - 0.4j], ids=["alpha0", "alpha"])
    @pytest.mark.parametrize("z", ORACLE_Z, ids=[f"z{k}" for k in range(len(ORACLE_Z))])
    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("alg", [ALG, ALG6], ids=["g4", "g6"])
    def test_matches_operator_exp(self, alg, n, z, alpha):
        p = coh.CoherentParams(z, alpha)
        want = operator_exp(_exponent(p, n, alg))
        got = coh.displacement_operator(p, n, alg)
        assert set(got.blocks) == set(want.blocks)
        assert (got - want).max_abs() <= 1e-12 * max(1.0, want.max_abs())

    def test_one_eigendecomposition_per_truncation(self, monkeypatch):
        """A displacement at a truncation already seen runs no eigh, whatever z and alpha."""
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kw: calls.append(args) or eigh(*args, **kw))
        coh.displacement_operator(coh.CoherentParams(0.3, 0.7 - 0.4j), 37, ALG)
        assert len(calls) <= 2  # none when another test filled the cache at this truncation
        calls.clear()
        for z, alpha in ((0.5j, 0.0), (_ring(2.4), 1.0), (-0.2 + 1e-3j, 0.7 - 0.4j)):
            coh.displacement_operator(coh.CoherentParams(z, alpha), 37, ALG)
        assert calls == []

    @pytest.mark.parametrize("n", [8, 37, 64])
    def test_z_free_eigensystem(self, n):
        """One read-only cache per truncation holds the eigh(T_s) pairs and images, the same
        objects whatever z and alpha; mu comes in pairs +-mu, and the rotated pairs diagonalize
        the sector bodies of z K+ - conj(z) K-."""
        cache = representation._z_free_eigenbasis(n)
        pairs, images = cache
        for array in (*pairs[0], *pairs[1], *images):
            assert not array.flags.writeable
        for mu, _ in pairs:
            assert np.abs(mu + mu[::-1]).max() < 1e-13 * np.abs(mu).max()
        for z, alpha in ((1e-8, 0.0), (0.3, 0.7 - 0.4j), (-0.3, 1.0), (0.2j, 2.0), (_ring(-1.9), 0.0)):
            coh.displacement_operator(coh.CoherentParams(z, alpha), n, ALG)
            assert representation._z_free_eigenbasis(n) is cache
            body = _exponent(coh.CoherentParams(z), n, ALG).body
            radius, phase, got_pairs, got_images = representation._body_eigensystem(z, n)
            assert radius == abs(z) and got_pairs is pairs and got_images is images
            for s, (mu, q) in enumerate(pairs):
                lam, vec = -1j * radius * mu, phase[:, None] * q
                a = body[s * n : (s + 1) * n, s * n : (s + 1) * n]
                assert not lam.real.any()
                assert np.abs(vec.conj().T @ vec - np.eye(n)).max() < 1e-13
                # the phases e^{i k arg z} round like k eps, 1.8e-14 at N = 64 and z = -0.3
                assert np.abs((vec * lam) @ vec.conj().T - a).max() < 1e-13 * max(1.0, np.abs(a).max())

    @pytest.mark.parametrize("n", [8, 37, 64])
    def test_cached_generator_images(self, n):
        """images[s] across from sector s equals V_s^H S V_(1-s) of the complex eigenbases
        V_s = D Q_s, for S the quadrant of W- (s = 0) and of V+ (s = 1), whatever z; at z = 0
        the pairs are (0, I) and the images S itself, exactly."""
        stencils = [
            representation._expand(build_generator(name, n, ALG).blocks[0][(s, 1 - s)], n)
            for s, name in enumerate(("W-", "V+"))
        ]
        for z in (0.3, 0.5j, _ring(2.4), -0.2 + 1e-3j):
            _, phase, pairs, images = representation._body_eigensystem(z, n)
            v = [phase[:, None] * q for _, q in pairs]
            for s in (0, 1):
                want = v[s].conj().T @ stencils[s] @ v[1 - s]
                assert np.abs(images[s] - want).max() < 1e-13
        radius, _, pairs, images = representation._body_eigensystem(0.0, n)
        assert radius == 0.0
        for s in (0, 1):
            assert not pairs[s][0].any() and np.array_equal(pairs[s][1], np.eye(n))
            assert np.array_equal(images[s], stencils[s].real)

    def test_no_generator_built(self, monkeypatch):
        """A displacement at a truncation already seen builds no generator, whatever z and alpha."""
        calls = []
        build = representation.build_generator

        def counting(*args, **kw):
            calls.append(args)
            return build(*args, **kw)

        monkeypatch.setattr(representation, "build_generator", counting)
        coh.displacement_operator(coh.CoherentParams(0.3, 0.7 - 0.4j), 37, ALG)
        calls.clear()
        for z, alpha in ((0.5j, 0.0), (_ring(2.4), 1.0), (-0.2 + 1e-3j, 0.7 - 0.4j), (0.0, 0.7 - 0.4j)):
            coh.displacement_operator(coh.CoherentParams(z, alpha), 37, ALG)
        assert calls == []

    def test_holds_dense_quadrants_on_four_masks(self):
        d = coh.displacement_operator(coh.CoherentParams(0.4 - 0.2j, 0.7 - 0.4j), 16, ALG)
        alpha, alpha_bar = (1 << SCALARS.index[g] for g in ("alpha", "alpha_bar"))
        assert {m: sorted(q) for m, q in d.blocks.items()} == {
            0: [(0, 0), (1, 1)],
            alpha: [(1, 0)],
            alpha_bar: [(0, 1)],
            alpha | alpha_bar: [(0, 0), (1, 1)],
        }
        for quads in d.blocks.values():
            for ((dd, part),) in quads.values():
                assert dd is None and part.shape == (16, 16) and not part.flags.writeable


class TestSymbols:
    def test_calibration_flag(self):
        assert coh.calibrate_convention(0.3 + 0.25j, ALG) == "conjugate"

    @pytest.mark.parametrize("z", [0.9j, -0.9j, 0.9 * np.exp(0.3j)])
    def test_calibration_on_the_ring(self, z):
        """|z| = DISK_RADIUS is inside the validated disk, so calibration must accept it."""
        assert abs(z) == pytest.approx(DISK_RADIUS, rel=1e-15)
        assert coh.calibrate_convention(z, ALG) == "conjugate"
        n = max(48, coh.series_length_for(z, 1e-9))
        body = coh.berezin_symbol(build_generator("K+", n, ALG), coh.CoherentParams(z), ALG).body
        assert abs(body - np.conjugate(z) / (2.0 * (1.0 - abs(z) ** 2))) < 1e-13

    def test_calibration_needs_nonreal(self):
        """A real z, or one whose two candidate bodies lie within 2 tol, cannot tell the conventions apart."""
        for z in (0.5, 2e-9j, 1e-10 + 2e-9j, 0.3 + 5e-9j):
            with pytest.raises(ValueError, match="candidates"):
                coh.calibrate_convention(z, ALG)

    def test_calibration_just_past_the_separation(self):
        assert coh.calibrate_convention(3e-8j, ALG) == "conjugate"

    def test_identity_symbol(self):
        p = coh.CoherentParams(0.5, 1.0)
        assert (coh.berezin_symbol(SuperOperator.identity(64, ALG), p, ALG) - 1.0).max_abs() < 1e-14

    @pytest.mark.parametrize("alg, z, alpha", SECTOR_POINTS)
    def test_identity_symbol_of_the_unit_state(self, alg, z, alpha):
        """The symbol of I is (Psi|Psi) of the unit series state, read without renormalizing."""
        p = coh.CoherentParams(z, alpha)
        got = coh.berezin_symbol(build_generator("I", coh.series_length_for(z, 1e-12), alg), p, alg)
        assert (got - 1.0).max_abs() < 1e-14 * max(1.0, abs(alpha) ** 2)

    def test_K0_at_origin(self):
        p = coh.CoherentParams(0.0, 0.0)
        got = coh.berezin_symbol(build_generator("K0", 16, ALG), p, ALG)
        assert (got - 0.25).max_abs() < 1e-15

    def test_K0_at_half(self):
        p = coh.CoherentParams(0.5, 1.0)
        got = coh.berezin_symbol(build_generator("K0", 64, ALG), p, ALG)
        assert abs(got.body - 0.25 * 1.25 / 0.75) < 1e-13
        want = coh.expected_symbol("K0", p, ALG, "conjugate")
        assert (got - want).max_abs() < 1e-13

    @pytest.mark.parametrize("name", GENERATOR_NAMES)
    def test_all_generators_match(self, name):
        for z in (0.3, 0.5j, 0.3 - 0.35j):
            n = max(64, coh.series_length_for(z, 1e-7))
            o = build_generator(name, n, ALG)
            for a in (0.0, 1.0, 0.5 + 0.5j):
                p = coh.CoherentParams(z, a)
                got = coh.berezin_symbol(o, p, ALG)
                want = coh.expected_symbol(name, p, ALG, "conjugate")
                assert (got - want).max_abs() < 1e-8

    def test_symbols_share_one_state(self, monkeypatch):
        """One series chain serves every operator, every alpha of ``_berezin_symbols`` and
        every t of ``_trajectories``."""
        chains = []
        build = coh._series_chain
        monkeypatch.setattr(coh, "_series_chain", lambda *args: chains.append(build(*args)) or chains[-1])
        p = coh.CoherentParams(0.3 - 0.35j, 0.5 + 0.5j)
        ops = [build_generator(name, 64, ALG) for name in GENERATOR_NAMES]
        got = coh.berezin_symbols(ops, p, ALG)
        assert len(chains) == 1
        for o, symbol in zip(ops, got):
            np.testing.assert_array_equal(symbol.coeffs, coh.berezin_symbol(o, p, ALG).coeffs)
        coh.trajectory(p, 0.5, ALG)
        assert len(chains) == 1 + len(ops) + 1
        both = coh._berezin_symbols(ops, p.z, (0.0, p.alpha_coeff), ALG)
        coh._trajectories(p, (0.0, 0.5, 1.0), ALG)
        assert len(chains) == 1 + len(ops) + 3
        for a, symbols in zip((0.0, p.alpha_coeff), both):
            want = coh.berezin_symbols(ops, coh.CoherentParams(p.z, a), ALG)
            assert all(np.array_equal(g.coeffs, w.coeffs) for g, w in zip(symbols, want))

    def test_symbols_need_one_truncation(self):
        p = coh.CoherentParams(0.3)
        with pytest.raises(ValueError):
            coh.berezin_symbols([build_generator("K0", 16, ALG), build_generator("K0", 32, ALG)], p, ALG)
        with pytest.raises(ValueError):
            coh.berezin_symbols([], p, ALG)

    def test_Kplus_Kminus_related_by_conjugation(self):
        z = 0.4 + 0.2j
        n = 64
        p = coh.CoherentParams(z, 0.0)
        sp = coh.berezin_symbol(build_generator("K+", n, ALG), p, ALG).body
        sm = coh.berezin_symbol(build_generator("K-", n, ALG), p, ALG).body
        assert abs(np.conjugate(sp) - sm) < 1e-12


class TestTrajectory:
    def test_line_parameters_at_origin(self):
        x0, p0 = coh.trajectory_closed_form(coh.CoherentParams(0.0))
        assert abs(x0 + 1 / np.sqrt(2)) < 1e-15
        assert abs(p0 + 1j / (2 * np.sqrt(2))) < 1e-15

    def test_momentum_constant_and_line_affine(self):
        p = coh.CoherentParams(0.3, 0.8 - 0.3j)
        x0, p0 = coh.trajectory_closed_form(p)
        abar = np.conjugate(p.alpha_coeff)
        ts = [0.0, 1.0, 2.0, 3.0]
        sx, sp = [], []
        for t in ts:
            r = coh.trajectory(p, t, ALG)
            sx.append(r["x_theta"].coeff("alpha_bar"))
            sp.append(r["p_theta"].coeff("alpha_bar"))
        sp = np.asarray(sp)
        assert np.abs(sp - p0 * abar).max() < 1e-10
        coef = np.polyfit(ts, np.asarray(sx), 1)
        assert np.abs(np.polyval(coef, ts) - np.asarray(sx)).max() < 1e-9
        assert abs(coef[0] - 2 * p0 * abar) < 1e-9
        assert abs(coef[1] - x0 * abar) < 1e-9

    def test_keys(self):
        r = coh.trajectory(coh.CoherentParams(0.3 - 0.2j, 0.5), 0.5, ALG)
        assert list(r) == [
            "t",
            "p_theta",
            "x_theta",
            "x0",
            "p0",
            "mean_x_psi",
            "mean_x_phi",
            "mean_p_psi",
            "mean_p_phi",
            "norm_psi",
            "norm_phi",
        ]

    def test_even_sector_is_at_rest(self):
        r = coh.trajectory(coh.CoherentParams(0.5j, 1.0), 1.0, ALG)
        for key in ("mean_x_psi", "mean_x_phi", "mean_p_psi", "mean_p_phi"):
            assert abs(r[key]) < 1e-10


def test_crosscheck_keeps_a_nan_route(poison_call):
    """A NaN series chain reaches the later route pairs, not only the first one."""
    poison_call(coh, "_series_chain", 1, lambda ch: ch._replace(even=math.nan * ch.even, odd=math.nan * ch.odd))
    r = coh.crosscheck(coh.CoherentParams(0.3, 1.0), 0.5)
    assert math.isnan(r["max_pairwise_psi"]) and math.isnan(r["max_pairwise_phi"])


def test_crosscheck_compares_three_phi_routes_at_alpha_zero(poison_call):
    """At alpha = 0 the phi series route still runs, on the chain's odd column times c, the
    alpha slot of the alpha = 1 state."""
    p = coh.CoherentParams(0.3, 0.0)
    assert coh.crosscheck(p, 0.5)["max_pairwise_phi"] < 1e-8
    poison_call(coh, "_series_chain", 1, lambda ch: ch._replace(odd=2.0 * ch.odd))
    r = coh.crosscheck(p, 0.5)
    assert r["max_pairwise_phi"] > 1e-3 and r["max_pairwise_psi"] < 1e-8


def test_crosscheck_keeps_a_nan_residual(poison_call):
    """The residual of the second component (phi) is not dropped when it is NaN."""
    poison_call(b, "schrodinger_residual", 2, lambda r: math.nan)
    r = coh.crosscheck(coh.CoherentParams(0.3), 0.5)
    assert math.isnan(r["max_residual"]) and r["max_pairwise_phi"] < 1e-8
