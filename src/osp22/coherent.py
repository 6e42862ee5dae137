"""Supercoherent states of the free particle, by three independent routes.

A state is labeled by a disk coordinate z (|z| < 1) and an odd Grassmann
parameter alpha = a * alpha_gen.  The three routes are

* the closed form through the Cayley image sigma = (1 - z)/(1 + z):
      psi_z = ((sigma + conj sigma)/(4 pi))^{1/4} (sigma + i t)^{-1/2}
              exp(-x^2 / (4 (sigma + i t)))
      phi_z = a+ psi_z = -(i x / 4) (1 + sigma)/(sigma + i t) psi_z
  packaged as N (psi_z + sqrt(2) alpha theta phi_z) with the nilpotent
  normalizer N = 1 + i conj(alpha) alpha / (4 (1 - |z|^2)); every caller
  reads one evaluation (``fields``) and one quadrature pass (``moments``);
* the raising series exp(z K+)(1 + alpha V+) applied to the vacuum, summed
  with a certified geometric tail (exact, the factorization holds because
  [K+, V+] = 0 and (alpha V+)^2 = 0) and normalized sector by sector: its
  super norm s_e + nu has nu^2 = 0, so (Phi|Phi)^{-1/2} is the closed
  expression (1 - nu / (2 s_e)) / sqrt(s_e) of the series' own sector sums;
  the sums and columns depend on z alone, so every alpha of a z shares them;
* the half-integer-gamma coefficient formulas of the disk expansion.

``crosscheck``, ``berezin_symbols`` and ``trajectory`` are the one-alpha or
one-t calls of private routines over several: the coherent suite checks all
alphas and times of a z with one series chain, one set of gamma coefficients,
one chi kernel per t shared by every z, and its alpha-free parts once.

Also provided: the superisometric displacement exp(z K+ - conj(z) K- +
alpha V+ - i conj(alpha) W-), exponentiated spectrally
(``representation._spectral_exp``; ``representation.operator_exp`` is its
test oracle) from the eigensystem of its anti-Hermitian body per sector, read
from one z-free cache per truncation and turned by a diagonal phase, so no
eigendecomposition runs per z and every change of basis is a real product;
covariant (lowest-weight expectation) symbols of all eight generators with a
single calibrated conjugation convention, where ``berezin_symbols`` serves a
set of operators from one series state; and the odd-sector straight-line
trajectory data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partialmethod
from typing import NamedTuple

import numpy as np

from . import basis as _basis
from . import representation as _rep
from .config import DISK_RADIUS
from .grassmann import GrassmannElement, _cmul, default_algebra
from .superspace import SuperVector, coefficient_algebra

__all__ = [
    "CoherentParams",
    "ClosedFormState",
    "TruncationError",
    "CalibrationError",
    "closed_form",
    "closed_form_phase",
    "expansion_coefficients",
    "series_length_for",
    "series_state",
    "crosscheck",
    "displacement_operator",
    "disk_parameter",
    "quad_scale",
    "berezin_symbol",
    "berezin_symbols",
    "calibrate_convention",
    "expected_symbol",
    "trajectory",
    "trajectory_closed_form",
]

_SQRT2 = np.sqrt(2.0)
_HALVES = np.array([[-0.5], [0.5]])  # k - 0.5 and k + 0.5 as one broadcast sum, bit for bit


def closed_form_phase(z: complex) -> complex:
    """Unimodular factor aligning the raising series with the closed form.

    Normalization fixes only the modulus of the series normalizer; its phase
    is anchored to the closed-form prefactor, whose principal branches carry
    exp(-(i/2) arg(1+z)) relative to a positive normalizer.  Equal to 1 for
    real z.
    """
    w = 1.0 + complex(z)
    return complex(np.sqrt(w / abs(w)))


class TruncationError(RuntimeError):
    """Series truncation cannot certify the requested tail tolerance."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class CalibrationError(RuntimeError):
    """Neither conjugation convention reproduces the computed symbol."""


@dataclass(frozen=True)
class CoherentParams:
    """Disk coordinate z (|z| < 1) and the coefficient a of alpha = a * alpha_gen."""

    z: complex
    alpha_coeff: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "alpha_coeff", complex(self.alpha_coeff))
        if abs(self.z) >= 1.0:
            raise ValueError("|z| must be strictly less than 1")

    def alpha(self, algebra=None) -> GrassmannElement:
        """a * alpha_gen in the coefficient algebra of ``algebra``."""
        return self.alpha_coeff * coefficient_algebra(algebra or default_algebra()).gen("alpha")

    @property
    def rho(self) -> float:
        return abs(self.z) ** 2


class ClosedFormState:
    """Closed-form evaluators for the even/odd wave functions.

    Principal branches everywhere; the Cayley image of the open disk has
    Re(sigma) > 0, which keeps sigma + i t off the branch cut.
    """

    def __init__(self, params: CoherentParams, algebra=None):
        self.params = params
        self.algebra = coefficient_algebra(algebra or default_algebra())
        self.sigma = (1.0 - params.z) / (1.0 + params.z)

    @property
    def normalizer(self) -> GrassmannElement:
        """N = 1 + i conj(alpha) alpha / (4 (1 - |z|^2)); body exactly 1."""
        a = self.params.alpha(self.algebra)
        coeff = 1j / (4.0 * (1.0 - self.params.rho))
        return self.algebra.one() + coeff * (a.conj() * a)

    def fields(self, x, t: float) -> tuple:
        """(psi, phi, d/dx psi, d/dx phi) at (x, t) from one psi; Python complex for a scalar x."""
        x = np.asarray(x, dtype=float)
        w = self.sigma + 1j * t
        q = (1.0 + self.sigma) / w
        amp = ((self.sigma + np.conjugate(self.sigma)).real / (4.0 * np.pi)) ** 0.25
        psi = amp / np.sqrt(w) * np.exp(-x * x / (4.0 * w))
        phi = -0.25j * x * q * psi
        dpsi = -x / (2.0 * w) * psi
        dphi = -0.25j * q * (psi + x * dpsi)
        vals = (psi, phi, dpsi, dphi)
        return vals if x.ndim else tuple(map(complex, vals))

    # psi(x, t), phi(x, t), dpsi(x, t) and dphi(x, t): one component of ``fields`` each
    psi, phi, dpsi, dphi = (partialmethod(lambda self, k, x, t: self.fields(x, t)[k], k) for k in range(4))

    def moments(self, t: float = 0.0, spec=None) -> dict:
        """Real norms and means <x>, <p> of psi_z and phi_z at t, from one ``fields`` pass.

        The rule of ``spec`` is rescaled by ``quad_scale``; each mean is divided
        by its norm, and each sum is the one ``basis.quad_inner`` forms, bit for bit.
        """
        spec = replace(spec or _basis.QuadratureSpec(), scale=quad_scale(self.params.z, t))
        x, w = _basis.quad_grid(t, spec)
        psi, phi, dpsi, dphi = self.fields(x, t)
        def inner(f, g):
            return complex(np.sum(w * np.conjugate(f) * g))
        norm_psi, norm_phi = inner(psi, psi).real, inner(phi, phi).real
        return {
            "mean_x_psi": inner(psi, x * psi) / norm_psi,
            "mean_x_phi": inner(phi, x * phi) / norm_phi,
            "mean_p_psi": inner(psi, -1j * dpsi) / norm_psi,
            "mean_p_phi": inner(phi, -1j * dphi) / norm_phi,
            "norm_psi": norm_psi,
            "norm_phi": norm_phi,
        }

    def norm_sq(self, t: float = 0.0, spec=None) -> GrassmannElement:
        """(Psi | Psi) assembled from the ``moments`` norms and the normalizer.

        Equals 1 exactly up to quadrature round-off: the nilpotent parts of
        N^2 and of the odd-sector norm cancel.
        """
        return self._norm_sq(self.moments(t, spec))

    def _norm_sq(self, m: dict) -> GrassmannElement:
        """``norm_sq`` from the norms of ``moments`` already formed at its (t, spec)."""
        a = self.params.alpha(self.algebra)
        n2 = self.normalizer.power(2.0)
        return n2 * (self.algebra.scalar(m["norm_psi"]) - 2j * m["norm_phi"] * (a.conj() * a))


def closed_form(params: CoherentParams, algebra=None) -> ClosedFormState:
    return ClosedFormState(params, algebra)


def quad_scale(z: complex, t: float) -> float:
    """Gauss-Hermite scale matched to the |psi_z|^2 envelope at time t."""
    sigma = (1.0 - z) / (1.0 + z)
    kappa = (1.0 / (2.0 * (sigma + 1j * t))).real
    return float(1.0 / np.sqrt(kappa))


def expansion_coefficients(z: complex, n_max: int):
    """Disk-series coefficients of the even and odd wave functions.

    The powers z^n and the half-integer gamma ratios Gamma(n + 1/2) / (n! Gamma(1/2)) and
    Gamma(n + 3/2) / (n! Gamma(3/2)), from the recurrence Gamma(x + 1) = x Gamma(x), are
    running products along arrays; the odd row carries its overall factor 1/2.  Each
    coefficient is pref z^n sqrt(ratio), formed with the float products of Python's
    float * complex, which multiplies by (x, 0.0): the signed zeros come out as a scalar
    loop would leave them.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("|z| must be strictly less than 1")
    if n_max < 0:
        raise ValueError(f"series length must be nonnegative, got {n_max}")
    pref = (1.0 - abs(z) ** 2) ** 0.25
    zp = np.full(n_max, z)
    zp[:1] = 1.0
    np.multiply.accumulate(zp, out=zp)
    n = np.arange(n_max - 1.0)
    roots = np.ones((2, n_max))
    roots[:, 1:] = (n + np.array([[0.5], [1.5]])) / (n + 1.0)
    roots = np.sqrt(np.multiply.accumulate(roots, axis=1))
    out = _cmul(_cmul(np.array([[pref], [0.5 * pref]]), zp), roots)  # real factors as (x, 0.0)
    return out[0], out[1]


def series_length_for(z: complex, tol: float = 1e-13) -> int:
    """Truncation certified to leave a raising-series tail below tol."""
    q = abs(z)
    if q < 1e-12:
        return 4
    n = int(np.ceil(np.log(tol * (1.0 - q) / 2.0) / np.log(q))) + 12
    return max(n, 8)


class _Chain(NamedTuple):
    """The z-only part of ``series_state``: sectors (e; o), s_e, s_o, c = closed_form_phase(z) / sqrt(s_e)."""

    sectors: np.ndarray
    s_e: float
    s_o: float
    c: complex


def _series_chain(z: complex, n_max: int, tail_tol: float) -> _Chain:
    """The running products of ``series_state`` at z; ValueError for n_max < 1 and
    TruncationError when the geometric tail bound exceeds tail_tol."""
    if n_max < 1:
        raise ValueError(f"series length must be at least 1, got {n_max}")
    z = complex(z)
    k = np.arange(1.0, n_max + 1.0)
    roots = np.sqrt(k * (k + _HALVES))
    # one row per sector: 1 or 1/sqrt(2), then the factors z r / k with parts z.real r / k and
    # z.imag r / k, multiplied up along the row in order; each product rounds as the running
    # product of Python complex numbers does, and the last column bounds the tail
    f = np.empty((2, len(k) + 1), dtype=complex)
    f[:, 0] = 1.0, 1.0 / _SQRT2
    f.real[:, 1:], f.imag[:, 1:] = z.real * roots / k, z.imag * roots / k
    np.multiply.accumulate(f, axis=1, out=f)
    u, v = f[:, -1]

    q = abs(z) * np.sqrt((n_max + 1.5) / (n_max + 1.0))
    bound = np.inf if q >= 1.0 else max(abs(u), abs(v)) / (1.0 - q)
    if bound > tail_tol:
        raise TruncationError(
            f"series tail bound {bound:.3e} exceeds {tail_tol:.1e} at n_max={n_max}",
            bound=bound,
        )

    even, odd = sectors = f[:, :-1]  # contiguous rows, as ``_crosschecks`` needs
    s_e, s_o = float(np.vdot(even, even).real), float(np.vdot(odd, odd).real)
    return _Chain(sectors, s_e, s_o, closed_form_phase(z) / np.sqrt(s_e))


def _package(chain: _Chain, alpha_coeff: complex, algebra) -> SuperVector:
    """The ``series_state`` of alpha = alpha_coeff alpha_gen from the chain of its z.

    The rows c (1 - nu / (2 s_e)) and c alpha are formed with the float operations of their
    Grassmann expressions, so the state matches them bit for bit, signed zeros included:
    conj(alpha) alpha has the one term sign |a|^2, on mask alpha alpha_bar.  Each entry of the
    rows, and of alpha_coeff times the unit row of alpha, is a Python complex product, as ``_cmul``.
    """
    alg = coefficient_algebra(algebra or default_algebra())
    ma, mb = (1 << alg.index[name] for name in ("alpha", "alpha_bar"))
    mab, sign = alg.plan.join[mb][ma]
    c, alpha = complex(chain.c), complex(alpha_coeff)
    a, zero = alpha * (1 + 0j), alpha * 0j
    nu = (-1j * chain.s_o) * complex(sign * (a.real * a.real - (-a.imag) * a.imag), 0.0)
    shift = (1.0 / complex(2.0 * chain.s_e)) * nu
    rows = np.empty((2, alg.size), dtype=complex)  # c (1 - nu / (2 s_e)) and c alpha
    rows[0], rows[1] = c * 0j, c * zero
    rows[0, 0], rows[0, mab], rows[1, ma] = c * (1 + 0j), c * (0j - shift), c * a
    # modes on the last axis make each product one long inner loop; the transpose puts slots first
    coeffs = _cmul(chain.sectors[:, None, :], rows[:, :, None]).transpose(0, 2, 1)
    return SuperVector.from_coeffs(alg, coeffs.reshape(-1, alg.size))


def series_state(
    params: CoherentParams, n_max: int, algebra=None, tail_tol: float = 1e-12
) -> SuperVector:
    """exp(z K+)(1 + alpha V+) vacuum, normalized to unit super inner product.

    Raises ValueError for n_max < 1 and TruncationError when the geometric
    tail bound at n_max exceeds tail_tol.  The unnormalized state is
    Phi = E + alpha O with complex sector columns e and o; with
    s_e = sum |e_n|^2 and s_o = sum |o_n|^2 its super norm
    is s_e + nu, nu = -i s_o conj(alpha) alpha, and nu^2 = 0.  So
    (Phi|Phi)^{-1/2} = (1 - nu / (2 s_e)) / sqrt(s_e) exactly, and with
    c = closed_form_phase(z) / sqrt(s_e) the even rows are e times the row of
    c (1 - nu / (2 s_e)) and the odd rows o times the row of c alpha (alpha nu
    = 0).  The result has super norm 1 up to rounding, and the closed-form
    phase makes it coincide with the closed-form evaluators rather than just
    be proportional to them.

    ``_series_chain`` forms e, o, s_e, s_o and c, which depend on z alone, and
    ``_package`` the rows of one alpha; ``_crosschecks`` and ``_berezin_symbols``
    share one chain among the alphas of a z.
    """
    return _package(_series_chain(params.z, n_max, tail_tol), params.alpha_coeff, algebra)


_GRID = np.linspace(-6.0, 6.0, 41)  # the crosscheck's sample points in x


def crosscheck(params: CoherentParams, t: float, algebra=None, spec=None) -> dict:
    """Three-route agreement report for one (z, alpha, t).

    Compares the closed-form evaluators, the normalized raising series
    contracted against the basis, and the gamma-coefficient reconstruction,
    plus equation residuals, the super norm of the series state through
    ``SuperVector.super_inner``, and per-slot coefficient defects against the
    closed-form packaging: the phase gamma columns times the rows of N and
    N alpha.  The series is ``series_length_for(z, 1e-12)`` modes long.  It is
    the one-alpha, one-t call of ``_crosschecks``, which ``suite_coherent``
    calls once per z for all its alphas and times.

    ``spec`` is accepted and ignored: the routes sample the fixed grid ``_GRID``
    and the residual a fixed stencil, so no quadrature runs.  It stays because
    the benchmark's ``coherent_sweep`` workload (``perfbench/workloads.py``)
    passes it.
    """
    kernels = _crosscheck_kernels([params.z], [t])
    return _crosschecks(params.z, [params.alpha_coeff], [t], algebra, kernels)[0][0]


def _crosscheck_kernels(zs, ts) -> list:
    """chi values on the crosscheck's grid at each t of ts, with the rows of every z of zs.

    A shorter series reads a prefix of the rows, which equals the kernel of its own
    length bit for bit: the recurrence and each row do not depend on the rows after it.
    """
    n = max(series_length_for(z, 1e-12) for z in zs)
    return [_basis.chi_matrix(range(2 * n), _GRID, t) for t in ts]


def _crosschecks(z: complex, alphas, ts, algebra, kernels) -> list:
    """``crosscheck`` reports of one z: one list per t of ts, holding one report per alpha.

    One series chain and one set of gamma coefficients serve them all.  The psi and phi
    routes and the residual do not depend on alpha, so each is formed once per t: the
    series psi reads the chain's even column times c, and the series phi its odd column
    times c, the alpha slot of the state at alpha = 1.  The state, its coefficient defect
    and its super norm do not depend on t, so each is formed once per alpha.  ``kernels``
    holds one ``_crosscheck_kernels`` array per t, with the rows of z among its zs.
    """
    alg = coefficient_algebra(algebra or default_algebra())
    n = series_length_for(z, 1e-12)
    chain = _series_chain(z, n, 1e-9)
    gamma_even, gamma_odd = expansion_coefficients(z, n)
    cf = ClosedFormState(CoherentParams(z), alg)
    phase = closed_form_phase(z)

    # slot-by-slot Grassmann defect against the closed-form packaging, and the super norm
    cols = np.stack([phase * gamma_even, _SQRT2 * phase * gamma_odd])
    states = []
    for a in alphas:
        params = CoherentParams(z, a)
        sv = _package(chain, a, alg)
        normalizer = ClosedFormState(params, alg).normalizer
        rows = np.stack([normalizer.coeffs, (normalizer * params.alpha(alg)).coeffs])
        want = _cmul(cols[:, :, None], rows[:, None, :]).reshape(-1, alg.size)
        states.append(((sv - SuperVector.from_coeffs(alg, want)).max_abs(), (sv.super_inner(sv) - 1.0).max_abs()))

    # contiguous columns: a strided operand changes BLAS's sum order
    body_even, alpha_slot = _cmul(chain.sectors, chain.c)
    reports = []
    for t, vals in zip(ts, kernels):
        even_vals, odd_vals = vals[: 2 * n : 2], vals[1 : 2 * n : 2]
        psi_closed, phi_closed = cf.fields(_GRID, t)[:2]
        psi_series = body_even @ even_vals
        psi_gamma = phase * (gamma_even @ even_vals)
        psi_diff = np.max(
            np.abs([psi_series - psi_closed, psi_gamma - psi_closed, psi_series - psi_gamma])
        )
        phi_gamma = phase * (gamma_odd @ odd_vals)
        phi_series = (alpha_slot / _SQRT2) @ odd_vals
        phi_diff = np.max(np.abs([phi_series - phi_closed, phi_gamma - phi_closed, phi_series - phi_gamma]))

        # steps follow the packet, whose width Re sigma -> 0 as |z| -> 1; the constants
        # keep the largest residual measured over |z| <= 0.9, t in [-5, 5] below 3e-8
        hx, ht = 2e-3 * min(1.0, np.sqrt(cf.sigma.real)), 1e-4 * min(1.0, cf.sigma.real)
        xs, times = np.meshgrid((-1.5, 0.5, 2.0), (t, t + 0.5))
        residual = np.max([_basis.schrodinger_residual(f, xs, times, hx, ht) for f in (cf.psi, cf.phi)])
        reports.append([
            {
                "n_series": n,
                "max_pairwise_psi": float(psi_diff),
                "max_pairwise_phi": float(phi_diff),
                "coefficient_defect": coeff_defect,
                "norm_defect": norm_defect,
                "max_residual": float(residual),
            }
            for coeff_defect, norm_defect in states
        ])
    return reports


def displacement_operator(params: CoherentParams, n_max: int, algebra=None):
    """exp(z K+ - conj(z) K- + alpha V+ - i conj(alpha) W-), superisometric, at truncation
    n_max; nothing is truncated but the modes.  ``representation._spectral_exp`` forms it."""
    return _rep._spectral_exp(params.z, params.alpha_coeff, n_max, algebra)


def disk_parameter(zeta: complex) -> complex:
    """Disk coordinate reached by the group parameter zeta of the displacement.

    The lowest-weight orbit map sends exp(zeta K+ - conj(zeta) K-) to the
    series state at tanh(|zeta|) * zeta/|zeta|.
    """
    r = abs(zeta)
    if r == 0.0:
        return 0j
    return complex(np.tanh(r) * zeta / r)


def berezin_symbol(op, params: CoherentParams, algebra=None) -> GrassmannElement:
    """Covariant symbol (Psi | op Psi) over the unit series state; see ``berezin_symbols``."""
    return berezin_symbols([op], params, algebra)[0]


def berezin_symbols(ops, params: CoherentParams, algebra=None) -> list:
    """Covariant symbols (Psi | op Psi) of operators of one truncation, in order.

    One series state is built at that truncation and serves every operator.
    It has unit super norm, so a symbol is read without dividing by (Psi | Psi);
    symbol errors scale with the square of the series tail, so a tail bound of
    1e-7 keeps symbols well below 1e-8 defect.  It is the one-alpha call of
    ``_berezin_symbols``, whose alphas share one series chain.
    """
    return _berezin_symbols(ops, params.z, [params.alpha_coeff], algebra)[0]


def _berezin_symbols(ops, z: complex, alphas, algebra=None) -> list:
    """``berezin_symbols`` at each alpha of alphas: one list of symbols per alpha, every state
    packaged from one series chain at z."""
    alg = algebra or default_algebra()
    ops = list(ops)
    sizes = {op.n_max for op in ops}
    if len(sizes) != 1:
        raise ValueError(f"berezin_symbols needs operators of one truncation, got {sorted(sizes)}")
    chain = _series_chain(z, sizes.pop(), 1e-7)
    states = [_package(chain, a, alg) for a in alphas]
    return [[state.super_inner(op.apply(state)) for op in ops] for state in states]


def calibrate_convention(z: complex, algebra=None) -> str:
    """Resolve the bra-labeling ambiguity of the symbols on K+.

    Returns "identity" when the computed symbol body follows z, "conjugate"
    when it follows conj(z), each to tol = 1e-8.  Raises ValueError unless these
    two candidates lie more than 2 tol apart; here the answer is "conjugate".
    """
    tol = 1e-8
    z = complex(z)
    if not 0.0 < abs(z) <= DISK_RADIUS:
        raise ValueError(f"calibration needs 0 < |z| <= {DISK_RADIUS}")
    denom = 2.0 * (1.0 - abs(z) ** 2)
    identity, conjugate = z / denom, np.conjugate(z) / denom
    if not abs(identity - conjugate) > 2.0 * tol:
        raise ValueError(f"calibration needs candidates more than {2.0 * tol:.1e} apart at z = {z}")
    alg = algebra or default_algebra()
    params = CoherentParams(z)
    n = max(48, series_length_for(z, 1e-9))
    kplus = _rep.build_generator("K+", n, alg)
    body = berezin_symbol(kplus, params, alg).body
    if abs(body - identity) < tol:
        return "identity"
    if abs(body - conjugate) < tol:
        return "conjugate"
    raise CalibrationError(
        f"symbol body {body} matches neither z nor conj(z) candidate"
    )


def expected_symbol(
    name: str, params: CoherentParams, algebra=None, convention: str = "conjugate"
) -> GrassmannElement:
    """Closed-form symbol of a generator under the calibrated convention.

    The "conjugate" convention substitutes z -> conj(z) and swaps
    alpha <-> conj(alpha) throughout the closed forms.  The B symbol is not
    part of the standard list and is derived here from the series route:
    B^cl = -(1/4)(1 + i A conj(A)/(1 - |z|^2)) in swapped variables.
    """
    alg = coefficient_algebra(algebra or default_algebra())
    if convention not in ("identity", "conjugate"):
        raise ValueError("convention must be 'identity' or 'conjugate'")
    rho = params.rho
    one_m = 1.0 - rho
    a_elem = params.alpha(alg)
    if convention == "conjugate":
        zeta = np.conjugate(params.z)
        A = a_elem.conj()
        Abar = a_elem
    else:
        zeta = params.z
        A = a_elem
        Abar = a_elem.conj()

    if name == "I":
        return alg.one()
    if name in ("K0", "K+", "K-"):
        k_alpha = alg.one() + (1j / one_m) * (Abar * A)
        if name == "K0":
            return (0.25 * (1.0 + rho) / one_m) * k_alpha
        if name == "K+":
            return (zeta / (2.0 * one_m)) * k_alpha
        return (np.conjugate(zeta) / (2.0 * one_m)) * k_alpha
    if name == "B":
        return -0.25 * (alg.one() + (1j / one_m) * (A * Abar))
    if name == "V+":
        return (1j / (2.0 * one_m)) * A
    if name == "V-":
        return (1j * np.conjugate(zeta) / (2.0 * one_m)) * A
    if name == "W+":
        return (-zeta / (2.0 * one_m)) * Abar
    if name == "W-":
        return (-1.0 / (2.0 * one_m)) * Abar
    raise ValueError(f"no closed-form symbol for {name!r}")


def trajectory_closed_form(params: CoherentParams) -> tuple[complex, complex]:
    """(x0, p0) of the odd-sector straight line <x theta> = (2 p0 t + x0) conj(alpha)."""
    z = params.z
    one_m = 1.0 - params.rho
    x0 = -(1.0 - z) / (_SQRT2 * one_m)
    p0 = -1j * (1.0 + z) / (2.0 * _SQRT2 * one_m)
    return complex(x0), complex(p0)


def trajectory(params: CoherentParams, t: float, algebra=None, spec=None) -> dict:
    """Odd-sector expectations at time t plus the even-sector quadrature means.

    Returns the symbols of p*theta and x*theta (Grassmann elements supported
    on conj(alpha)), the closed-form line parameters (x0, p0), and the
    ``ClosedFormState.moments`` entries: <x>, <p> and norms of psi_z and phi_z.
    It is the one-t call of ``_trajectories``, which ``suites.trajectory_rows``
    calls once for all its times.
    """
    return _trajectories(params, [t], algebra, spec)[0]


def _trajectories(params: CoherentParams, ts, algebra=None, spec=None) -> list:
    """``trajectory`` at each t of ts, in order.

    One series state, one p*theta operator with its symbol and one closed-form state
    serve every t; per t only the x*theta operator, its symbol and the moments are formed.
    """
    alg = algebra or default_algebra()
    n = max(64, series_length_for(params.z, 1e-7))
    state = series_state(params, n, alg, tail_tol=1e-7)
    s_p = state.super_inner(_rep.ptheta_operator(n, alg).apply(state))
    x0, p0 = trajectory_closed_form(params)
    cf = ClosedFormState(params, alg)
    return [
        {
            "t": float(t),
            "p_theta": s_p,
            "x_theta": state.super_inner(_rep.xtheta_operator(n, t, alg).apply(state)),
            "x0": x0,
            "p0": p0,
            **cf.moments(t, spec),
        }
        for t in ts
    ]
