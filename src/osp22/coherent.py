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
from itertools import accumulate
from operator import mul
from typing import NamedTuple

import numpy as np

from . import basis as _basis
from . import representation as _rep
from .config import DISK_RADIUS
from .grassmann import GrassmannElement, default_algebra
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

    def psi(self, x, t: float):
        return self.fields(x, t)[0]

    def phi(self, x, t: float):
        return self.fields(x, t)[1]

    def dpsi(self, x, t: float):
        return self.fields(x, t)[2]

    def dphi(self, x, t: float):
        return self.fields(x, t)[3]

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
        m = self.moments(t, spec)
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

    The half-integer gamma ratios are generated by the recurrence
    Gamma(x + 1) = x Gamma(x) seeded at Gamma(1/2); the odd list carries its
    overall factor 1/2.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("|z| must be strictly less than 1")
    pref = (1.0 - abs(z) ** 2) ** 0.25
    even = np.empty(n_max, dtype=complex)
    odd = np.empty(n_max, dtype=complex)
    ratio_e = 1.0  # Gamma(n + 1/2) / (n! Gamma(1/2))
    ratio_o = 1.0  # Gamma(n + 3/2) / (n! Gamma(3/2))
    zp = 1.0 + 0j
    for n in range(n_max):
        even[n] = pref * zp * np.sqrt(ratio_e)
        odd[n] = 0.5 * pref * zp * np.sqrt(ratio_o)
        zp *= z
        ratio_e *= (n + 0.5) / (n + 1.0)
        ratio_o *= (n + 1.5) / (n + 1.0)
    return even, odd


def series_length_for(z: complex, tol: float = 1e-13) -> int:
    """Truncation certified to leave a raising-series tail below tol."""
    q = abs(z)
    if q < 1e-12:
        return 4
    n = int(np.ceil(np.log(tol * (1.0 - q) / 2.0) / np.log(q))) + 12
    return max(n, 8)


def _outer(col, row) -> np.ndarray:
    """Rows col[n] * row, real and imaginary parts formed as separate float products.

    Each row rounds as ``GrassmannElement.__rmul__`` would form col[n] * row.
    """
    col = col[:, None]
    out = np.empty((len(col), len(row)), dtype=complex)
    out.real = col.real * row.real - col.imag * row.imag
    out.imag = col.real * row.imag + col.imag * row.real
    return out


class _Chain(NamedTuple):
    """The z-only part of ``series_state``: e, o, s_e, s_o and c = closed_form_phase(z) / sqrt(s_e)."""

    even: np.ndarray
    odd: np.ndarray
    s_e: float
    s_o: float
    c: complex


def _series_chain(z: complex, n_max: int, tail_tol: float) -> _Chain:
    """The running products of ``series_state`` at z; TruncationError when the geometric
    tail bound exceeds tail_tol."""
    z = complex(z)
    k = np.arange(1.0, n_max + 1.0)
    roots = np.sqrt(k * np.stack([k - 0.5, k + 0.5]))
    # the factors z r / k, their parts formed as z.real r / k and z.imag r / k, multiplied up
    # in one running product of Python complex numbers; the last product bounds the tail
    re, im = (z.real * roots / k).tolist(), (z.imag * roots / k).tolist()
    even = list(accumulate(map(complex, re[0], im[0]), mul, initial=1.0 + 0j))
    odd = list(accumulate(map(complex, re[1], im[1]), mul, initial=1.0 / _SQRT2 + 0j))
    u, v = even.pop(), odd.pop()

    q = abs(z) * np.sqrt((n_max + 1.5) / (n_max + 1.0))
    bound = np.inf if q >= 1.0 else max(abs(u), abs(v)) / (1.0 - q)
    if bound > tail_tol:
        raise TruncationError(
            f"series tail bound {bound:.3e} exceeds {tail_tol:.1e} at n_max={n_max}",
            bound=bound,
        )

    even, odd = np.array(even), np.array(odd)
    s_e, s_o = float(np.vdot(even, even).real), float(np.vdot(odd, odd).real)
    return _Chain(even, odd, s_e, s_o, closed_form_phase(z) / np.sqrt(s_e))


def _package(chain: _Chain, alpha_coeff: complex, algebra) -> SuperVector:
    """The ``series_state`` of alpha = alpha_coeff alpha_gen from the chain of its z.

    The rows c (1 - nu / (2 s_e)) and c alpha are formed with the float operations of their
    Grassmann expressions, so the state matches them bit for bit, signed zeros included:
    conj(alpha) alpha has the one term sign |a|^2, on mask alpha alpha_bar.
    """
    alg = coefficient_algebra(algebra or default_algebra())
    ma, mb = (1 << alg.index[name] for name in ("alpha", "alpha_bar"))
    mab, sign = alg.plan.join[mb][ma]
    unit = np.zeros(alg.size, dtype=complex)
    unit[ma] = 1.0
    alpha = _outer(np.array([complex(alpha_coeff)]), unit)[0]
    a = complex(alpha[ma])
    nu = (-1j * chain.s_o) * complex(sign * (a.real * a.real - (-a.imag) * a.imag), 0.0)
    shift = (1.0 / complex(2.0 * chain.s_e)) * nu
    body = np.zeros(alg.size, dtype=complex)  # 1 - nu / (2 s_e)
    body[0], body[mab] = 1.0, 0j - shift
    c = np.array([chain.c])
    rows = _outer(chain.even, _outer(c, body)[0]), _outer(chain.odd, _outer(c, alpha)[0])
    return SuperVector.from_coeffs(alg, np.concatenate(rows))


def series_state(
    params: CoherentParams, n_max: int, algebra=None, tail_tol: float = 1e-12
) -> SuperVector:
    """exp(z K+)(1 + alpha V+) vacuum, normalized to unit super inner product.

    Raises TruncationError when the geometric tail bound at n_max exceeds
    tail_tol.  The unnormalized state is Phi = E + alpha O with complex sector
    columns e and o; with s_e = sum |e_n|^2 and s_o = sum |o_n|^2 its super norm
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
    cols = phase * gamma_even, _SQRT2 * phase * gamma_odd
    states = []
    for a in alphas:
        params = CoherentParams(z, a)
        sv = _package(chain, a, alg)
        normalizer = ClosedFormState(params, alg).normalizer
        want = np.concatenate([
            _outer(cols[0], normalizer.coeffs),
            _outer(cols[1], (normalizer * params.alpha(alg)).coeffs),
        ])
        states.append(((sv - SuperVector.from_coeffs(alg, want)).max_abs(), (sv.super_inner(sv) - 1.0).max_abs()))

    # contiguous columns: a strided operand changes BLAS's sum order
    c = np.array([chain.c])
    body_even, alpha_slot = _outer(chain.even, c)[:, 0], _outer(chain.odd, c)[:, 0]
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
