"""Supercoherent states of the free particle, by three independent routes.

A state is labeled by a disk coordinate z (|z| < 1) and an odd Grassmann
parameter alpha = a * alpha_gen.  The three routes are

* the closed form through the Cayley image sigma = (1 - z)/(1 + z):
      psi_z = ((sigma + conj sigma)/(4 pi))^{1/4} (sigma + i t)^{-1/2}
              exp(-x^2 / (4 (sigma + i t)))
      phi_z = a+ psi_z = -(i x / 4) (1 + sigma)/(sigma + i t) psi_z
  packaged as N (psi_z + sqrt(2) alpha theta phi_z) with the nilpotent
  normalizer N = 1 + i conj(alpha) alpha / (4 (1 - |z|^2));
* the raising series exp(z K+)(1 + alpha V+) applied to the vacuum, summed
  with a certified geometric tail and renormalized through the super inner
  product (exact, the factorization holds because [K+, V+] = 0 and
  (alpha V+)^2 = 0);
* the half-integer-gamma coefficient formulas of the disk expansion.

Also provided: the superisometric displacement exp(z K+ - conj(z) K- +
alpha V+ - i conj(alpha) W-), covariant (lowest-weight expectation) symbols
of all eight generators with a single calibrated conjugation convention, and
the odd-sector straight-line trajectory data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import basis as _basis
from . import representation as _rep
from .grassmann import GrassmannElement, default_algebra
from .superspace import SuperVector

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
        alg = algebra or default_algebra()
        return self.alpha_coeff * alg.gen("alpha")

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
        self.algebra = algebra or default_algebra()
        self.sigma = (1.0 - params.z) / (1.0 + params.z)

    @property
    def normalizer(self) -> GrassmannElement:
        """N = 1 + i conj(alpha) alpha / (4 (1 - |z|^2)); body exactly 1."""
        a = self.params.alpha(self.algebra)
        coeff = 1j / (4.0 * (1.0 - self.params.rho))
        return self.algebra.one() + coeff * (a.conj() * a)

    def _width(self, t: float) -> complex:
        return self.sigma + 1j * t

    def psi(self, x, t: float):
        x = np.asarray(x, dtype=float)
        w = self._width(t)
        amp = ((self.sigma + np.conjugate(self.sigma)).real / (4.0 * np.pi)) ** 0.25
        val = amp / np.sqrt(w) * np.exp(-x * x / (4.0 * w))
        return complex(val) if val.ndim == 0 else val

    def phi(self, x, t: float):
        x = np.asarray(x, dtype=float)
        q = (1.0 + self.sigma) / self._width(t)
        val = -0.25j * x * q * self.psi(x, t)
        return complex(val) if val.ndim == 0 else val

    def dpsi(self, x, t: float):
        x = np.asarray(x, dtype=float)
        val = -x / (2.0 * self._width(t)) * self.psi(x, t)
        return complex(val) if val.ndim == 0 else val

    def dphi(self, x, t: float):
        x = np.asarray(x, dtype=float)
        q = (1.0 + self.sigma) / self._width(t)
        val = -0.25j * q * (self.psi(x, t) + x * self.dpsi(x, t))
        return complex(val) if val.ndim == 0 else val

    def norm_sq(self, t: float = 0.0, spec=None) -> GrassmannElement:
        """(Psi | Psi) assembled from quadrature norms and the normalizer.

        Equals 1 exactly up to quadrature round-off: the nilpotent parts of
        N^2 and of the odd-sector norm cancel.
        """
        spec = spec or _basis.QuadratureSpec()
        spec = replace(spec, scale=quad_scale(self.params.z, t))
        psi = lambda x: self.psi(x, t)
        phi = lambda x: self.phi(x, t)
        npsi = _basis.quad_inner(psi, psi, t, spec).real
        nphi = _basis.quad_inner(phi, phi, t, spec).real
        a = self.params.alpha(self.algebra)
        n2 = self.normalizer.power(2.0)
        return n2 * (self.algebra.scalar(npsi) - 2j * nphi * (a.conj() * a))


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


def series_state(
    params: CoherentParams, n_max: int, algebra=None, tail_tol: float = 1e-12
) -> SuperVector:
    """exp(z K+)(1 + alpha V+) vacuum, normalized to unit super inner product.

    Raises TruncationError when the geometric tail bound at n_max exceeds
    tail_tol.  The normalization multiplies by (Phi|Phi)^{-1/2} in the
    exterior algebra, so the result has super norm 1 exactly, and by the
    closed-form phase so the state coincides with the closed-form evaluators
    rather than just being proportional to them.
    """
    alg = algebra or default_algebra()
    z = params.z
    even = np.zeros(n_max, dtype=complex)
    odd = np.zeros(n_max, dtype=complex)
    u = 1.0 + 0j
    v = 1.0 / _SQRT2 + 0j
    for n in range(n_max):
        even[n] = u
        odd[n] = v
        u *= z * np.sqrt((n + 1.0) * (n + 0.5)) / (n + 1.0)
        v *= z * np.sqrt((n + 1.0) * (n + 1.5)) / (n + 1.0)

    q = abs(z) * np.sqrt((n_max + 1.5) / (n_max + 1.0))
    bound = np.inf if q >= 1.0 else max(abs(u), abs(v)) / (1.0 - q)
    if bound > tail_tol:
        raise TruncationError(
            f"series tail bound {bound:.3e} exceeds {tail_tol:.1e} at n_max={n_max}",
            bound=bound,
        )

    zeros = np.zeros(n_max)
    vec = SuperVector(alg, even, zeros) + params.alpha(alg) * SuperVector(alg, zeros, odd)
    gram = vec.super_inner(vec)
    return (closed_form_phase(z) * gram.power(-0.5)) * vec


def crosscheck(
    params: CoherentParams,
    t: float,
    n_max: int | None = None,
    algebra=None,
    x_grid=None,
    spec=None,
) -> dict:
    """Three-route agreement report for one (z, alpha, t).

    Compares the closed-form evaluators, the normalized raising series
    contracted against the basis, and the gamma-coefficient reconstruction,
    plus per-slot coefficient defects and equation residuals.
    """
    alg = algebra or default_algebra()
    n = n_max or series_length_for(params.z, 1e-12)
    cf = ClosedFormState(params, alg)
    sv = series_state(params, n, alg, tail_tol=1e-9)
    gamma_even, gamma_odd = expansion_coefficients(params.z, n)
    grid = np.linspace(-6.0, 6.0, 41) if x_grid is None else np.asarray(x_grid, float)

    even_vals = _basis.chi_matrix([2 * k for k in range(n)], grid, t)
    odd_vals = _basis.chi_matrix([2 * k + 1 for k in range(n)], grid, t)
    phase = closed_form_phase(params.z)

    body_even = np.array([c.body for c in sv.even])
    psi_series = body_even @ even_vals
    psi_gamma = phase * (gamma_even @ even_vals)
    psi_closed = cf.psi(grid, t)
    psi_diff = max(
        float(np.abs(psi_series - psi_closed).max()),
        float(np.abs(psi_gamma - psi_closed).max()),
        float(np.abs(psi_series - psi_gamma).max()),
    )

    phi_gamma = phase * (gamma_odd @ odd_vals)
    phi_closed = cf.phi(grid, t)
    phi_diff = float(np.abs(phi_gamma - phi_closed).max())
    if params.alpha_coeff != 0:
        alpha_slot = np.array([d.coeff("alpha") for d in sv.odd])
        phi_series = (alpha_slot / (params.alpha_coeff * _SQRT2)) @ odd_vals
        phi_diff = max(
            phi_diff,
            float(np.abs(phi_series - phi_closed).max()),
            float(np.abs(phi_series - phi_gamma).max()),
        )

    # slot-by-slot Grassmann defect against the closed-form packaging
    normalizer = cf.normalizer
    zeros = np.zeros(n)
    want = normalizer * SuperVector(alg, [phase * complex(g) for g in gamma_even], zeros)
    want = want + (normalizer * params.alpha(alg)) * SuperVector(
        alg, zeros, [_SQRT2 * phase * complex(g) for g in gamma_odd]
    )
    coeff_defect = (sv - want).max_abs()

    norm_defect = (sv.super_inner(sv) - 1.0).max_abs()

    residual = 0.0
    for xx in (-1.5, 0.5, 2.0):
        for tt in (t, t + 0.5):
            residual = max(residual, _basis.schrodinger_residual(cf.psi, xx, tt))
            residual = max(residual, _basis.schrodinger_residual(cf.phi, xx, tt))

    return {
        "n_series": n,
        "max_pairwise_psi": psi_diff,
        "max_pairwise_phi": phi_diff,
        "coefficient_defect": coeff_defect,
        "norm_defect": norm_defect,
        "max_residual": residual,
    }


def displacement_operator(params: CoherentParams, n_max: int, algebra=None):
    """exp(z K+ - conj(z) K- + alpha V+ - i conj(alpha) W-), superisometric.

    Exponentiated numerically on the monomial-block representation; the
    Grassmann parts terminate their own Taylor series.
    """
    alg = algebra or default_algebra()
    z = params.z
    gen = (
        z * _rep.build_generator("K+", n_max, alg)
        - np.conjugate(z) * _rep.build_generator("K-", n_max, alg)
    )
    if params.alpha_coeff != 0:
        a = params.alpha(alg)
        gen = gen + a * _rep.build_generator("V+", n_max, alg)
        gen = gen + (-1j * a.conj()) * _rep.build_generator("W-", n_max, alg)
    out = _rep.operator_exp(gen)
    out.name = "D'"
    return out


def disk_parameter(zeta: complex) -> complex:
    """Disk coordinate reached by the group parameter zeta of the displacement.

    The lowest-weight orbit map sends exp(zeta K+ - conj(zeta) K-) to the
    series state at tanh(|zeta|) * zeta/|zeta|.
    """
    r = abs(zeta)
    if r == 0.0:
        return 0j
    return complex(np.tanh(r) * zeta / r)


def berezin_symbol(
    op, params: CoherentParams, algebra=None, tail_tol: float = 1e-7
) -> GrassmannElement:
    """Covariant symbol (Psi | op Psi) / (Psi | Psi) over the series state.

    The state is built at the operator's truncation; symbol errors scale with
    the square of the series tail, so tail_tol = 1e-7 keeps symbols well below
    1e-8 defect.
    """
    alg = algebra or default_algebra()
    state = series_state(params, op.n_max, alg, tail_tol=tail_tol)
    num = state.super_inner(op.apply(state))
    den = state.super_inner(state)
    return num * den.power(-1.0)


def calibrate_convention(z: complex, algebra=None, tol: float = 1e-8) -> str:
    """Resolve the bra-labeling ambiguity of the symbols on K+.

    Returns "identity" when the computed symbol body follows z, "conjugate"
    when it follows conj(z).  Requires a non-real z (the two candidates
    coincide otherwise); with this representation the answer is "conjugate".
    """
    z = complex(z)
    if not 0.0 < abs(z) < 0.9:
        raise ValueError("calibration needs 0 < |z| < 0.9")
    if abs(z.imag) < 1e-9 * max(1.0, abs(z)):
        raise ValueError("calibration requires a non-real z")
    alg = algebra or default_algebra()
    params = CoherentParams(z)
    n = max(48, series_length_for(z, 1e-9))
    kplus = _rep.build_generator("K+", n, alg)
    body = berezin_symbol(kplus, params, alg).body
    denom = 2.0 * (1.0 - abs(z) ** 2)
    if abs(body - z / denom) < tol:
        return "identity"
    if abs(body - np.conjugate(z) / denom) < tol:
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
    alg = algebra or default_algebra()
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

    k_alpha = alg.one() + (1j / one_m) * (Abar * A)
    if name == "I":
        return alg.one()
    if name == "K0":
        return (0.25 * (1.0 + rho) / one_m) * k_alpha
    if name == "K+":
        return (zeta / (2.0 * one_m)) * k_alpha
    if name == "K-":
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


def trajectory(
    params: CoherentParams, t: float, algebra=None, n_max: int | None = None, spec=None
) -> dict:
    """Odd-sector expectations at time t plus the even-sector quadrature means.

    Returns the symbols of p*theta and x*theta (Grassmann elements supported
    on conj(alpha)), the closed-form line parameters (x0, p0), and
    <x>, <p> evaluated by quadrature on psi_z and phi_z separately.
    """
    alg = algebra or default_algebra()
    n = n_max or max(64, series_length_for(params.z, 1e-7))
    p_theta = _rep.ptheta_operator(n, alg)
    x_theta = _rep.xtheta_operator(n, t, alg)
    s_p = berezin_symbol(p_theta, params, alg)
    s_x = berezin_symbol(x_theta, params, alg)
    x0, p0 = trajectory_closed_form(params)

    cf = ClosedFormState(params, alg)
    spec = spec or _basis.QuadratureSpec()
    spec = replace(spec, scale=quad_scale(params.z, t))
    psi = lambda x: cf.psi(x, t)
    phi = lambda x: cf.phi(x, t)
    dpsi = lambda x: cf.dpsi(x, t)
    dphi = lambda x: cf.dphi(x, t)
    norm_psi = _basis.quad_inner(psi, psi, t, spec).real
    norm_phi = _basis.quad_inner(phi, phi, t, spec).real
    x_psi = lambda x: x * psi(x)
    x_phi = lambda x: x * phi(x)
    mean_x_psi = _basis.quad_inner(psi, x_psi, t, spec) / norm_psi
    mean_x_phi = _basis.quad_inner(phi, x_phi, t, spec) / norm_phi
    mean_p_psi = _basis.quad_inner(psi, lambda x: -1j * dpsi(x), t, spec) / norm_psi
    mean_p_phi = _basis.quad_inner(phi, lambda x: -1j * dphi(x), t, spec) / norm_phi

    return {
        "t": float(t),
        "p_theta": s_p,
        "x_theta": s_x,
        "x0": x0,
        "p0": p0,
        "mean_x_psi": complex(mean_x_psi),
        "mean_x_phi": complex(mean_x_phi),
        "mean_p_psi": complex(mean_p_psi),
        "mean_p_phi": complex(mean_p_phi),
        "norm_psi": float(norm_psi),
        "norm_phi": float(norm_phi),
    }
