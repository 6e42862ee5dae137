"""Solution basis of the free 1-d equation ``i f_t = -f_xx`` and its ladder structure.

The m-th basis function chi_m is a probabilists'-Hermite wave packet whose
complex width evolves through 1 + i t:

    chi_m(x, t) = (-i)^m [m! sqrt(2 pi) (1 + i t)]^{-1/2}
                  * exp(-i m arctan t - x^2 / (4 + 4 i t)) * He_m(x / sqrt(1 + t^2))

with He_m(z) = 2^{-m/2} H_m(z / sqrt(2)).  The basis is orthonormal at every t.
One private kernel, on the rows He_k / sqrt(k!) of ``_hermite_rows``, feeds
``eval_chi``, ``eval_chi_derivatives`` and ``chi_matrix`` over broadcastable
x and t; the ``basis.hermite`` check reads those rows.  ``schrodinger_residual``
calls its state once on all stencils, so a state must broadcast over x and t.
Ladder coefficients are frozen as a+ chi_m = (1/2) sqrt(m+1) chi_{m+1} and
a- chi_m = (1/2) sqrt(m) chi_{m-1}; the test suite re-derives them from the
quadrature matrix elements of the first-order operators
a+- = (1/2)(i d/dx +- (t d/dx - i x/2)).

Every inner product is one Gauss-Hermite sum on the rescaled variable
x = scale * u (scale defaults to sqrt(2 (1 + t^2)), matching the squared
envelope of the basis); the rule comes from numpy's ``hermgauss``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .config import MAX_NODES

__all__ = [
    "QuadratureSpec",
    "SYMMETRY_OPERATORS",
    "hermite_he_scale",
    "eval_chi",
    "eval_chi_derivatives",
    "chi_evaluator",
    "chi_matrix",
    "quad_grid",
    "quad_inner",
    "gram_matrix",
    "project_onto_modes",
    "ladder_coefficient",
    "apply_ladder",
    "ladder_pointwise",
    "symmetric_ladder_pointwise",
    "apply_symmetry_op",
    "schrodinger_residual",
]

_ROOT4_2PI = (2.0 * np.pi) ** 0.25
_I_POWERS = np.array((1, -1j, -1, 1j))  # (-i)^m for m mod 4


def _mode_index(m) -> int:
    m = int(m)
    if m < 0:
        raise ValueError("mode index must be nonnegative")
    return m


def _mode_array(m) -> np.ndarray:
    """An array of modes as ints, each truncated as ``_mode_index`` truncates one."""
    m = np.asarray(m).astype(int)
    if (m < 0).any():
        raise ValueError("mode index must be nonnegative")
    return m


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite rule: node count and the scale of x = scale * u.

    The rule is exact (to round-off) for integrands of the form
    polynomial * exp(-x^2/scale^2); a basis-function product of top mode M
    needs nodes >= M + 1, so the default 200 covers modes well past 20.
    """

    nodes: int = 200
    scale: float | None = None        # default sqrt(2 (1 + t^2)) at call time

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("need at least two quadrature nodes")
        if self.nodes > MAX_NODES:
            raise ValueError("node count too large for stable Gauss-Hermite weights")


@lru_cache(maxsize=32)
def _hermite_rule(n: int):
    u, w = hermgauss(n)
    return u, np.log(w)


def _default_scale(t: float) -> float:
    return float(np.sqrt(2.0 * (1.0 + t * t)))


def quad_grid(t: float = 0.0, spec: QuadratureSpec | None = None):
    """Nodes and total weights so that ``sum(w * F(x))`` approximates ``int F dx``."""
    spec = spec or QuadratureSpec()
    u, logw = _hermite_rule(spec.nodes)
    c = spec.scale if spec.scale is not None else _default_scale(t)
    x = c * u
    w = np.exp(logw + u * u + np.log(c))
    return x, w


def hermite_he_scale(n: int, z):
    """The recurrence He_{k+1} = z He_k - k He_{k-1} run on |z| with every term added.

    He_{k+1} = |z| He_k + k He_{k-1} bounds the magnitudes the signed recurrence
    meets, so the rounding error of ``_hermite_rows`` times sqrt(n!) is a small
    multiple of machine epsilon times this scale (Gautschi, SIAM Review 9 (1967) 24);
    max(1, |He_n|) is no such bound where the terms cancel.
    """
    n = int(n)
    if n < 0:
        raise ValueError("Hermite degree must be nonnegative")
    z = np.abs(np.asarray(z, dtype=float))
    h0, h1 = 0.0, np.ones_like(z)
    for k in range(n):
        h0, h1 = h1, z * h1 + k * h0
    return float(h1) if z.ndim == 0 else h1


def _hermite_rows(z, size: int) -> list:
    """He_k(z) / sqrt(k!) for k < size, by the normalized recurrence, bounded where He_k overflows:
    Python floats at a 0-d z, which round as numpy float64 scalars do, else arrays formed in place."""
    root = np.sqrt(np.arange(size)).tolist()
    scalar = np.ndim(z) == 0
    z = float(z) if scalar else np.asarray(z, dtype=float)
    H = ([1.0, z] if scalar else [np.ones_like(z), z])[:size]
    for k in range(1, size - 1):
        h = z * H[k]
        h -= root[k] * H[k - 1]
        h /= root[k + 1]
        H.append(h)
    return H


def _packets(rows, x, t):
    """chi_m(x, t) for each m in rows, stacked along a new leading axis.

    ``rows`` is a sequence or an array of ints, and no rows give an empty stack.  One run of
    ``_hermite_rows`` up to max(rows); x and t broadcast against each other.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    one_it = 1.0 + 1j * t
    z = x / np.sqrt(1.0 + t * t)
    if not len(rows):
        return np.empty((0,) + z.shape, dtype=complex)
    scalar = z.ndim == 0
    angle = np.arctan(t)
    env = np.exp(-x * x / (4.0 * one_it)) / (_ROOT4_2PI * np.sqrt(one_it))
    # each element is ((-i)^m e^{-i m angle}) env He_m, whatever other rows are requested
    if scalar or len(rows) <= 3:
        # row by row for eval_chi and eval_chi_derivatives, where one broadcast costs more than
        # three rows; at a single point this keeps numpy scalar arithmetic, which rounds a
        # complex product without the fused multiply-add of the array loops
        H = _hermite_rows(z, max(rows) + 1)
        return np.array([(_I_POWERS[m % 4] * np.exp(-1j * m * angle)) * env * H[m] for m in rows])
    rows = np.array(rows)
    H = _hermite_rows(z, rows.max() + 1)
    m = rows.reshape((-1,) + (1,) * z.ndim)
    return (_I_POWERS[m % 4] * np.exp(-1j * m * angle)) * env * np.array(H)[rows]


def eval_chi(m, x, t):
    """Value of chi_m(x, t); principal branches throughout."""
    val = _packets([_mode_index(m)], x, t)[0]
    return complex(val) if val.ndim == 0 else val


def eval_chi_derivatives(m, x, t):
    """(chi_m, d/dx chi_m, d2/dx2 chi_m) from rows m, m-1 and m-2 of the kernel.

    He'_n = n He_{n-1} gives d/dx chi_m = -x chi_m / (2 (1 + i t)) - i sqrt(m)
    chi_{m-1} / (1 + i t); cross-checked against finite differences in the tests.

    ``m`` may be an array of modes, as in ``ladder_coefficient``: one kernel call over
    modes 0..max(m) then serves them all, and each value has shape m.shape + the
    broadcast shape of x and t.  Where x or t is an array, the entry for mode m equals
    the call with that mode bit for bit.  An int mode at a 0-d point keeps the scalar
    path and returns Python complexes; an array of modes there rounds as array
    arithmetic, which may differ from it in the last bit.
    """
    if np.ndim(m):
        m = _mode_array(m)
        kernel = _packets(range(m.max(initial=-1) + 1), x, t)
        v, v1, v2 = (kernel[np.maximum(m - k, 0)] for k in range(3))
        m = m.reshape(m.shape + (1,) * (v.ndim - m.ndim))
    else:
        m = _mode_index(m)
        v, v1, v2 = _packets([m, max(m - 1, 0), max(m - 2, 0)], x, t)
    one_it = 1.0 + 1j * np.asarray(t, dtype=float)
    g1 = -np.asarray(x, dtype=float) / (2.0 * one_it)
    down = -1j / one_it
    r1 = down * (np.sqrt(m) * v1)
    r2 = down * (down * (np.sqrt(m * (m - 1)) * v2))
    d1 = g1 * v + r1
    d2 = (g1 * g1 - 0.5 / one_it) * v + 2.0 * g1 * r1 + r2
    if v.ndim == 0:
        return complex(v), complex(d1), complex(d2)
    return v, d1, d2


def chi_evaluator(m, t):
    """x-evaluator for a fixed mode and time."""
    m = _mode_index(m)
    return lambda x: eval_chi(m, x, t)


def chi_matrix(modes, x, t):
    """Array of chi_m(x, t) values, one row per requested mode, the modes read by ``_mode_array``."""
    return _packets(_mode_array(modes), np.atleast_1d(x), t)


def quad_inner(f, g, t: float = 0.0, spec: QuadratureSpec | None = None) -> complex:
    """Inner product ``int conj(f(x)) g(x) dx`` by quadrature.

    f and g must accept numpy arrays and decay like Gaussians; pass an explicit
    ``spec.scale`` when the envelope differs from the basis one.
    """
    x, w = quad_grid(t, spec)
    return complex(np.sum(w * np.conjugate(f(x)) * g(x)))


def gram_matrix(modes, t: float = 0.0, spec: QuadratureSpec | None = None):
    """Quadrature Gram matrix of the requested modes at time t."""
    x, w = quad_grid(t, spec)
    V = chi_matrix(modes, x, t)
    return (V.conj() * w) @ V.T


def project_onto_modes(f, modes, t: float = 0.0, spec: QuadratureSpec | None = None):
    """Quadrature coefficients <chi_m | f> for each requested mode."""
    x, w = quad_grid(t, spec)
    V = chi_matrix(modes, x, t)
    return V.conj() @ (w * f(x))


# -- ladder structure ---------------------------------------------------------


def _ladder_plus(sign) -> bool:
    if sign not in ("+", "-"):
        raise ValueError(f"ladder sign must be '+' or '-', got {sign!r}")
    return sign == "+"


def ladder_coefficient(sign, m):
    """Frozen ladder coefficient: (1/2) sqrt(m+1) raising (sign "+"), (1/2) sqrt(m) lowering ("-").

    ``m`` may be an array of modes, each truncated to an integer as a single mode
    is; the result is then the array of their coefficients.
    """
    m = _mode_array(m) if np.ndim(m) else _mode_index(m)
    return 0.5 * np.sqrt(m + 1) if _ladder_plus(sign) else 0.5 * np.sqrt(m)


def apply_ladder(sign, m):
    """(coefficient, target mode) for a+- chi_m; (0.0, None) when annihilated."""
    m = _mode_index(m)
    if _ladder_plus(sign):
        return ladder_coefficient(sign, m), m + 1
    if m == 0:
        return 0.0, None
    return ladder_coefficient(sign, m), m - 1


def ladder_pointwise(sign, m, x, t):
    """a+- chi_m applied as a first-order differential operator.

    a+- = (1/2)(i K_{-1} -+ K_1) with K_1 = -t d/dx + i x/2 and K_{-1} = d/dx.
    """
    s = 1.0 if _ladder_plus(sign) else -1.0
    v, d1, _ = eval_chi_derivatives(m, x, t)
    x = np.asarray(x, dtype=float)
    out = 0.5 * (1j + s * t) * d1 - s * 0.25j * x * v
    return complex(out) if np.ndim(out) == 0 else out


def symmetric_ladder_pointwise(m, x, t):
    """(a+ a- + a- a+) chi_m as a second-order differential operator.

    Diagonal with eigenvalue m/2 + 1/4 on the basis; used as the independent
    route for the sector weights 1/4 and 3/4.
    """
    v, d1, d2 = eval_chi_derivatives(m, x, t)
    x = np.asarray(x, dtype=float)

    def compose(s1, s2):
        g = 0.5 * (1j + s1 * t) * d1 - s1 * 0.25j * x * v
        gp = 0.5 * (1j + s1 * t) * d2 - s1 * 0.25j * (v + x * d1)
        return 0.5 * (1j + s2 * t) * gp - s2 * 0.25j * x * g

    out = compose(-1.0, +1.0) + compose(+1.0, -1.0)
    return complex(out) if np.ndim(out) == 0 else out


SYMMETRY_OPERATORS = ("K2", "K1", "K0c", "Km1", "Km2", "K0")


def apply_symmetry_op(name: str, m, x, t):
    """Pointwise action of a first-layer symmetry operator on chi_m.

    Time derivatives are eliminated through the on-shell identity
    d/dt = i d2/dx2.  "K0c" is multiplication by the constant i; "K0" is the
    dilation-type operator x d/dx + 2 t d/dt + 1/2.
    """
    v, d1, d2 = eval_chi_derivatives(m, x, t)
    x = np.asarray(x, dtype=float)
    if name == "K2":
        out = -t * t * (1j * d2) - t * x * d1 - 0.5 * t * v + 0.25j * x * x * v
    elif name == "K1":
        out = -t * d1 + 0.5j * x * v
    elif name == "K0c":
        out = 1j * v
    elif name == "Km1":
        out = d1
    elif name == "Km2":
        out = 1j * d2
    elif name == "K0":
        out = x * d1 + 2.0 * t * (1j * d2) + 0.5 * v
    else:
        raise ValueError(f"unknown symmetry operator {name!r}")
    return complex(out) if np.ndim(out) == 0 else out


def schrodinger_residual(state, x, t, hx: float = 1e-3, ht: float = 1e-4) -> float:
    """Largest |i f_t + f_xx| / max sampled |f| over broadcastable sample points.

    ``state`` must broadcast over arrays of x and t: it is called once, on the
    4th-order central stencils of all points (x, t).  Each point is normalized
    by the largest magnitude among its nine values, so isolated zeros of the
    state do not blow up the ratio.  The default t-step is finer than the
    x-step: focusing packets (small sigma + i t) have large fifth t-derivatives.
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    if np.any(x + 2.0 * hx == x) or np.any(t + 2.0 * ht == t):
        raise ValueError("finite-difference step underflow")
    k = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]).reshape((5,) + (1,) * x.ndim)
    xs = np.concatenate([np.broadcast_to(x, (5,) + x.shape), x + k[[0, 1, 3, 4]] * hx])
    ts = np.concatenate([t + k * ht, np.broadcast_to(t, (4,) + t.shape)])
    f = np.asarray(state(xs, ts), dtype=complex)
    ft, fx = f[:5], f[5:]
    dfdt = (ft[0] - 8.0 * ft[1] + 8.0 * ft[3] - ft[4]) / (12.0 * ht)
    d2fdx2 = (-fx[0] + 16.0 * fx[1] - 30.0 * ft[2] + 16.0 * fx[2] - fx[3]) / (12.0 * hx * hx)
    scale = np.maximum(np.abs(f).max(axis=0), 1e-30)
    return float((np.abs(1j * dfdt + d2fdx2) / scale).max())
