"""Finite-dimensional complex exterior algebra with Berezin integration.

The algebra is generated by a fixed ordered list of g anticommuting symbols,
by default (theta, theta_bar, alpha, alpha_bar), extensible with the pair
(xi, xi_bar).  An element is a dense complex array of length 2^g indexed by
monomial mask: bit k of the mask is set when generator k is a factor, and the
monomial is taken in canonical (ascending) generator order.  Mask 0 is the
body.  Only this module and ``osp22.superspace`` know that layout; the latter
holds every superspace scalar over the algebra without theta, theta_bar, and
meets theta only in its integral oracle, where scalar mask m is mask 4 m.

Every sign comes from a ``ProductPlan``, built once per generator set (the
precomputed-table approach of the ``clifford`` package,
https://github.com/pygae/clifford): the disjoint mask pairs (a, b), their
targets a|b and their exact +-1 signs.  A product gathers the pair
coefficients, forms the real and imaginary parts as separate float
products and accumulates them per target in a fixed order that mirrors
under conjugation (see ``ProductPlan``).  Conjugation and Berezin
integration are signed index permutations.  Every plan operation acts on
arrays of shape (..., 2^g), so a batch of products costs one call.

Two conventions are hard-wired:

* conjugation swaps each generator with its partner and conjugates the
  coefficient WITHOUT reversing factor order, so
  ``conj(a * b) == conj(a) * conj(b)`` for all a, b;
* the Berezin integral is normalized so that the only nonvanishing pair
  integral is ``int theta_bar*theta d(theta) d(theta_bar) = 1``, applied
  innermost differential first, and identically for each conjugate pair.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GENERATORS_DEFAULT",
    "GENERATORS_EXTENDED",
    "AlgebraMismatchError",
    "GrassmannAlgebra",
    "GrassmannElement",
    "ProductPlan",
    "default_algebra",
    "random_coefficients",
    "random_element",
]

GENERATORS_DEFAULT = ("theta", "theta_bar", "alpha", "alpha_bar")
GENERATORS_EXTENDED = GENERATORS_DEFAULT + ("xi", "xi_bar")

_SCALAR_TYPES = (int, float, complex, np.integer, np.floating, np.complexfloating)


class AlgebraMismatchError(ValueError):
    """Two elements over different generator sets were combined."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _abs(x: np.ndarray) -> np.ndarray:
    """Modulus through hypot, which rounds exactly as Python's abs(complex)."""
    return np.hypot(x.real, x.imag)


def _cmul(a, b) -> np.ndarray:
    """a * b, broadcast, with the real and imaginary parts formed as separate float products,
    the difference and the sum in place: each entry rounds as Python's complex product, and a
    real array multiplies as (x, 0.0).  A plain complex multiply of arrays may fuse a multiply-add."""
    a, b = np.asarray(a), np.asarray(b)
    re, im = a.real * b.real, a.real * b.imag
    re -= a.imag * b.imag
    im += a.imag * b.real
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _row_bincount(bins, weights, size: int) -> np.ndarray:
    """Per-row ``np.bincount(bins, row, size)`` of ``weights`` (..., len(bins)), as one bincount
    whose row r bins are offset by r * size; each bin sums in the order a per-row call would."""
    lead = weights.shape[:-1]
    rows = weights.size // bins.size
    if rows != 1:
        bins = (bins + size * np.arange(rows)[:, None]).ravel()
    return np.bincount(bins, weights.reshape(-1), size * rows).reshape(lead + (size,))


class ProductPlan:
    """Exact sign tables of one generator set with its conjugation pairing.

    ``left``, ``right`` and ``sign`` list every disjoint mask pair (a, b) in
    summation order, and ``sector_mul`` reads the pairs whose a and b have
    given parities; ``join[a][b]`` is ``(a|b, sign)`` for a
    disjoint pair and None otherwise; ``parity[m]`` is the degree of mask m
    modulo 2; and ``conj_table[m]`` is ``(mask, sign)`` of the conjugate of
    monomial m.  Obtain plans through ``GrassmannAlgebra.plan``.

    Summation order: with P the conjugation map on masks, the terms of one
    target join the running sum in ascending order of min(a, P(a)), and a
    term whose partner P(a) is also a left mask of the same target is first
    added to the partner's term.  The order at a target is then the mirror
    of the order at its conjugate, so conj(x * y) == conj(x) * conj(y) holds
    bit for bit.  A plain ascending order would leave rounding-level
    differences there.
    """

    __slots__ = (
        "size",
        "parity",
        "parity_sign",
        "left",
        "right",
        "sign",
        "join",
        "conj_table",
        "_conj_perm",
        "_conj_sign",
        "_fills",
        "_full",
        "_sectors",
        "_targets",
        "_left_mul",
        "_integrals",
    )

    def __init__(self, pair):
        g = len(pair)
        size = 1 << g
        masks = np.arange(size)
        degree = np.zeros(size, dtype=np.int64)
        for k in range(g):
            degree += (masks >> k) & 1
        a = np.repeat(masks, size)
        b = np.tile(masks, size)
        keep = (a & b) == 0
        a, b = a[keep], b[keep]
        # merging ascending monomials a and b: each generator j of b passes
        # every generator of a above it
        swaps = np.zeros(a.size, dtype=np.int64)
        for j in range(g):
            swaps += ((b >> j) & 1) * degree[a >> (j + 1)]
        sign = 1 - 2 * (swaps & 1)
        target = a | b

        self.size = size
        self.parity = tuple(int(d) & 1 for d in degree)
        # complex signs, which multiply a complex array as the float ones would after their cast
        self.parity_sign = (1.0 - 2.0 * (degree & 1)).astype(complex)
        # the masks random_coefficients fills per parity, rows in _FILL_ROW order
        self._fills = np.array([masks >= 0, degree % 2 == 0, degree % 2 == 1])
        join = [[None] * size for _ in range(size)]
        for x, y, t, s in zip(a.tolist(), b.tolist(), target.tolist(), sign.tolist()):
            join[x][y] = (t, s)
        self.join = tuple(tuple(row) for row in join)

        self.conj_table = tuple(
            self.monomial([pair[k] for k in _bits(m)]) for m in range(size)
        )
        # conjugation is an involution, so its permutation is its own inverse and ``conj``
        # gathers through it: entry P(m) of the result is sign(m) conj(x[m])
        perm = np.array([m for m, _ in self.conj_table])
        self._conj_perm = perm
        self._conj_sign = np.array([complex(s) for _, s in self.conj_table])[perm]

        # classes of terms per target: a term and its conjugate partner, or a
        # term alone, keyed by min(a, P(a)) and summed in (target, key) order
        index = {(x, t): i for i, (x, t) in enumerate(zip(a.tolist(), target.tolist()))}
        classes = []
        for i, (x, t) in enumerate(zip(a.tolist(), target.tolist())):
            px = int(perm[x])
            j = index.get((px, t))
            if j is None or px == x:
                classes.append((t, min(x, px), i, -1))
            elif x < px:
                classes.append((t, x, i, j))
        classes.sort()
        class_target, _, first, partner = np.array(classes).T

        def table(keep):
            """(left, right, sign, class count, paired classes, bins) of the classes ``keep``:
            each class's first term in class order, then the partner terms of the paired
            classes, whose ascending index is a slice, which numpy reads as a view, where it is
            one run; interleaved (real, imag) bins so one bincount accumulates both parts."""
            paired = np.flatnonzero(partner[keep] >= 0)
            order = np.concatenate([first[keep], partner[keep][paired]])
            bins = (2 * class_target[keep][:, None] + np.arange(2)).ravel()
            lo = int(paired[0]) if paired.size else 0
            run = slice(lo, lo + paired.size) if np.array_equal(paired, lo + np.arange(paired.size)) else paired
            return a[order], b[order], sign[order].astype(float), int(keep.sum()), run, bins

        self._full = table(first >= 0)
        self.left, self.right, self.sign = self._full[:3]
        self._targets = self.left | self.right
        # conjugation preserves degree, so a class's terms share the parities of their factors
        odd = degree & 1
        self._sectors = {
            (pa, pb): table((odd[a[first]] == pa) & (odd[b[first]] == pb)) for pa in (0, 1) for pb in (0, 1)
        }

        self._left_mul = {}
        for x in range(size):
            sel = a == x
            self._left_mul[x] = (b[sel], target[sel], sign[sel].astype(float))
        self._integrals = []
        for k in range(g):
            bit = 1 << k
            src = masks[(masks & bit) != 0]
            after = degree[src >> (k + 1)]  # generators to the right of k
            self._integrals.append((src, src ^ bit, 1.0 - 2.0 * (after & 1)))

    def monomial(self, idx) -> tuple[int, int]:
        """(mask, sign) of the product of generators ``idx`` in that order; sign 0 if it vanishes."""
        mask, sign = 0, 1
        for k in idx:
            step = self.join[mask][1 << k]
            if step is None:
                return 0, 0
            mask, s = step
            sign *= s
        return mask, sign

    def _accumulate(self, terms, table) -> np.ndarray:
        """Sum terms (..., P, 2) of (real, imag), in the order of ``table``, into their targets."""
        c, paired, bins = table[3:]
        w = terms[..., :c, :]
        w[..., paired, :] += terms[..., c:, :]
        flat = _row_bincount(bins, w.reshape(w.shape[:-2] + (2 * c,)), 2 * self.size)
        return flat.view(complex)

    def _product(self, table, x, y) -> np.ndarray:
        """Product of coefficient arrays over the pairs of ``table``; see ``mul``."""
        left, right, sign = table[:3]
        a = x[..., left]
        b = y[..., right]
        shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
        terms = np.empty(shape + (2,))
        # sign * (p - q) rounds exactly as (sign * p) - (sign * q)
        terms[..., 0] = sign * (a.real * b.real - a.imag * b.imag)
        terms[..., 1] = sign * (a.real * b.imag + a.imag * b.real)
        return self._accumulate(terms, table)

    def mul(self, x, y) -> np.ndarray:
        """Exterior product of coefficient arrays (..., 2^g), broadcasting.

        Real and imaginary parts are separate float products: numpy's complex
        multiply may fuse a multiply-add, which rounds differently from
        Python's complex product.
        """
        return self._product(self._full, x, y)

    def sector_mul(self, x, y, pa: int, pb: int) -> np.ndarray:
        """``mul`` of x of parity pa by y of parity pb (0 even, 1 odd), over the pairs whose
        masks have those parities.  Every pair left out has an exact zero factor, and a bincount
        sum starts at +0.0 and never becomes -0.0, so adding those +-0 terms changes no bit:
        for finite homogeneous x and y this equals ``mul`` bit for bit."""
        return self._product(self._sectors[pa, pb], x, y)

    def sign_free_mul(self, x, y) -> np.ndarray:
        """sum over pairs of |x[..., a]| |y[..., b]| into mask a|b, broadcasting: a real bound on
        |x * y| and on the rounding of ``mul``, which |x * y| is not where its terms cancel."""
        w = _abs(x)[..., self.left] * _abs(y)[..., self.right]
        return _row_bincount(self._targets, w, self.size)

    def contract(self, gram) -> np.ndarray:
        """sum over pairs of sign * gram[..., a, b] into mask a|b.

        With gram[a, b] = sum_n x_n[a] y_n[b] this is sum_n x_n * y_n.  The signed entries are
        C-ordered, as a stacked gram's gather is not, so their float view is the (real, imag) terms.
        """
        w = np.multiply(self.sign, gram[..., self.left, self.right], order="C")
        return self._accumulate(w.view(float).reshape(w.shape + (2,)), self._full)

    def conj(self, x) -> np.ndarray:
        """Conjugation of coefficient arrays: a signed permutation of np.conj(x)."""
        return self._conj_sign * np.conj(x[..., self._conj_perm])

    def add_left_mul(self, mask: int, x, out) -> None:
        """out += the product of the unit monomial ``mask`` with each coefficient row of x, in place:
        only the columns the product reaches gain their term, the rest would gain +0.0."""
        src, dst, sign = self._left_mul[mask]
        out[..., dst] += sign * x[..., src]

    def parity_content(self, x) -> tuple:
        """(has even, has odd) per coefficient row of ``x`` (..., 2^g): whether a mask of that
        parity holds a nonzero coefficient."""
        nz = x != 0
        return np.any(nz & self._fills[1], axis=-1), np.any(nz & self._fills[2], axis=-1)

    def grade(self, x) -> np.ndarray:
        """Grade involution: odd monomials change sign."""
        return self.parity_sign * x

    def integrate(self, x, k: int) -> np.ndarray:
        """Berezin integral over generator k: d/d(gen k) acting from the right."""
        src, dst, sign = self._integrals[k]
        out = np.zeros(np.shape(x), dtype=complex)
        out[..., dst] = sign * x[..., src]
        return out


_PLANS: dict[tuple, ProductPlan] = {}


class GrassmannAlgebra:
    """Ordered generator set with a conjugation pairing.

    The canonical order is fixed for the lifetime of the instance; the pairing
    is derived from the ``_bar`` naming convention and must be an involution
    covering every generator.
    """

    __slots__ = ("generators", "index", "pair", "size", "_plan")

    def __init__(self, generators=GENERATORS_DEFAULT):
        names = tuple(generators)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        index = {name: k for k, name in enumerate(names)}
        pair = []
        for name in names:
            partner = name[:-4] if name.endswith("_bar") else name + "_bar"
            if partner not in index:
                raise ValueError(f"generator {name!r} has no conjugation partner")
            pair.append(index[partner])
        for k, p in enumerate(pair):
            if p == k or pair[p] != k:
                raise ValueError("conjugation pairing is not an involution")
        self.generators = names
        self.index = index
        self.pair = tuple(pair)
        self.size = 1 << len(names)  # monomials: the length of a coefficient array
        self._plan = None

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @property
    def plan(self) -> ProductPlan:
        """The product plan of this generator set, built once per process."""
        if self._plan is None:
            plan = _PLANS.get(self.pair)
            if plan is None:
                plan = _PLANS[self.pair] = ProductPlan(self.pair)
            self._plan = plan
        return self._plan

    def compatible(self, other: "GrassmannAlgebra") -> bool:
        return self is other or self.generators == other.generators

    def _mask_of(self, mono) -> tuple[int, int]:
        return self.plan.monomial([self.index[name] for name in mono])

    def berezin_coeffs(self, x, over) -> np.ndarray:
        """Iterated Berezin integral of coefficient arrays, innermost first."""
        for name in over:
            x = self.plan.integrate(x, self.index[name])
        return x

    def element(self, terms=None) -> "GrassmannElement":
        """Build an element from ``{monomial: coefficient}``.

        Monomials are tuples of generator names in any order (the permutation
        sign is applied) or a single generator name; ``()`` is the scalar slot.
        """
        data = [0j] * self.size
        for mono, coeff in (terms or {}).items():
            if isinstance(mono, str):
                mono = (mono,)
            mask, sign = self._mask_of(tuple(mono))
            if sign == 0:
                continue
            data[mask] = data[mask] + sign * complex(coeff)
        return GrassmannElement(self, data)

    def scalar(self, c) -> "GrassmannElement":
        data = np.zeros(self.size, dtype=complex)
        data[0] = c
        return GrassmannElement(self, data)

    def one(self) -> "GrassmannElement":
        return self.scalar(1.0)

    def zero(self) -> "GrassmannElement":
        return GrassmannElement(self, np.zeros(self.size, dtype=complex))

    def gen(self, name: str) -> "GrassmannElement":
        data = np.zeros(self.size, dtype=complex)
        data[1 << self.index[name]] = 1.0
        return GrassmannElement(self, data)

    def monomial_name(self, mask: int) -> str:
        return "*".join(self.generators[k] for k in _bits(mask)) or "1"

    def __repr__(self):
        return f"GrassmannAlgebra({', '.join(self.generators)})"


class GrassmannElement:
    """Element of the exterior algebra as a dense coefficient array; immutable.

    ``GrassmannElement(algebra, coeffs)`` takes the 2^g coefficients in mask
    order.  Arrays passed in or read through ``coeffs`` must not be mutated.
    """

    __slots__ = ("algebra", "_data")

    def __init__(self, algebra: GrassmannAlgebra, coeffs):
        data = np.asarray(coeffs, dtype=complex)
        if data.shape != (algebra.size,):
            raise ValueError(f"expected {algebra.size} coefficients, got shape {data.shape}")
        self._data = data
        self.algebra = algebra

    @property
    def coeffs(self) -> np.ndarray:
        """Coefficients in mask order (read-only by contract)."""
        return self._data

    def _new(self, data) -> "GrassmannElement":
        return GrassmannElement(self.algebra, data)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GrassmannElement):
            if not self.algebra.compatible(other.algebra):
                raise AlgebraMismatchError("elements belong to different algebras")
            return other
        if isinstance(other, _SCALAR_TYPES):
            return self.algebra.scalar(complex(other))
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(self._data + o._data)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self._data)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(self._data - o._data)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(o._data - self._data)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(self.algebra.plan.mul(self._data, o._data))

    def __rmul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self._new(_cmul(complex(other), self._data))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return (1.0 / complex(other)) * self
        if isinstance(other, GrassmannElement):
            return self * other.power(-1.0)
        return NotImplemented

    # -- involutions and grading --------------------------------------------

    def conj(self) -> "GrassmannElement":
        """Order-preserving conjugation: partners swapped in place, then re-sorted."""
        return self._new(self.algebra.plan.conj(self._data))

    def berezin(self, over) -> "GrassmannElement":
        """Iterated Berezin integral over the named generators, innermost first."""
        return self._new(self.algebra.berezin_coeffs(self._data, over))

    @property
    def parity_bit(self) -> int:
        """0 for an even element, zero included, 1 for an odd one; ValueError if mixed."""
        has_even, has_odd = self.algebra.plan.parity_content(self._data)
        if has_even and has_odd:
            raise ValueError("element is not homogeneous")
        return int(has_odd)

    @property
    def body(self) -> complex:
        return complex(self._data[0])

    def soul(self) -> "GrassmannElement":
        data = self._data.copy()
        data[0] = 0j
        return self._new(data)

    # -- analytic functions of even elements ---------------------------------

    def power(self, p: float) -> "GrassmannElement":
        """Principal-branch power of an even element with nonzero body.

        The nilpotent part feeds a binomial series that terminates because the
        soul of an even element has degree >= 2.
        """
        if self.parity_bit:
            raise ValueError("power requires an even element")
        b = self.body
        if b == 0:
            raise ZeroDivisionError("power requires a nonzero body")
        n = (self - b) * (1.0 / b)
        acc = self.algebra.one()
        term = self.algebra.one()
        coef = 1.0
        for k in range(1, self.algebra.n_generators // 2 + 1):
            coef *= (p - (k - 1)) / k
            term = term * n
            if not term._data.any():
                break
            acc = acc + coef * term
        return complex(b) ** p * acc

    # -- queries -------------------------------------------------------------

    def coeff(self, mono=()) -> complex:
        if isinstance(mono, str):
            mono = (mono,)
        mask, sign = self.algebra._mask_of(tuple(mono))
        if sign == 0:
            return 0j
        return sign * complex(self._data[mask])

    def terms(self):
        """Sorted list of (generator-name tuple, coefficient) over nonzero terms."""
        gens = self.algebra.generators
        return [
            (tuple(gens[k] for k in _bits(m)), complex(self._data[m]))
            for m in np.flatnonzero(self._data).tolist()
        ]

    def max_abs(self) -> float:
        return float(_abs(self._data).max())

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except AlgebraMismatchError:
            return False
        if o is None:
            return NotImplemented
        return bool(np.array_equal(self._data, o._data))

    __hash__ = None

    def __repr__(self):
        masks = np.flatnonzero(self._data).tolist()
        if not masks:
            return "<0>"
        parts = []
        for m in masks:
            c = complex(self._data[m])
            name = self.algebra.monomial_name(m)
            parts.append(f"({c:.6g})" if m == 0 else f"({c:.6g})*{name}")
        return " + ".join(parts)


_DEFAULT = GrassmannAlgebra()


def default_algebra() -> GrassmannAlgebra:
    """Shared four-generator algebra (theta, theta_bar, alpha, alpha_bar)."""
    return _DEFAULT


_FILL_ROW = {None: 0, 0: 1, 1: 2}


def random_coefficients(algebra, rng, count: int = 1, parity=None) -> np.ndarray:
    """(count, 2^g) iid complex-normal coefficients from one draw.

    ``parity`` is None, 0 (even) or 1 (odd) for every row, or a list or tuple
    of them with one entry per row; a row fills only the masks of its parity,
    and any other value raises KeyError.  The stream is the one a loop
    drawing ``standard_normal(2)`` per mask, in ascending mask order and row
    after row, would consume, so one call over several rows draws as
    consecutive calls over each.
    """
    if not isinstance(parity, (list, tuple)):
        parity = [parity] * count
    elif len(parity) != count:
        raise ValueError(f"expected {count} parities, one per row, got {len(parity)}")
    fill = algebra.plan._fills[[_FILL_ROW[p] for p in parity]]
    draws = rng.standard_normal(2 * int(np.count_nonzero(fill)))
    out = np.zeros((count, algebra.size), dtype=complex)
    out[fill] = (draws / np.sqrt(2.0)).view(complex)
    return out


def random_element(algebra, rng, parity=None) -> GrassmannElement:
    """Random element with iid complex-normal coefficients, homogeneous with ``parity`` 0 or 1."""
    return GrassmannElement(algebra, random_coefficients(algebra, rng, 1, parity)[0])
