"""Exact proof of the osp(2/2) commutator table from the generator stencils.

Every stencil coefficient is one expression in the source mode j.  Here it is
evaluated on a sympy symbol with the half exact, the stencils are composed
symbolically, and each relation of COMMUTATOR_TABLE, and the vanishing of
every unlisted pair, simplifies to zero at every mode j >= 0.  Truncation
only drops entries, so the matrices obey the same identities on interior
columns; the last tests tie the matrices to the stencils.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from osp22.representation import (
    _STENCILS,
    COMMUTATOR_TABLE,
    GENERATOR_NAMES,
    build_generator,
    generator_parity,
)

J = sympy.Symbol("j", positive=True, integer=True)
HALF = sympy.Rational(1, 2)
LISTED = {frozenset((a, c)) for a, c, _ in COMMUTATOR_TABLE}
UNLISTED = [
    (a, c, {})
    for i, a in enumerate(GENERATOR_NAMES)
    for c in GENERATOR_NAMES[i:]
    if frozenset((a, c)) not in LISTED
]
RELATIONS = [pytest.param(a, c, combo, id=f"{a},{c}") for a, c, combo in list(COMMUTATOR_TABLE) + UNLISTED]


def _compose(a, c):
    """Stencil of A C: C sends Psi_j^s to Psi_{j+dc}^m, A sends that to Psi_{j+dc+da}^t."""
    out = {}
    for ta, sa, da, fa in _STENCILS[a]:
        for tc, sc, dc, fc in _STENCILS[c]:
            if sa == tc:
                key = (ta, sc, da + dc)
                out[key] = out.get(key, 0) + fa(J + dc, HALF, sympy.sqrt) * fc(J, HALF, sympy.sqrt)
    return out


def _residual(a, c, combo):
    """[A, C] - sum of coeff * G over the combo, as {(target, source, shift): expression in j}."""
    sign = -1 if generator_parity(a) and generator_parity(c) else 1
    out = _compose(a, c)
    terms = [(key, -sign * value) for key, value in _compose(c, a).items()]
    for name, coeff in combo.items():
        terms += [((t, s, d), -sympy.Rational(coeff) * f(J, HALF, sympy.sqrt)) for t, s, d, f in _STENCILS[name]]
    for key, value in terms:
        out[key] = out.get(key, 0) + value
    return out


def _vanishes(expr) -> bool:
    """Zero at every mode: symbolically for j >= 1, by substitution at j = 0."""
    return sympy.simplify(expr) == 0 and sympy.simplify(expr.subs(J, 0)) == 0


def test_every_pair_is_covered():
    assert len(COMMUTATOR_TABLE) == 19
    assert len(LISTED) + len(UNLISTED) == len(GENERATOR_NAMES) * (len(GENERATOR_NAMES) + 1) // 2


@pytest.mark.parametrize("a, c, combo", RELATIONS)
def test_relation_holds_exactly(a, c, combo):
    residual = _residual(a, c, combo)
    assert {key: value for key, value in residual.items() if not _vanishes(value)} == {}


def test_dropped_entries_are_zero():
    """A lowering entry drops the sources below -shift; its coefficient is exactly 0 there."""
    for name in GENERATOR_NAMES:
        for _, _, shift, coeff in _STENCILS[name]:
            for j in range(-shift):
                assert coeff(sympy.Integer(j), HALF, sympy.sqrt) == 0


@pytest.mark.parametrize("name", GENERATOR_NAMES + ("I",))
def test_stencil_has_one_parity(name):
    assert {int(t != s) for t, s, _, _ in _STENCILS[name]} == {generator_parity(name)}


@pytest.mark.parametrize("name", GENERATOR_NAMES + ("I",))
def test_matrix_is_the_stencil(name):
    n = 33
    want = np.zeros((2 * n, 2 * n))
    for t, s, shift, coeff in _STENCILS[name]:
        for j in range(max(0, -shift), n - max(0, shift)):
            want[t * n + j + shift, s * n + j] = float(coeff(sympy.Integer(j), HALF, sympy.sqrt))
    got = build_generator(name, n).body
    assert np.array_equal(got != 0, want != 0)
    np.testing.assert_allclose(got, want, rtol=4e-16, atol=0)


def test_displacement_generators_share_one_stencil():
    """The displacement's odd generators V+ and W- are each one entry on diagonal 0, in
    transposed quadrants, with one coefficient: the one z-free S that ``_z_free_eigenbasis``
    reads from V+ serves both."""
    ((tv, sv, dv, fv),) = _STENCILS["V+"]
    ((tw, sw, dw, fw),) = _STENCILS["W-"]
    assert (tv, sv) == (sw, tw) == (1, 0) and dv == dw == 0
    assert _vanishes(fv(J, HALF, sympy.sqrt) - fw(J, HALF, sympy.sqrt))
