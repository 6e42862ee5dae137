"""Demo: the truncated Hilbert superspace and its super-Hermitian form.

The even sector carries the plain L2 product, the odd sector the weight i,
and Grassmann scalars move through the form with a parity sign.  theta and
theta_bar are superspace coordinates (Psi_n^1 = theta phi_n), so scalars,
like the vectors' coefficients, are elements of the algebra on the other
generators, ``coefficient_algebra(alg)``.  The fast
orthonormality-based formula is cross-checked against the independent
Berezin-plus-quadrature integral of the full super integrand.
Run with:  python3 demos/03_hilbert_superspace.py
"""

import numpy as np

from osp22 import SuperVector, default_algebra, random_supervector, super_inner_integral
from osp22.superspace import coefficient_algebra

alg = default_algebra()
alpha = coefficient_algebra(alg).gen("alpha")

vac = SuperVector.basis_state(0, 0, 6, alg)
odd0 = SuperVector.basis_state(1, 0, 6, alg)

print("== sector weights ==")
print("(Psi_0^0 | Psi_0^0) =", vac.super_inner(vac))
print("(Psi_0^1 | Psi_0^1) =", odd0.super_inner(odd0), "  (odd sector weight i)")
print("(Psi_0^0 | Psi_0^1) =", vac.super_inner(odd0), " (sectors orthogonal)")
print()

print("== Grassmann scalars move through the form with a sign ==")
v = alpha * odd0
print("(alpha Psi_0^1 | alpha Psi_0^1) =", v.super_inner(v))
print("  equals -i conj(alpha) alpha  =", -1j * (alpha.conj() * alpha))
print()

print("== norms discard nilpotent parts ==")
mixed = vac + odd0
print("|Psi_0^0 + Psi_0^1|^2 =", mixed.norm() ** 2)
print()

print("== fast form vs the direct super-integral oracle ==")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(25):
    v1 = random_supervector(6, rng, alg)
    v2 = random_supervector(6, rng, alg)
    fast = v1.super_inner(v2)
    oracle = super_inner_integral(v1, v2, t=0.5)
    worst = max(worst, (fast - oracle).max_abs())
print(f"max disagreement over 25 random pairs at t = 0.5: {worst:.2e}")
