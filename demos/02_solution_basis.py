"""Demo: the free-particle solution basis and its ladder structure.

Shows that the Hermite wave packets chi_m stay orthonormal while they evolve,
that the first-order ladder operators act with the frozen coefficients
(1/2) sqrt(m+1) and (1/2) sqrt(m), and that every basis function passes the
equation-residual gate.
Run with:  python3 demos/02_solution_basis.py
"""

import numpy as np

from osp22 import basis as b

print("== values ==")
print("chi_0(0, 0)      =", b.eval_chi(0, 0.0, 0.0), " (equals (2 pi)^(-1/4))")
print("chi_1(0, t)      =", b.eval_chi(1, 0.0, 1.7), " (odd function)")
# chi_m(x, 0) = (-i)^m (2 pi)^(-1/4) exp(-x^2/4) He_m(x)/sqrt(m!): the normalized Hermite row
row = -1j * b.eval_chi(3, 2.0, 0.0) * (2.0 * np.pi) ** 0.25 * np.exp(1.0)
print("He_3(2)/sqrt(3!) =", row.real, f" (read off chi_3(2, 0); 2/sqrt(6) = {2.0 / np.sqrt(6.0)})")
print()

print("== orthonormality is time independent ==")
for t in (0.0, 0.5, 2.0):
    G = b.gram_matrix(range(21), t)
    print(f"t = {t:3}:  max |<chi_m|chi_n> - delta| = {np.abs(G - np.eye(21)).max():.2e}")
print()

print("== ladder coefficients re-derived by quadrature ==")
for m in (0, 1, 5):
    for sign in ("+", "-"):
        coeff, target = b.apply_ladder(sign, m)
        if target is None:
            print(f"a{sign} chi_{m} = 0 (annihilated)")
            continue
        av = lambda x: b.ladder_pointwise(sign, m, x, 0.0)
        got = b.quad_inner(b.chi_evaluator(target, 0.0), av, 0.0)
        print(f"a{sign} chi_{m} -> chi_{target}: frozen {coeff:.6f}, quadrature {got.real:.6f}")
print()

print("== the diagonal bilinear a+a- + a-a+ gives the sector weights ==")
for m in (0, 1, 2, 3):
    got = b.quad_inner(
        b.chi_evaluator(m, 0.0), lambda x: b.symmetric_ladder_pointwise(m, x, 0.0), 0.0
    )
    print(f"mode {m}: eigenvalue {got.real:.6f}  (m/2 + 1/4 = {0.5 * m + 0.25})")
print()

print("== equation residuals ==")
print("chi_5  at (1.3, 0.7):      ", b.schrodinger_residual(lambda x, t: b.eval_chi(5, x, t), 1.3, 0.7))
print("exp(-x^2) at (1, 0), a non-solution:", b.schrodinger_residual(lambda x, t: np.exp(-x * x), 1.0, 0.0))
