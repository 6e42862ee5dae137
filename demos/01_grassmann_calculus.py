"""Demo: the exterior (Grassmann) algebra layer.

Walks through products, the order-preserving conjugation, parity, and
Berezin integration with the pair normalization used throughout the package.
Run with:  python3 demos/01_grassmann_calculus.py
"""

import numpy as np

from osp22 import default_algebra, random_element

alg = default_algebra()
theta, theta_bar = alg.gen("theta"), alg.gen("theta_bar")
alpha, alpha_bar = alg.gen("alpha"), alg.gen("alpha_bar")

print("generators:", ", ".join(alg.generators))
print()

print("== products and nilpotency ==")
print("theta * theta              =", theta * theta)
print("theta_bar * theta          =", theta_bar * theta, "   (reordered with a sign)")
print("(1 + theta)(1 + theta_bar) =", (1 + theta) * (1 + theta_bar))
print()

print("== conjugation (order preserving: conj(ab) = conj(a) conj(b)) ==")
print("conj(theta_bar)        =", theta_bar.conj())
elem = 1j * (alpha_bar * alpha)
print("conj(i alpha_bar alpha) =", elem.conj(), "  (self-conjugate)")
prod = (theta + 2 * alpha) * (1 - 1j * theta_bar)
print("conj(ab) - conj(a)conj(b) =", (prod.conj() - (theta + 2 * alpha).conj() * (1 - 1j * theta_bar).conj()))
print()

print("== Berezin integration, innermost differential first ==")
print("int theta_bar theta d(theta) d(theta_bar) =", (theta_bar * theta).berezin(("theta", "theta_bar")))
print("int 1 d(theta) d(theta_bar)               =", alg.one().berezin(("theta", "theta_bar")))
mixed = 3.5 * (theta_bar * theta) + (2 + 1j) * theta
print("int (3.5 tb t + (2+i) t)                  =", mixed.berezin(("theta", "theta_bar")))
print()

print("== parity grading (0 even, 1 odd) ==")
for name, e in [("theta*theta_bar", theta * theta_bar), ("alpha", alpha)]:
    print(f"parity({name}) = {e.parity_bit}")
try:
    (1 + theta).parity_bit
except ValueError as err:
    print(f"parity(1 + theta): mixed, {err}")
print()

print("== randomized axioms ==")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    a, bb, c = (random_element(alg, rng) for _ in range(3))
    left = (a * bb) * c
    worst = max(worst, (left - a * (bb * c)).max_abs() / max(1.0, left.max_abs()))
print(f"relative associativity defect over 200 random triples: {worst:.2e}")
