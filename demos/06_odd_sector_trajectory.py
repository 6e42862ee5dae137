"""Demo: the particle is at rest in the even sector and moves on a straight
line in the odd sector.

<x> and <p> vanish on both wave-function components by parity, while the odd
observables x*theta and p*theta have symbols (2 p0 t + x0) conj(alpha) and
p0 conj(alpha).  The symbols are elements of the algebra on (alpha,
alpha_bar), the one algebra of superspace scalars, and are read through
their conj(alpha) = alpha_bar coefficient.  Also demonstrates the
superisometric displacement operator.
Run with:  python3 demos/06_odd_sector_trajectory.py
"""

import numpy as np

from osp22 import (
    CoherentParams,
    default_algebra,
    disk_parameter,
    displacement_operator,
    series_state,
    trajectory,
    trajectory_closed_form,
)
from osp22.superspace import SuperVector, random_supervector

alg = default_algebra()
params = CoherentParams(0.3, alpha_coeff=0.8 - 0.3j)
x0, p0 = trajectory_closed_form(params)
print(f"closed-form line parameters: x0 = {x0}, p0 = {p0}")
print()

print("t    <x theta>/conj(alpha)             <p theta>/conj(alpha)        <x>, <p>")
abar = np.conjugate(params.alpha_coeff)
for t in (0.0, 1.0, 2.0, 3.0):
    rec = trajectory(params, t, alg)
    xth = rec["x_theta"].coeff("alpha_bar") / abar
    pth = rec["p_theta"].coeff("alpha_bar") / abar
    rest = max(abs(rec["mean_x_psi"]), abs(rec["mean_p_psi"]))
    print(f"{t:3}  {xth:.12f}   {pth:.12f}   {rest:.1e}")
print()
print(f"straight line check: slope/2 = {p0}, so x(t) = x0 + 2 p0 t exactly")
print()

print("== the displacement operator is a superisometry ==")
n = 48
d = displacement_operator(CoherentParams(0.25, 0.5 - 0.5j), n, alg)
rng = np.random.default_rng(2)
worst = 0.0
for _ in range(4):
    v1 = random_supervector(n, rng, alg, support=7)
    v2 = random_supervector(n, rng, alg, support=7)
    worst = max(worst, (d.apply(v1).super_inner(d.apply(v2)) - v1.super_inner(v2)).max_abs())
print(f"max |(D'v1|D'v2) - (v1|v2)| over random pairs: {worst:.2e}")
print()

print("== displaced vacuum lands on the disk at the tanh-mapped coordinate ==")
zeta = 0.3
d0 = displacement_operator(CoherentParams(zeta), 64, alg)
vac = SuperVector.basis_state(0, 0, 64, alg)
w = disk_parameter(zeta)
ref = series_state(CoherentParams(w), 64, alg, tail_tol=1e-10)
overlap = ref.super_inner(d0.apply(vac))
print(f"group parameter zeta = {zeta} maps to disk coordinate w = {w:.6f}")
print(f"|<series(w) | D'(zeta) vacuum>| = {abs(overlap.body):.12f}")
