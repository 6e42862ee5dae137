"""Demo: supercoherent states by three independent routes.

The same state comes from (a) closed-form evaluators through the Cayley
image sigma = (1-z)/(1+z), (b) the normalized raising series
exp(z K+)(1 + alpha V+) on the vacuum, and (c) the half-integer-gamma disk
expansion; the demo shows their agreement, the exact nilpotent normalizer
cancellation, and the covariant symbols with the calibrated convention.
The demo passes the algebra with theta, theta_bar; since those are
superspace coordinates, the normalizer, the norm and every symbol come back
as elements of its coefficient algebra on (alpha, alpha_bar).
Run with:  python3 demos/05_supercoherent_states.py
"""

from osp22 import (
    CoherentParams,
    berezin_symbol,
    build_generator,
    calibrate_convention,
    closed_form,
    crosscheck,
    default_algebra,
    expected_symbol,
)

alg = default_algebra()
z = 0.5j
params = CoherentParams(z, alpha_coeff=1.0)

print(f"state parameters: z = {z}, alpha coefficient = {params.alpha_coeff}")
cf = closed_form(params)
print("Cayley image sigma =", cf.sigma)
print("nilpotent normalizer N =", cf.normalizer)
print("superspace scalars live in", cf.normalizer.algebra)
print()

print("== three routes ==")
report = crosscheck(params, t=1.0)
for key, val in report.items():
    print(f"  {key:<22} {val:.3e}" if isinstance(val, float) else f"  {key:<22} {val}")
print()

print("== exact unit super norm (nilpotent cancellation) ==")
print("closed-form (Psi|Psi) =", cf.norm_sq(t=1.0))
print()

print("== covariant symbols ==")
flag = calibrate_convention(0.3 + 0.25j, alg)
print("calibrated conjugation convention:", flag)
n = 64
for name in ("K0", "K+", "B", "V+", "W-"):
    op = build_generator(name, n, alg)
    got = berezin_symbol(op, params, alg)
    want = expected_symbol(name, params, alg, flag)
    print(f"  S({name:>2}) = {got}")
    print(f"        closed form defect: {(got - want).max_abs():.2e}")
