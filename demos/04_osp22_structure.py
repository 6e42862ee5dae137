"""Demo: the atypical osp(2/2) representation on the superspace.

Builds the eight generators, measures the complete supercommutator table and
the vacuum (lowest-weight) properties, shows the superadjoint table, and
decomposes the Hamiltonian element h = K+/2 + K-/2 + K0 = (a+ + a-)^2.
Each figure is a defect; `osp22 verify algebra` judges them against tolerances.
Run with:  python3 demos/04_osp22_structure.py
"""

from osp22 import (
    GENERATOR_NAMES,
    SUPERADJOINTS,
    SuperVector,
    build_generator,
    default_algebra,
    hamiltonian_defects,
    structure_defects,
    vacuum_defects,
)

alg = default_algebra()
N = 24

print("== supercommutator table at n_max =", N, "==")
ops = {name: build_generator(name, N, alg) for name in GENERATOR_NAMES}
structure = structure_defects(ops)
for relation, defect in list(structure["table"].items())[:8]:
    print(f"  {relation:<28} relative defect {defect:.2e}")
n_relations = len(structure["table"]) + len(structure["unlisted"])
worst = max(*structure["table"].values(), *structure["unlisted"].values())
print(f"  ... {n_relations} relations, largest relative defect {worst:.2e}")
print(f"  graded Jacobi identity (20 random triples) relative defect {structure['jacobi']:.2e}")
print()

print("== lowest-weight vector ==")
vacuum = vacuum_defects(ops)
for prop, defect in vacuum["lowest_weight"].items():
    print(f"  {prop:<42} defect {defect:.2e}")
print(f"  {'|V+ vacuum| = 1/sqrt 2':<42} defect {vacuum['v_plus_norm']:.2e}")
print()

print("== atypicality: the one raising annihilator is W+ ==")
vac = SuperVector.basis_state(0, 0, 12, alg)
for name in ("K+", "V+", "W+"):
    img = build_generator(name, 12, alg).apply(vac)
    print(f"  |{name} vacuum| = {img.norm():.6f}")
print()

print("== superadjoints ==")
for name, (coeff, adjoint) in SUPERADJOINTS.items():
    a = build_generator(name, 12, alg)
    table = (a.superadjoint() - coeff * build_generator(adjoint, 12, alg)).max_abs()
    rhs = ("i " if coeff == 1j else "") + adjoint
    print(f"  {f'({name})+':<5} = {rhs:<5}  table defect {table:.2e};  involution defect "
          f"{(a.superadjoint().superadjoint() - a).max_abs():.2e}")
print()

print("== Hamiltonian element ==")
for name, defect in hamiltonian_defects(N, alg).items():
    print(f"  {name:<14} defect {defect:.2e}")
