import numpy as np
import pytest

from osp22.grassmann import default_algebra
from osp22.representation import (
    COMMUTATOR_TABLE,
    GENERATOR_NAMES,
    HERMITIAN_BASE,
    SuperOperator,
    build_generator,
    chi_ladder_matrix,
    chi_slot_permutation,
    hamiltonian_check,
    interior_columns,
    operator_exp,
    ptheta_operator,
    vacuum_checks,
    verify_structure,
    xtheta_operator,
)
from osp22.superspace import SuperVector, random_supervector

ALG = default_algebra()
N = 12


def op(name, n=N):
    return build_generator(name, n, ALG)


class TestGenerators:
    def test_K0_vacuum(self):
        vac = SuperVector.basis_state(0, 0, N, ALG)
        assert (op("K0").apply(vac) - 0.25 * vac).max_abs() == 0.0

    def test_B_vacuum(self):
        vac = SuperVector.basis_state(0, 0, N, ALG)
        assert (op("B").apply(vac) + 0.25 * vac).max_abs() == 0.0

    def test_Vplus_vacuum(self):
        vac = SuperVector.basis_state(0, 0, N, ALG)
        odd0 = SuperVector.basis_state(1, 0, N, ALG)
        assert (op("V+").apply(vac) - (1 / np.sqrt(2)) * odd0).max_abs() < 1e-15

    def test_W_kills_even_sector(self):
        vac = SuperVector.basis_state(0, 0, N, ALG)
        assert op("W+").apply(vac).max_abs() == 0.0
        assert op("W-").apply(vac).max_abs() == 0.0

    def test_V_kills_odd_sector(self):
        odd3 = SuperVector.basis_state(1, 3, N, ALG)
        assert op("V+").apply(odd3).max_abs() == 0.0
        assert op("V-").apply(odd3).max_abs() == 0.0

    def test_block_patterns(self):
        for name in GENERATOR_NAMES:
            assert op(name).block_pattern_defect() == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_generator("Q", N, ALG)

    def test_min_truncation(self):
        with pytest.raises(ValueError):
            build_generator("K0", 1, ALG)


def _apply_per_slot(beta, name, v):
    """(beta G) v slot by slot: beta G (v_j Psi_j) = (-1)^{p(G) p(v_j)} beta v_j G Psi_j."""
    mat = op(name, v.n_max).body
    odd_g = op(name, v.n_max).parity_bit
    slots = v.even + v.odd
    moved = [beta * ((c.even_part() - c.odd_part()) if odd_g else c) for c in slots]
    out = []
    for i in range(2 * v.n_max):
        acc = ALG.zero()
        for j, c in enumerate(moved):
            if mat[i, j] != 0:
                acc = acc + complex(mat[i, j]) * c
        out.append(acc)
    return SuperVector(ALG, out[: v.n_max], out[v.n_max :])


class TestApplyAgainstSlots:
    @pytest.mark.parametrize(
        "beta_name, name", [("alpha", "V+"), ("alpha_bar", "W-"), ("alpha", "K+"), ("alpha_bar", "B")]
    )
    def test_grassmann_multiple(self, beta_name, name):
        rng = np.random.default_rng(21)
        beta = (0.7 - 0.4j) * ALG.gen(beta_name)
        for _ in range(3):
            v = random_supervector(N, rng, ALG, support=8)
            got = (beta * op(name)).apply(v)
            want = _apply_per_slot(beta, name, v)
            assert (got - want).max_abs() < 1e-13

    def test_odd_odd_koszul_sign(self):
        # alpha V+ on alpha_bar Psi_0^0: the odd block passes the odd coefficient
        vec = ALG.gen("alpha_bar") * SuperVector.basis_state(0, 0, N, ALG)
        got = (ALG.gen("alpha") * op("V+")).apply(vec)
        pair = ALG.gen("alpha") * ALG.gen("alpha_bar")
        want = (-np.sqrt(0.5)) * (pair * SuperVector.basis_state(1, 0, N, ALG))
        assert (got - want).max_abs() == 0.0


class TestSupercommutator:
    def test_lowering_raising(self):
        got = op("K-").supercommutator(op("K+"))
        want = 2.0 * op("K0")
        assert (got - want).max_abs(columns=interior_columns(N, 2)) < 1e-13

    def test_odd_odd_pair(self):
        got = op("V+").supercommutator(op("W-"))
        want = op("K0") - op("B")
        assert (got - want).max_abs(columns=interior_columns(N, 2)) < 1e-13

    def test_diagonal_pair_commutes(self):
        assert op("B").supercommutator(op("K0")).max_abs() == 0.0

    def test_odd_squares_vanish(self):
        assert op("V+").supercommutator(op("V+")).max_abs() == 0.0
        assert op("W-").supercommutator(op("W-")).max_abs() == 0.0

    def test_parity_of_result(self):
        assert op("V+").supercommutator(op("W-")).parity_bit == 0
        assert op("K+").supercommutator(op("V-")).parity_bit == 1

    def test_full_table(self):
        report = verify_structure(N, ALG, n_triples=10, seed=1)
        assert report["pass"], [r for r in report["records"] if not r["pass"]]

    def test_structure_at_32(self):
        report = verify_structure(32, ALG, n_triples=20, seed=7)
        worst = max(r["max_defect"] for r in report["records"])
        assert worst < 1e-12

    def test_needs_minimum_truncation(self):
        with pytest.raises(ValueError):
            verify_structure(4, ALG)


class TestVacuum:
    def test_all_checks_exact(self):
        report = vacuum_checks(8, ALG)
        assert report["pass"]
        for rec in report["records"][:6]:
            assert rec["defect"] == 0.0

    def test_atypicality_markers(self):
        vac = SuperVector.basis_state(0, 0, 8, ALG)
        assert build_generator("V+", 8, ALG).apply(vac).norm() > 0.5
        assert build_generator("K+", 8, ALG).apply(vac).norm() > 0.5
        assert build_generator("W+", 8, ALG).apply(vac).max_abs() == 0.0


class TestSuperadjoint:
    def test_table(self):
        pairs = {
            "K0": op("K0"),
            "K+": op("K-"),
            "K-": op("K+"),
            "B": op("B"),
            "V+": 1j * op("W-"),
            "V-": 1j * op("W+"),
            "W+": 1j * op("V-"),
            "W-": 1j * op("V+"),
        }
        for name, want in pairs.items():
            assert (op(name).superadjoint() - want).max_abs() < 1e-14

    def test_involution(self):
        for name in GENERATOR_NAMES:
            a = op(name)
            assert (a.superadjoint().superadjoint() - a).max_abs() < 1e-14

    def test_product_rule(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            a = op(GENERATOR_NAMES[rng.integers(0, 8)])
            c = op(GENERATOR_NAMES[rng.integers(0, 8)])
            sign = -1.0 if (a.parity_bit and c.parity_bit) else 1.0
            lhs = (a @ c).superadjoint()
            rhs = sign * (c.superadjoint() @ a.superadjoint())
            assert (lhs - rhs).max_abs() < 1e-12

    def test_commutator_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            a = op(GENERATOR_NAMES[rng.integers(0, 8)])
            c = op(GENERATOR_NAMES[rng.integers(0, 8)])
            lhs = a.supercommutator(c).superadjoint()
            rhs = -(a.superadjoint().supercommutator(c.superadjoint()))
            assert (lhs - rhs).max_abs() < 1e-12

    def test_hermitian_base(self):
        for name in HERMITIAN_BASE:
            x = op(name)
            sign = -1.0 if x.parity_bit else 1.0
            assert (x.superadjoint() - sign * x).max_abs() < 1e-14

    def test_grassmann_scaled_adjoint(self):
        # (alpha V+)+ = conj(alpha) (V+)+ = alpha_bar i W-
        al = ALG.gen("alpha")
        lhs = (al * op("V+")).superadjoint()
        rhs = al.conj() * (1j * op("W-"))
        assert (lhs - rhs).max_abs() < 1e-14


class TestHamiltonian:
    def test_report(self):
        report = hamiltonian_check(16, ALG)
        assert report["pass"], report["records"]

    def test_route_equality_at_32(self):
        report = hamiltonian_check(32, ALG)
        assert report["records"][0]["defect"] < 1e-12

    def test_vacuum_expectation_frozen(self):
        report = hamiltonian_check(16, ALG)
        rec = [r for r in report["records"] if "1/4" in r["check"]][0]
        assert rec["defect"] < 1e-10


class TestOperatorExp:
    def test_identity_at_zero(self):
        zero = SuperOperator.zero(6, ALG)
        assert (operator_exp(zero) - SuperOperator.identity(6, ALG)).max_abs() == 0.0

    def test_matches_scipy_on_body(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(12)
        mat = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        mat = 0.4 * mat
        # embed an even-pattern matrix so the block check holds
        full = np.zeros((24, 24), dtype=complex)
        full[:12, :12] = mat
        full[12:, 12:] = 2.0 * mat
        o = SuperOperator(ALG, 12, {0: full}, 0)
        got = operator_exp(o).body
        assert np.abs(got - expm(full)).max() < 1e-12

    def test_nilpotent_part_exact(self):
        # exp(alpha V+) = 1 + alpha V+ since (alpha V+)^2 = 0
        al = ALG.gen("alpha")
        x = al * op("V+", 6)
        got = operator_exp(x)
        want = SuperOperator.identity(6, ALG) + x
        assert (got - want).max_abs() < 1e-15

    def test_odd_exponent_rejected(self):
        with pytest.raises(ValueError):
            operator_exp(op("V+", 6))


class TestChiBasisRoutes:
    def test_ladder_matrices(self):
        ap = chi_ladder_matrix("+", 6)
        am = chi_ladder_matrix("-", 6)
        assert ap[1, 0] == 0.5
        assert am[0, 1] == 0.5
        assert np.abs(ap.T - am).max() == 0.0

    def test_slot_permutation(self):
        perm = chi_slot_permutation(3)
        assert list(perm) == [0, 2, 4, 1, 3, 5]


class TestThetaOperators:
    def test_parities(self):
        assert ptheta_operator(8, ALG).parity_bit == 1
        assert xtheta_operator(8, 1.0, ALG).parity_bit == 1

    def test_xtheta_at_t0(self):
        # x theta reduces to i sqrt(2) (V+ - V-) at t = 0
        want = 1j * np.sqrt(2.0) * (op("V+", 8) - op("V-", 8))
        assert (xtheta_operator(8, 0.0, ALG) - want).max_abs() == 0.0
