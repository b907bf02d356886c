import random

import numpy as np
import pytest

from cipherobs.modring import ModMatrix, Modulus
from cipherobs.obsdesign import (
    DesignError,
    RedundancyViolation,
    build_bank,
    calibrate_M,
    canonical_decomposition,
    design_report,
    observability_index,
    residue_map,
    round_half_up,
    run_reference_observer,
)
from cipherobs.plantsim import AttackScenario, PlantModel, run_closed_loop
from .helpers import assert_reference_runs_equal, \
    per_step_reference_observer, random_stable_plant


class TestObservabilityIndex:
    def test_nilpotent_a(self):
        assert observability_index(np.zeros((2, 2)), np.array([1.0, 0.0])) == 1

    def test_shift_pair(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert observability_index(A, np.array([1.0, 0.0])) == 2

    def test_benchmark_indices_sum(self, bench_setup):
        m = bench_setup.bundle.model
        total = sum(observability_index(m.A, m.C[i]) for i in range(m.p))
        assert total == 24


class TestCanonicalDecomposition:
    def test_hand_checkable_nilpotent_pair(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        part = canonical_decomposition(A, np.array([1.0, 0.0]))
        assert part.l_i == 2
        assert np.allclose(part.f, [0.0, 0.0], atol=1e-12)
        assert np.allclose(part.Phi, [[0, 1], [1, 0]], atol=1e-12)
        assert np.allclose(part.F, [[0, 0], [1, 0]], atol=1e-12)
        assert np.allclose(part.Phi @ A, part.F @ part.Phi, atol=1e-12)

    def test_scalar_pair(self):
        part = canonical_decomposition(np.array([[0.7]]), np.array([1.0]))
        assert part.l_i == 1
        assert np.allclose(part.f, [0.7])
        assert np.allclose(part.Phi, [[1.0]])
        assert part.Fbar[0, 0] == 0

    def test_benchmark_defining_identities(self, bench_setup):
        m = bench_setup.bundle.model
        for part in bench_setup.bank.partials:
            scale = np.linalg.norm(part.Phi @ m.A, np.inf)
            resid = np.linalg.norm(part.Phi @ m.A - part.F @ part.Phi, np.inf)
            assert resid <= 1e-8 * max(scale, 1.0)
            assert np.allclose(part.J @ part.Phi, m.C[part.index], atol=1e-9)
            # error matrix is the exact integer lower shift, nilpotent
            expect = np.zeros((part.l_i, part.l_i), dtype=int)
            for h in range(1, part.l_i):
                expect[h, h - 1] = 1
            assert np.array_equal(part.Fbar, expect)
            assert not np.any(np.linalg.matrix_power(part.Fbar, part.l_i))

    def test_benchmark_against_least_squares_oracle(self, bench_setup):
        # solve the defining linear equations for Phi directly and compare
        m = bench_setup.bundle.model
        for part in bench_setup.bank.partials[:2]:
            li, n = part.l_i, m.n
            lhs_dyn = np.kron(m.A.T, np.eye(li)) - np.kron(np.eye(n), part.F)
            lhs_out = np.kron(np.eye(n), part.J)
            lhs = np.vstack([lhs_dyn, lhs_out])
            rhs = np.concatenate([np.zeros(li * n), m.C[part.index]])
            sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
            Phi_oracle = sol.reshape((n, li)).T
            assert np.allclose(Phi_oracle, part.Phi, atol=1e-6)

    def test_random_plants_satisfy_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            plant = random_stable_plant(rng, n, 1, 2)
            part = canonical_decomposition(plant.A, plant.C[0])
            resid = np.linalg.norm(part.Phi @ plant.A - part.F @ part.Phi,
                                   np.inf)
            assert resid <= 1e-7 * max(1.0, np.linalg.norm(plant.A, np.inf))


class TestBuildBank:
    def test_single_sensor_no_redundancy(self):
        rng = np.random.default_rng(3)
        plant = random_stable_plant(rng, 3, 1, 1)
        bank = build_bank(plant, 0)
        assert bank.subsets == ((0,),)
        assert bank.n_r == plant.n

    def test_benchmark_shape(self, bench_setup):
        bank = bench_setup.bank
        assert bank.l_total == 24
        assert bank.l_max == 6
        assert len(bank.subsets) == 10
        assert bank.n_r == 60
        assert tuple(bank.block_sizes) == (6, 4, 6, 4, 4)
        assert bank.subsets == tuple(
            __import__("itertools").combinations(range(5), 3))

    def test_benchmark_pinv_identity(self, bench_setup):
        bank = bench_setup.bank
        eye = bank.Phi_pinv @ bank.Phi
        assert np.allclose(eye, np.eye(6), atol=1e-9)
        for subset, pinv in bank.subset_pinvs.items():
            PhiL = np.vstack([bank.partials[i].Phi for i in subset])
            assert np.allclose(pinv @ PhiL, np.eye(6), atol=1e-9)

    def test_kappa_is_max_over_pinv_norms(self, bench_setup):
        bank = bench_setup.bank
        norms = [np.linalg.norm(bank.Phi_pinv, np.inf)]
        norms += [np.linalg.norm(v, np.inf) for v in bank.subset_pinvs.values()]
        assert bank.kappa == pytest.approx(max(norms))

    def test_redundancy_violation_detected(self):
        A = np.array([[0.5, 0.0], [0.0, 0.3]])
        C = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        plant = PlantModel(A=A, B=np.zeros((2, 1)), C=C,
                           K=np.zeros((1, 2)), x_ini=np.ones(2))
        with pytest.raises(RedundancyViolation) as err:
            build_bank(plant, 1)
        assert "subset" in str(err.value)

    def test_invalid_k(self, bench_setup):
        with pytest.raises(DesignError):
            build_bank(bench_setup.bundle.model, 5)


class TestResidueMap:
    def test_integer_pinv_passthrough_at_unit_scale(self):
        rng = np.random.default_rng(5)
        plant = random_stable_plant(rng, 2, 1, 2)
        bank = build_bank(plant, 0)
        maps = residue_map(bank, 1.0)
        expected = tuple(tuple(round_half_up(v) for v in row)
                         for row in bank.Phi_pinv)
        assert maps.PhiPinvBar == expected

    def test_single_subset_zero_residue_map(self):
        rng = np.random.default_rng(6)
        plant = random_stable_plant(rng, 3, 1, 1)
        bank = build_bank(plant, 0)
        maps = residue_map(bank, 1e-3)
        assert all(all(v == 0 for v in row) for row in maps.Hbar)

    def test_scale_bounds(self, bench_setup):
        with pytest.raises(DesignError):
            residue_map(bench_setup.bank, 0.0)
        with pytest.raises(DesignError):
            residue_map(bench_setup.bank, 1.5)

    def test_benchmark_embedding_against_per_subset_oracle(self, bench_setup):
        bank, maps = bench_setup.bank, bench_setup.maps
        q = Modulus(2 ** 61 - 1)
        Hbar = ModMatrix(maps.Hbar, q)
        full = ModMatrix(maps.PhiPinvBar, q)
        rng = random.Random(7)
        for _ in range(5):
            z = ModMatrix.column([rng.randrange(q.q) for _ in range(24)], q)
            got = Hbar @ z
            xbar = full @ z
            rows = []
            for subset in bank.subsets:
                idx = bank.subset_indices(subset)
                zL = ModMatrix.column([z.rows[i][0] for i in idx], q)
                xL = ModMatrix(maps.subset_pinv_bars[subset], q) @ zL
                rows.extend((xL - xbar).column_entries())
            assert got.column_entries() == tuple(rows)


class TestReferenceObserver:
    def test_exact_initialization_gives_zero_residue(self, bench_setup):
        bank = bench_setup.bank
        model = bench_setup.bundle.model
        traj = run_closed_loop(model, AttackScenario(), 30)
        z0 = bank.Phi @ model.x_ini
        ref = run_reference_observer(bank, traj, z0)
        for t in range(30):
            assert np.max(np.abs(ref.rhat[t])) <= 1e-9
            assert np.max(np.abs(ref.xhat[t] - traj.x[t])) <= 1e-9

    def test_deadbeat_error_decay(self, bench_setup):
        bank = bench_setup.bank
        model = bench_setup.bundle.model
        rng = np.random.default_rng(8)
        zhat_ini = rng.normal(size=bank.l_total)
        ztilde = bank.ztilde_ini(model.x_ini, zhat_ini)
        traj = run_closed_loop(model, AttackScenario(), 25)
        ref = run_reference_observer(bank, traj, zhat_ini)
        for t in range(25):
            for i, part in enumerate(bank.partials):
                err = np.max(np.abs(part.Phi @ traj.x[t]
                                    - ref.zhat[t][bank.z_slice(i)]))
                if t < part.l_i:
                    assert err <= ztilde + 1e-9
                else:
                    assert err <= 1e-9

    def test_attack_inflates_residue(self, bench_setup):
        traj = run_closed_loop(bench_setup.bundle.model,
                               bench_setup.bundle.attacks, 40)
        ref = run_reference_observer(bench_setup.bank, traj,
                                     np.zeros(bench_setup.bank.l_total))
        attacked = max(np.max(np.abs(ref.rhat[t])) for t in range(26, 36))
        clean = max(np.max(np.abs(ref.rhat[t])) for t in range(10, 25))
        assert attacked > 0.5
        assert clean < 1e-6


@pytest.mark.parametrize("start", ["zero", "random"])
@pytest.mark.parametrize("trajectory", ["calibration", "attack"])
def test_reference_oracle_on_the_benchmark_bank(bench_setup, trajectory,
                                                start):
    # the bank's gathers and shift rows against the per-step oracle, bit
    # for bit: on calibrate_M's attack-free run and on the attacked run
    bank, bundle = bench_setup.bank, bench_setup.bundle
    traj = (run_closed_loop(bundle.model, AttackScenario(), 10 * bank.l_max)
            if trajectory == "calibration"
            else run_closed_loop(bundle.model, bundle.attacks, 50))
    zhat_ini = (np.zeros(bank.l_total) if start == "zero"
                else np.random.default_rng(3).normal(size=bank.l_total))
    assert_reference_runs_equal(
        run_reference_observer(bank, traj, zhat_ini),
        per_step_reference_observer(bank, traj, zhat_ini))


def test_scale_past_int64_is_a_design_error(bench_setup):
    # the rounded maps are int64: a scale whose maps overflow it is refused
    with pytest.raises(DesignError, match="int64"):
        residue_map(bench_setup.bank, 1e-30)


class TestCalibrateM:
    def test_quiet_plant_gives_zero(self):
        # everything at rest: the supremum is zero even with the safety factor
        plant = PlantModel(A=np.zeros((1, 1)), B=np.zeros((1, 1)),
                           C=np.array([[1.0]]), K=np.zeros((1, 1)),
                           x_ini=np.zeros(1))
        bank = build_bank(plant, 0)
        assert calibrate_M(bank, plant, 10 * bank.l_max) == 0.0

    def test_benchmark_value_stable_under_doubling(self, bench_setup):
        bank = bench_setup.bank
        model = bench_setup.bundle.model
        m1 = calibrate_M(bank, model, 60)
        m2 = calibrate_M(bank, model, 120)
        assert m1 > 0
        assert abs(m2 - m1) / m1 < 0.01

    def test_monotone_in_horizon(self, bench_setup):
        bank = bench_setup.bank
        model = bench_setup.bundle.model
        vals = [calibrate_M(bank, model, h) for h in (60, 90, 150)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_short_horizon_rejected(self, bench_setup):
        with pytest.raises(DesignError):
            calibrate_M(bench_setup.bank, bench_setup.bundle.model, 10)


class TestDesignReport:
    def test_contains_key_numbers(self, bench_setup):
        text = design_report(bench_setup.bank)
        assert "l=24" in text
        assert "l_max=6" in text
        assert "n_r=60" in text
        assert "{1,2,3}" in text
