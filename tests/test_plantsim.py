import json

import numpy as np
import pytest

from cipherobs.plantsim import (
    AttackScenario,
    AttackSegment,
    PlantError,
    PlantModel,
    SchurStabilityError,
    load_scenario,
    run_closed_loop,
    step_plant,
)
from cipherobs.pipeline import bundled_scenario_path
from .helpers import per_step_closed_loop, same_bits


@pytest.fixture(scope="module")
def bench_bundle():
    return load_scenario(bundled_scenario_path())


class TestPlantModel:
    def test_benchmark_loads(self, bench_bundle):
        m = bench_bundle.model
        assert (m.n, m.m, m.p) == (6, 1, 5)
        assert m.Ts == 0.1
        assert bench_bundle.k == 2

    def test_unstable_loop_rejected(self):
        with pytest.raises(SchurStabilityError):
            PlantModel(A=np.array([[1.5]]), B=np.array([[0.0]]),
                       C=np.array([[1.0]]), K=np.array([[0.0]]),
                       x_ini=np.array([1.0]))

    def test_dimension_checks(self):
        with pytest.raises(PlantError):
            PlantModel(A=np.zeros((2, 2)), B=np.zeros((3, 1)),
                       C=np.zeros((1, 2)), K=np.zeros((1, 2)),
                       x_ini=np.zeros(2))

    def test_attack_sensor_out_of_range(self, tmp_path):
        raw = json.loads(bundled_scenario_path().read_text())
        raw["attacks"][0]["sensor"] = 9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(PlantError):
            load_scenario(path)

    # int() would truncate 1.9 to 1 and take True as 1
    @pytest.mark.parametrize("field", ["k", "sensor", "start", "end"])
    @pytest.mark.parametrize("value", [1.9, True, "2"],
                             ids=["fraction", "bool", "string"])
    def test_integer_fields_must_be_integers(self, tmp_path, field, value):
        raw = json.loads(bundled_scenario_path().read_text())
        (raw if field == "k" else raw["attacks"][0])[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(PlantError, match=f"{field} must be an integer"):
            load_scenario(path)

    def test_integral_floats_are_integers(self, tmp_path, bench_bundle):
        raw = json.loads(bundled_scenario_path().read_text())
        raw["k"] = float(raw["k"])
        raw["attacks"][0]["sensor"] = float(raw["attacks"][0]["sensor"])
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(raw))
        bundle = load_scenario(path)
        assert bundle.k == bench_bundle.k
        assert bundle.attacks.segments == bench_bundle.attacks.segments


class TestStepPlant:
    def test_zero_maps_to_zero(self, bench_bundle):
        m = bench_bundle.model
        assert np.all(step_plant(m, np.zeros(6), np.zeros(1)) == 0)

    def test_scaled_identity_dynamics(self):
        m = PlantModel(A=np.eye(2) * 0.5, B=np.zeros((2, 1)),
                       C=np.eye(2), K=np.zeros((1, 2)), x_ini=np.ones(2))
        x = np.array([3.0, -2.0])
        assert np.allclose(step_plant(m, x, np.zeros(1)), 0.5 * x)

    def test_identity_a_rejected(self):
        # A = I with zero gain sits on the stability boundary
        with pytest.raises(SchurStabilityError):
            PlantModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
                       K=np.zeros((1, 2)), x_ini=np.ones(2))

    def test_benchmark_against_dense_oracle(self, bench_bundle):
        m = bench_bundle.model
        x = m.x_ini
        u = m.K @ x
        got = step_plant(m, x, u)
        expected = np.array([
            sum(m.A[i, j] * x[j] for j in range(6))
            + sum(m.B[i, j] * u[j] for j in range(1))
            for i in range(6)
        ])
        assert np.allclose(got, expected, rtol=0, atol=1e-14)


class TestRunClosedLoop:
    def test_empty_scenario_has_zero_attack(self, bench_bundle):
        traj = run_closed_loop(bench_bundle.model, AttackScenario(), 20)
        assert all(np.all(a == 0) for a in traj.a)
        for x, y in zip(traj.x, traj.y):
            assert np.allclose(y, bench_bundle.model.C @ x)

    def test_output_identity_exact(self, bench_bundle):
        traj = run_closed_loop(bench_bundle.model, bench_bundle.attacks, 50)
        for x, y, a in zip(traj.x, traj.y, traj.a):
            assert np.array_equal(y, bench_bundle.model.C @ x + a)

    def test_benchmark_attack_deviates_exactly(self, bench_bundle):
        clean = run_closed_loop(bench_bundle.model, AttackScenario(), 50)
        attacked = run_closed_loop(bench_bundle.model, bench_bundle.attacks, 50)
        # attacks do not feed back into the state (u = K x), so y differs
        # by exactly the injected value on sensor 3
        for t in range(50):
            assert np.array_equal(clean.x[t], attacked.x[t])
            dev = attacked.y[t] - clean.y[t]
            expected = 0.0
            if 25 <= t <= 29:
                expected = 1.0
            elif 43 <= t <= 44:
                expected = -1.0
            assert dev[2] == expected
            assert np.all(dev[[0, 1, 3, 4]] == 0)

    def test_single_step(self, bench_bundle):
        traj = run_closed_loop(bench_bundle.model, AttackScenario(), 1)
        assert len(traj) == 1
        assert np.array_equal(traj.x[0], bench_bundle.model.x_ini)

    def test_steps_must_be_positive(self, bench_bundle):
        with pytest.raises(PlantError):
            run_closed_loop(bench_bundle.model, AttackScenario(), 0)

    @pytest.mark.parametrize("attacked", [True, False])
    def test_closed_loop_oracle(self, bench_bundle, attacked):
        # the benchmark's attacked run of 50 steps, and the attack-free
        # run of calibrate_M's 60 steps
        attacks = bench_bundle.attacks if attacked else AttackScenario()
        steps = 50 if attacked else 60
        got = run_closed_loop(bench_bundle.model, attacks, steps)
        want = per_step_closed_loop(bench_bundle.model, attacks, steps)
        for name in ("x", "u", "y", "a"):
            rows = getattr(got, name)
            assert len(rows) == steps, name
            assert all(same_bits(a, b) for a, b in
                       zip(rows, getattr(want, name))), name
        assert any(a.any() for a in got.a) == attacked

    def test_bounded_state(self, bench_bundle):
        m = bench_bundle.model
        traj = run_closed_loop(m, AttackScenario(), 300)
        norms = [np.max(np.abs(x)) for x in traj.x]
        assert max(norms) <= max(norms[:10 * m.n]) * 1.001


class TestAttackScenario:
    def test_overlapping_segments_accumulate(self):
        segs = (AttackSegment(0, 0, 4, 1.0), AttackSegment(0, 2, 3, 0.5))
        scenario = AttackScenario(segments=segs)
        assert scenario.vector_at(3, 2)[0] == 1.5
