"""Random multi-input plants run end to end: the encrypted observer against
the quantized one, and the view transformations on every recorded run.

Sparse plants give banks of uneven blocks, since a sensor that reads few
states has a short observability chain; dense plants give even banks.
Every plant has m >= 2 inputs driven by a small random feedback gain, and
k attack segments on k distinct random sensors: k = 1 on the sparse and
dense sets, and k = 2 on a set of dense plants with p = 5, whose banks
stack ten 3-sensor subsets.  Both views of every run go through their
bytes, so the codec sees uneven ciphertext heights at N = 16, and the
key holder recovers every state rebuilt from the parsed View 2.
"""

import dataclasses

import numpy as np
import pytest

from cipherobs import cli
from cipherobs.encobs import recover_encrypted_state
from cipherobs.obsdesign import run_reference_observer
from cipherobs.obsdesign import DesignError
from cipherobs.pipeline import BENCH_LIFT, BENCH_Q, SystemSetup, \
    run_encrypted_mode, run_quantized_mode
from cipherobs.plantsim import AttackScenario, AttackSegment, PlantError, \
    PlantModel, ScenarioBundle, run_closed_loop
from cipherobs.secviews import View1, View2, f1_view1_to_view2, \
    f2_view2_to_view1
from .helpers import assert_reference_runs_equal, \
    per_step_reference_observer, random_stable_plant

STEPS = 20


def sparse_plant(rng: np.random.Generator, n: int, m: int,
                 p: int) -> PlantModel:
    """A plant whose A, B and C keep about half their entries, with A
    scaled to spectral radius 0.8."""
    A = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
    radius = max(abs(np.linalg.eigvals(A)))
    if radius < 1e-9:
        raise PlantError("nilpotent draw")
    return PlantModel(A=A * (0.8 / radius),
                      B=rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.5),
                      C=rng.normal(size=(p, n)) * (rng.random((p, n)) < 0.5),
                      K=0.1 * rng.normal(size=(m, n)),
                      x_ini=rng.normal(size=n))


def dense_plant(rng: np.random.Generator, n: int, m: int,
                p: int) -> PlantModel:
    """`random_stable_plant` with a small random feedback gain, so the
    inputs are not zero."""
    return dataclasses.replace(random_stable_plant(rng, n, m, p),
                               K=0.1 * rng.normal(size=(m, n)))


def random_attack(rng: np.random.Generator, p: int,
                  k: int = 1) -> AttackScenario:
    """One constant attack of 2 to 5 steps on each of k distinct random
    sensors (0-based); a segment drawn for a sensor already attacked is
    dropped."""
    segments = {}
    while len(segments) < k:
        start = int(rng.integers(2, STEPS // 2))
        segment = AttackSegment(
            sensor=int(rng.integers(0, p)), start=start,
            end=start + int(rng.integers(2, 6)),
            value=float(rng.choice([-1, 1]) * rng.uniform(0.5, 3)))
        segments.setdefault(segment.sensor, segment)
    return AttackScenario(tuple(segments.values()))


def random_setups(seed: int, make, inputs, count: int, k: int = 1):
    """The first `count` draws of `make` that are stable and whose bank the
    design accepts, as setups at N = 16 with k attacked sensors; n is 3 to
    5, p is 2k + 1 to 5 (a bank needs more than 2k sensors), and m is drawn
    from `inputs`."""
    rng = np.random.default_rng(seed)
    setups = []
    for _ in range(4 * count):
        n, m, p = (int(rng.integers(3, 6)), int(rng.choice(inputs)),
                   int(rng.integers(2 * k + 1, 6)))
        try:
            plant = make(rng, n, m, p)
            bundle = ScenarioBundle(plant, random_attack(rng, p, k), k=k)
            setups.append(SystemSetup.from_bundle(
                bundle, s1=1e-4, s2=1e-4, lift=BENCH_LIFT, q=BENCH_Q, N=16,
                Delta=19.2, eps=0.3))
        except (PlantError, DesignError):
            continue
        if len(setups) == count:
            return setups
    raise AssertionError(f"only {len(setups)} of {count} draws were usable")


@pytest.fixture(scope="module")
def sparse_setups():
    return random_setups(7, sparse_plant, (2,), 40)


@pytest.fixture(scope="module")
def dense_setups():
    return random_setups(5, dense_plant, (2, 3), 30)


@pytest.fixture(scope="module")
def two_sensor_setups():
    return random_setups(11, dense_plant, (2, 3), 8, k=2)


def assert_encrypted_equals_quantized(setup: SystemSetup, plant: int):
    """The encrypted run's residue norms and flags equal the quantized
    run's at every step, and its estimate errors wherever a step is not
    flagged (recovery is exact only while the criterion holds); both views
    parse back from their bytes, byte for byte, and f1 and f2 map the
    parsed views onto the recorded ones.  Channel 0 recovered from every
    state rebuilt from the parsed View 2 equals the quantized estimate at
    every step that is not flagged: those states hold new batch objects,
    so the run's key computes each A sk from the parsed words."""
    qrun = run_quantized_mode(setup, STEPS)
    run = run_encrypted_mode(setup, STEPS, seed=plant, record_views=True)
    for quant, enc in zip(qrun.records, run.records):
        where = (plant, quant.step, setup.bank.block_sizes)
        assert (enc.residue_norm, enc.detected) == \
            (quant.residue_norm, quant.detected), where
        if not quant.detected:
            assert enc.est_error_norm == quant.est_error_norm, where
    blob1, blob2 = run.view1.to_bytes(), run.view2.to_bytes()
    view1 = View1.from_bytes(blob1, setup.params.q)
    view2 = View2.from_bytes(blob2)
    assert (view1, view2) == (run.view1, run.view2), plant
    assert (view1.to_bytes(), view2.to_bytes()) == (blob1, blob2), plant
    assert f2_view2_to_view1(view2, run.public, setup.params) == \
        run.view1, plant
    assert f1_view1_to_view2(view1, run.public, setup.params) == \
        run.view2, plant
    phi = setup.mod_maps.PhiPinvBar
    for quant, xbar, state in zip(qrun.records, qrun.xbars,
                                  view2.states(run.public)):
        if not quant.detected:
            assert recover_encrypted_state(state, 0, run.sk, setup.params,
                                           phi) == xbar, (plant, quant.step)


def test_sparse_plants_with_uneven_banks(sparse_setups):
    for i, setup in enumerate(sparse_setups):
        assert_encrypted_equals_quantized(setup, i)


def test_dense_plants(dense_setups):
    for i, setup in enumerate(dense_setups):
        assert_encrypted_equals_quantized(setup, i)


def test_dense_plants_with_two_attacked_sensors(two_sensor_setups):
    for i, setup in enumerate(two_sensor_setups):
        assert_encrypted_equals_quantized(setup, i)


def test_draws_cover_mimo_uneven_banks_and_detections(sparse_setups,
                                                      dense_setups,
                                                      two_sensor_setups):
    setups = sparse_setups + dense_setups + two_sensor_setups
    assert all(s.bundle.model.m >= 2 for s in setups)
    # k = 2 plants: five sensors, two of them attacked, ten 3-sensor subsets
    for s in two_sensor_setups:
        assert (s.bundle.k, s.bundle.model.C.shape[0]) == (2, 5)
        assert len({seg.sensor for seg in s.bundle.attacks.segments}) == 2
        assert s.mod_maps.Hbar.nrows == 10 * s.bundle.model.A.shape[0]
    assert any(s.bundle.model.m == 3 for s in dense_setups)
    spreads = [max(s.bank.block_sizes) - min(s.bank.block_sizes)
               for s in sparse_setups]
    assert sum(d > 0 for d in spreads) >= 10
    # blocks two or more rows apart once hid a window recovery bug
    assert sum(d >= 2 for d in spreads) >= 3
    flagged = [s for s in setups
               if any(r.detected for r in run_quantized_mode(s, STEPS)
                      .records)]
    assert len(flagged) >= len(setups) // 2


def test_verify_suites_on_every_plant(sparse_setups, dense_setups,
                                      two_sensor_setups):
    # `cipherobs verify`'s deadbeat and output-zeroing suites on each
    # plant's own setup, at its N = 16; the third suite, recovery and the
    # views, is what the tests above run on every plant
    setups = sparse_setups + dense_setups + two_sensor_setups
    for i, setup in enumerate(setups):
        assert cli._suite_deadbeat(setup) == [], i
        assert cli._zeroing_failures(f"plant {i}", setup.mod_maps,
                                     setup.params, i) == [], i


def test_reference_oracle_on_random_banks(sparse_setups, dense_setups,
                                          two_sensor_setups):
    # the set-up's reference run (the bank's gathers and shift rows)
    # equals the per-step oracle, bit for bit, on the calibration run and
    # the attacked run, from zero and from a random observer state
    rng = np.random.default_rng(13)
    for setup in sparse_setups + dense_setups + two_sensor_setups:
        bank, bundle = setup.bank, setup.bundle
        for traj in (run_closed_loop(bundle.model, AttackScenario(),
                                     10 * bank.l_max),
                     run_closed_loop(bundle.model, bundle.attacks, STEPS)):
            for zhat_ini in (np.zeros(bank.l_total),
                             rng.normal(size=bank.l_total)):
                assert_reference_runs_equal(
                    run_reference_observer(bank, traj, zhat_ini),
                    per_step_reference_observer(bank, traj, zhat_ini))
