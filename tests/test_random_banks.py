"""Random multi-input plants run end to end: the encrypted observer against
the quantized one, and the view transformations on every recorded run.

Sparse plants give banks of uneven blocks, since a sensor that reads few
states has a short observability chain; dense plants give even banks.
Every plant has m >= 2 inputs driven by a small random feedback gain, k = 1
and one attack segment on a random sensor.
"""

import dataclasses

import numpy as np
import pytest

from cipherobs.obsdesign import DesignError
from cipherobs.pipeline import BENCH_LIFT, BENCH_Q, SystemSetup, \
    run_encrypted_mode, run_quantized_mode
from cipherobs.plantsim import AttackScenario, AttackSegment, PlantError, \
    PlantModel, ScenarioBundle
from cipherobs.secviews import f1_view1_to_view2, f2_view2_to_view1
from .helpers import random_stable_plant

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


def random_attack(rng: np.random.Generator, p: int) -> AttackScenario:
    """One constant attack of 2 to 5 steps on a random sensor (0-based)."""
    start = int(rng.integers(2, STEPS // 2))
    return AttackScenario((AttackSegment(
        sensor=int(rng.integers(0, p)), start=start,
        end=start + int(rng.integers(2, 6)),
        value=float(rng.choice([-1, 1]) * rng.uniform(0.5, 3))),))


def random_setups(seed: int, make, inputs, count: int):
    """The first `count` draws of `make` that are stable and whose bank the
    design accepts, as setups at N = 16; n and p are 3 to 5, m is drawn
    from `inputs`."""
    rng = np.random.default_rng(seed)
    setups = []
    for _ in range(4 * count):
        n, m, p = (int(rng.integers(3, 6)), int(rng.choice(inputs)),
                   int(rng.integers(3, 6)))
        try:
            plant = make(rng, n, m, p)
            bundle = ScenarioBundle(plant, random_attack(rng, p), k=1)
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


def assert_encrypted_equals_quantized(setup: SystemSetup, plant: int):
    """The encrypted run's residue norms and flags equal the quantized
    run's at every step, and its estimate errors wherever a step is not
    flagged (recovery is exact only while the criterion holds); f1 and f2
    map the recorded views onto each other."""
    quantized = run_quantized_mode(setup, STEPS).records
    run = run_encrypted_mode(setup, STEPS, seed=plant, record_views=True)
    for quant, enc in zip(quantized, run.records):
        where = (plant, quant.step, setup.bank.block_sizes)
        assert (enc.residue_norm, enc.detected) == \
            (quant.residue_norm, quant.detected), where
        if not quant.detected:
            assert enc.est_error_norm == quant.est_error_norm, where
    assert f2_view2_to_view1(run.view2, run.public, setup.params) == \
        run.view1, plant
    assert f1_view1_to_view2(run.view1, run.public, setup.params) == \
        run.view2, plant


def test_sparse_plants_with_uneven_banks(sparse_setups):
    for i, setup in enumerate(sparse_setups):
        assert_encrypted_equals_quantized(setup, i)


def test_dense_plants(dense_setups):
    for i, setup in enumerate(dense_setups):
        assert_encrypted_equals_quantized(setup, i)


def test_draws_cover_mimo_uneven_banks_and_detections(sparse_setups,
                                                      dense_setups):
    setups = sparse_setups + dense_setups
    assert all(s.bundle.model.m >= 2 for s in setups)
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
