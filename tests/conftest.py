import time

import pytest

from cipherobs.modring import Modulus
from cipherobs.pipeline import (
    SystemSetup,
    bundled_scenario_path,
    run_encrypted_mode,
    run_quantized_mode,
)

from .helpers import replay_run

BENCH_SEED = 2024
BENCH_STEPS = 50


@pytest.fixture(scope="session")
def q101():
    return Modulus(101)


@pytest.fixture(scope="session")
def q5():
    return Modulus(5)


@pytest.fixture(scope="session")
def bench_setup():
    """Three-inertia benchmark with the published parameter set, at the
    default LWE dimension N = 64."""
    return SystemSetup.from_scenario(bundled_scenario_path())


@pytest.fixture(scope="session")
def paper_lift_setup(bench_setup):
    """The benchmark at the paper's lift 2^44, the input the golden
    ciphertext and transcript digests were recorded from.  Its recovery
    bound fails (margin 0.82), but the seeded draws stay inside it."""
    import dataclasses
    return dataclasses.replace(bench_setup, params=dataclasses.replace(
        bench_setup.params, lift=2 ** 44))


@pytest.fixture(scope="session")
def bench_qrun(bench_setup):
    return run_quantized_mode(bench_setup, BENCH_STEPS)


@pytest.fixture(scope="session")
def bench_enc(bench_setup, bench_qrun):
    """Full encrypted benchmark run with its views, replayed from View 2:
    the states, residues, masks and errors of `helpers.ReplayedRun`.

    The wall time of the run is stashed on the object for the acceptance
    suite's runtime check.
    """
    t0 = time.perf_counter()
    run = run_encrypted_mode(bench_setup, BENCH_STEPS, seed=BENCH_SEED,
                             record_views=True)
    elapsed_s = time.perf_counter() - t0
    replayed = replay_run(run, bench_qrun.zbars[:1] + bench_qrun.vbars,
                          bench_setup.params)
    replayed.elapsed_s = elapsed_s
    return replayed


@pytest.fixture(scope="session")
def bench_noattack(bench_setup):
    """Same plant and parameters, attack-free."""
    import dataclasses
    from cipherobs.plantsim import AttackScenario, ScenarioBundle
    bundle = ScenarioBundle(model=bench_setup.bundle.model,
                            attacks=AttackScenario(),
                            k=bench_setup.bundle.k,
                            name="attack-free")
    return dataclasses.replace(bench_setup, bundle=bundle)
