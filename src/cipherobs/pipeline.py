"""End-to-end orchestration: scenario loading, the three execution modes
(reference, quantized, encrypted) and CSV emission.  Every disclosed
residue of an encrypted run is checked against the quantized observer.  On
request an encrypted run records its transcript, the two adversary views,
built from each batch as it is produced; it keeps nothing else.  The tests
and `cipherobs verify` rebuild every encrypted state from View 2.
"""

from __future__ import annotations

import importlib.resources
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import encobs, quantobs, secviews
from .lwe import SecretKey, SecureRng, TestRng, keygen
from .modring import ModMatrix, Modulus
from .obsdesign import ObserverBank, ResidueMaps, build_bank, residue_map, \
    run_reference_observer
from .plantsim import ScenarioBundle, Trajectory, load_scenario, run_closed_loop
from .quantobs import ModularMaps, QuantParams, make_params

__all__ = [
    "BENCH_Q",
    "BENCH_LIFT",
    "DEFAULTS",
    "bundled_scenario_path",
    "SystemSetup",
    "StepRecord",
    "records_to_csv",
    "run_reference_mode",
    "run_quantized_mode",
    "QuantizedRun",
    "run_encrypted_mode",
    "EncryptedRun",
]

BENCH_Q = 2 ** 109 - 31
BENCH_LIFT = 2 ** 44

# The benchmark parameter set.  N, the LWE dimension, sets only the masking
# strength and the cost; the security dimension is 4096.
DEFAULTS = {
    "s1": 1e-5,
    "s2": 1e-5,
    "lift": BENCH_LIFT,
    "q": BENCH_Q,
    "N": 64,
    "Delta": 19.2,
    "eps": 0.3,
}


def bundled_scenario_path():
    """Path of the shipped three-inertia benchmark scenario."""
    return importlib.resources.files("cipherobs") / "scenarios" / "three_inertia.json"


@dataclass
class SystemSetup:
    """Scenario plus everything derived from it for one parameter set."""

    bundle: ScenarioBundle
    bank: ObserverBank
    maps: ResidueMaps
    params: QuantParams
    mod_maps: ModularMaps
    zhat_ini: np.ndarray    # the observer's initial value: zeros

    @classmethod
    def from_scenario(cls, path, **params) -> "SystemSetup":
        """The scenario at `path` with `params` overriding `DEFAULTS`."""
        return cls.from_bundle(load_scenario(path), **{**DEFAULTS, **params})

    @classmethod
    def from_bundle(cls, bundle: ScenarioBundle, *, s1, s2, lift, q, N,
                    Delta, eps) -> "SystemSetup":
        bank = build_bank(bundle.model, bundle.k)
        maps = residue_map(bank, s1)
        modulus = Modulus(q)
        params = make_params(bank, s1=s1, s2=s2, lift=lift, q=modulus, N=N,
                             Delta=Delta, eps=eps)
        mod_maps = ModularMaps.from_integer(maps, bank, modulus)
        return cls(bundle=bundle, bank=bank, maps=maps, params=params,
                   mod_maps=mod_maps, zhat_ini=np.zeros(bank.l_total))

@dataclass(frozen=True)
class StepRecord:
    step: int
    time_s: float
    residue_norm: float
    threshold: float
    detected: bool
    est_error_norm: float
    mode: str


CSV_HEADER = "step,time_s,residue_norm,threshold,detected,est_error_norm,mode"


def records_to_csv(records: List[StepRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.step},{r.time_s:.6g},{r.residue_norm:.12g},"
            f"{r.threshold:.12g},{int(r.detected)},{r.est_error_norm:.12g},"
            f"{r.mode}")
    return "\n".join(lines) + "\n"


def run_reference_mode(setup: SystemSetup, steps: int) -> List[StepRecord]:
    """Real-arithmetic observer run (the oracle mode)."""
    traj = run_closed_loop(setup.bundle.model, setup.bundle.attacks, steps)
    ref = run_reference_observer(setup.bank, traj, setup.zhat_ini)
    Ts = setup.bundle.model.Ts
    out = []
    for t in range(steps):
        rn = float(np.max(np.abs(ref.rhat[t]))) if ref.rhat[t].size else 0.0
        err = float(np.max(np.abs(traj.x[t] - ref.xhat[t])))
        thr = quantobs.threshold_at(setup.params, t)
        out.append(StepRecord(step=t, time_s=t * Ts, residue_norm=rn,
                              threshold=thr, detected=rn > thr,
                              est_error_norm=err, mode="reference"))
    return out


def _record(t: int, rbar: ModMatrix, xbar: ModMatrix, setup: SystemSetup,
            traj: Trajectory, mode: str) -> StepRecord:
    """Step t's record: the detection on the residue rbar, and the error of
    the estimate xbar scaled back by the quantization resolution."""
    det = quantobs.detect(rbar, t, setup.params)
    est = np.array([setup.params.resolution * v
                    for v in xbar.column_entries()])
    return StepRecord(step=t, time_s=t * setup.bundle.model.Ts,
                      residue_norm=det.lhs, threshold=det.threshold,
                      detected=det.flag,
                      est_error_norm=float(np.max(np.abs(traj.x[t] - est))),
                      mode=mode)


@dataclass
class QuantizedRun:
    records: List[StepRecord]
    trajectory: Trajectory
    zbars: List[ModMatrix]
    rbars: List[ModMatrix]
    xbars: List[ModMatrix]
    vbars: List[ModMatrix]


def run_quantized_mode(setup: SystemSetup, steps: int) -> QuantizedRun:
    """Plaintext observer over Z_q."""
    traj = run_closed_loop(setup.bundle.model, setup.bundle.attacks, steps)
    params = setup.params
    maps = setup.mod_maps
    zbar = quantobs.quantize_initial(setup.zhat_ini, params)
    run = QuantizedRun(records=[], trajectory=traj, zbars=[], rbars=[],
                       xbars=[], vbars=[])
    for t in range(steps):
        rbar = quantobs.residue_quantized(zbar, maps.Hbar)
        xbar = maps.PhiPinvBar @ zbar
        run.records.append(_record(t, rbar, xbar, setup, traj, "quantized"))
        run.zbars.append(zbar)
        run.rbars.append(rbar)
        run.xbars.append(xbar)
        vbar = quantobs.quantize_input(traj.u[t], traj.y[t], params)
        run.vbars.append(vbar)
        zbar = quantobs.step_quantized(zbar, vbar, maps.gain)
    return run


@dataclass
class EncryptedRun:
    records: List[StepRecord]
    public: encobs.ObserverPublic
    sk: SecretKey
    view1: Optional[secviews.View1] = None
    view2: Optional[secviews.View2] = None
    setup_s: float = 0.0    # wall time from keygen to the encrypted state
    steps_s: float = 0.0    # wall time of the step loop


def run_encrypted_mode(setup: SystemSetup, steps: int, *,
                       seed: Optional[int] = None,
                       record_views: bool = False) -> EncryptedRun:
    """Full encrypted observer run at the LWE dimension `setup.params.N`.

    The run aborts with `EncObsError` on the first step where the disclosed
    residue deviates from the plaintext quantized observer (this never
    happens when the implementation is correct).  `record_views` records
    the run's transcript: each batch's standard ciphertext and cancel
    columns as it is produced (View 2), and the disclosed residues beside
    the standard ciphertexts (View 1).  Every state is rebuilt from View 2.
    """
    qrun = run_quantized_mode(setup, steps)
    t0 = time.perf_counter()
    traj = qrun.trajectory
    params = setup.params
    rng = TestRng(seed) if seed is not None else SecureRng()
    sk = keygen(params.N, params.q, rng)
    public = encobs.ObserverPublic.build(setup.mod_maps, params)
    session = encobs.EncryptorSession(sk, params, public, rng=rng)

    zbar_ini = quantobs.quantize_initial(setup.zhat_ini, params)
    batch = session.enc_initial(zbar_ini)
    state = encobs.EncObserverState.from_initial(batch)

    run = EncryptedRun(records=[], public=public, sk=sk)
    recorded, residues = [], []   # what View 2 and View 1 hold of step t
    t1 = time.perf_counter()
    run.setup_s = t1 - t0
    for t in range(steps):
        disclosed = encobs.disclose_residue(
            encobs.residue_first_column(state, public), params)
        if disclosed != qrun.rbars[t]:
            raise encobs.EncObsError(f"disclosure mismatch at step {t}")
        xrec = encobs.recover_encrypted_state(state, 0, sk, params,
                                              setup.mod_maps.PhiPinvBar)
        run.records.append(_record(t, disclosed, xrec, setup, traj,
                                   "encrypted"))
        if record_views:
            recorded.append((batch.ct, batch.cancels))
            residues.append(disclosed)
        batch = session.enc_input(qrun.vbars[t])
        state = encobs.step_encrypted(state, batch, public)
    run.steps_s = time.perf_counter() - t1

    if record_views:
        # residues one step past the final input, for transcript completeness
        recorded.append((batch.ct, batch.cancels))
        residues.append(encobs.disclose_residue(
            encobs.residue_first_column(state, public), params))
        standard_cts, cancels = zip(*recorded)
        run.view1 = secviews.View1(init_ct=standard_cts[0],
                                   input_cts=standard_cts[1:],
                                   residues=tuple(residues))
        run.view2 = secviews.View2(standard_cts=standard_cts, cancels=cancels)
    return run
