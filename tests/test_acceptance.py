"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

The benchmark fixtures run the full 50-step three-inertia scenario once per
session (LWE dimension 64 for speed; every exactness property is dimension
independent) and share the results across criteria.
"""

import dataclasses
import random
from itertools import chain, repeat

import numpy as np

from cipherobs.encobs import EncryptorSession, cloud_states, \
    recover_encrypted_state, residue_first_column
from cipherobs.lwe import NoiseParams, keygen
from cipherobs.lwe import TestRng as SeededRng
from cipherobs.modring import ModMatrix, Modulus
from cipherobs.obsdesign import build_bank
from cipherobs.pipeline import run_quantized_mode
from cipherobs.plantsim import AttackScenario, run_closed_loop
from cipherobs.obsdesign import run_reference_observer
from cipherobs.quantobs import validate_params
from cipherobs.secviews import f1_view1_to_view2, f2_view2_to_view1
from cipherobs.zerodyn import RelativeDegreeUndefined
from .helpers import build_fbar, build_transform, cancellation_init, \
    cancellation_step, channel, dense_decrypt, error_trajectory, full_state, random_channel, \
    random_stable_plant, secret_key, simulate_channel
from .test_secviews import ZeroErrorRng, _run_tiny_session, _tiny_params, \
    _tiny_public


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_criterion_1_disclosure_exactness(bench_setup, bench_qrun, bench_enc):
    """First residue column equals the lifted plaintext residue, exactly."""
    lift = bench_setup.params.lift
    exact = all(
        bench_enc.r1s[t] == bench_qrun.rbars[t].scale(lift)
        and bench_enc.disclosed[t] == bench_qrun.rbars[t]
        for t in range(50)
    )
    fast_enough = bench_enc.elapsed_s < 60.0
    _report(1, "disclosure exactness over 50 steps x 60 channels",
            exact and fast_enough,
            f"zero tolerance; run took {bench_enc.elapsed_s:.1f}s")


def test_criterion_2_recovery_exactness(bench_setup, bench_qrun, bench_enc):
    """Wherever the residue criterion holds, every channel recovers the
    plaintext scaled estimate bit for bit."""
    params = bench_setup.params
    phi_rows = bench_setup.maps.PhiPinvBar
    lift = params.lift
    q = params.q
    checked = 0
    ok = True
    for t in range(50):
        if bench_qrun.records[t].detected:
            continue
        expected = bench_qrun.xbars[t].column_entries()
        state = bench_enc.states[t]
        full = full_state(state, bench_enc.public)
        for j in range(state.n_channels):
            dec = dense_decrypt(channel(full, j), bench_enc.sk)
            vals = dec.column_entries()
            # rounding applies to the reduced product, matching the recovery op
            got = tuple(
                q.cmod((2 * q.cmod(sum(r * v for r, v in zip(row, vals)))
                        + lift) // (2 * lift))
                for row in phi_rows)
            if got != expected:
                ok = False
                break
        checked += 1
        if not ok:
            break
    # the public entry point agrees with the batched check
    spot = recover_encrypted_state(bench_enc.states[10], 5, bench_enc.sk,
                                   params, bench_setup.mod_maps.PhiPinvBar)
    ok = ok and spot == bench_qrun.xbars[10]
    _report(2, "recovery exactness on every criterion-satisfying step",
            ok and checked >= 30, f"{checked} steps x 60 channels, zero tolerance")


def test_criterion_3_detection_reproduction(bench_setup, bench_qrun,
                                            bench_noattack):
    """Flags appear only inside attack influence windows and at least once
    per window; the attack-free run never flags."""
    l_max = bench_setup.bank.l_max
    flagged = {r.step for r in bench_qrun.records if r.detected}
    windows = []
    for seg in bench_setup.bundle.attacks.segments:
        windows.append(set(range(seg.start + 1,
                                 min(seg.end + l_max + 1, 50))))
    allowed = set().union(*windows)
    inside_only = flagged <= allowed
    each_window_hit = all(flagged & w for w in windows)
    clean_after_settling = all(
        not r.detected for r in bench_qrun.records
        if r.step >= l_max and r.step not in allowed)
    quiet = run_quantized_mode(bench_noattack, 50)
    no_false_alarms = not any(r.detected for r in quiet.records)
    _report(3, "detection flags reproduce the benchmark attack pattern",
            inside_only and each_window_hit and clean_after_settling
            and no_false_alarms,
            f"flagged={sorted(flagged)}")


def test_criterion_4_recovery_bound(bench_qrun, bench_setup):
    """Unflagged steps past the settling window keep the estimate within
    twice the detection slack."""
    bound = 2 * bench_setup.params.eps
    worst = 0.0
    ok = True
    for rec in bench_qrun.records:
        if rec.step >= bench_setup.bank.l_max and not rec.detected:
            worst = max(worst, rec.est_error_norm)
            if rec.est_error_norm > bound:
                ok = False
    _report(4, "estimate error <= 0.6 on unflagged settled steps", ok,
            f"worst {worst:.3e} vs bound {bound}")


def test_criterion_5_deadbeat_error_decay(bench_setup):
    """Per-sensor estimation error obeys the nilpotent envelope, on the
    benchmark and on randomized observable plants."""
    tol = 1e-8

    def check(bank, model, zhat_ini, steps):
        traj = run_closed_loop(model, AttackScenario(), steps)
        ref = run_reference_observer(bank, traj, zhat_ini)
        ztilde = bank.ztilde_ini(model.x_ini, zhat_ini)
        for t in range(steps):
            for i, part in enumerate(bank.partials):
                err = np.max(np.abs(part.Phi @ traj.x[t]
                                    - ref.zhat[t][bank.z_slice(i)]))
                if t < part.l_i:
                    if err > ztilde * (1 + 1e-12) + tol:
                        return False
                elif err > tol:
                    return False
        return True

    ok = check(bench_setup.bank, bench_setup.bundle.model,
               np.zeros(bench_setup.bank.l_total), 30)
    rng = np.random.default_rng(2718)
    plants = 0
    attempts = 0
    while plants < 50 and attempts < 200:
        attempts += 1
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        plant = random_stable_plant(rng, n, 1, p)
        try:
            bank = build_bank(plant, 0)
        except Exception:
            continue
        zhat_ini = rng.normal(size=bank.l_total)
        if not check(bank, plant, zhat_ini, 4 * bank.l_max + 8):
            ok = False
            break
        plants += 1
    _report(5, "deadbeat error envelope on benchmark + 50 random plants",
            ok and plants >= 50, f"{plants} random plants, tol {tol}")


def test_criterion_6_output_zeroing(bench_setup, bench_enc):
    """Cancellation zeroes the channel output exactly, everywhere: the
    normal-form oracle on random channels and the benchmark channels, and
    the deployed encryptor and observer on every benchmark channel."""
    q101 = Modulus(101)
    rng = random.Random(31337)
    random_ok = 0
    while random_ok < 100:
        l = rng.choice([2, 3, 4, 5, 6])
        mp = rng.choice([2, 3])
        H, F, G = random_channel(rng, q101, l, mp)
        try:
            ct = build_transform(H, F, G)
        except RelativeDegreeUndefined:
            continue
        b_ini = ModMatrix.column([rng.randrange(101) for _ in range(l)], q101)
        b_vs = [ModMatrix.column([rng.randrange(101) for _ in range(mp)],
                                 q101) for _ in range(4 * l)]
        tilde_ini, state = cancellation_init(ct, b_ini)
        mod_vs = []
        for v in b_vs:
            tilde, state = cancellation_step(ct, state, v)
            mod_vs.append(v - ct.SigmaDag.scale(tilde))
        outs = simulate_channel(H, F, G, b_ini - ct.V2 @ tilde_ini, mod_vs)
        if any(o != 0 for o in outs):
            _report(6, "output zeroing", False, "random channel leaked")
        random_ok += 1

    public = bench_enc.public
    qq = bench_setup.params.q
    Fbar = build_fbar(bench_setup.mod_maps.block_sizes, qq)
    l = bench_setup.bank.l_total
    horizon = 4 * l
    rng2 = random.Random(99)
    bench_ok = True
    b_ini = ModMatrix.column([qq.cmod(rng2.randrange(qq.q))
                              for _ in range(l)], qq)
    b_vs = [ModMatrix.column([qq.cmod(rng2.randrange(qq.q))
                              for _ in range(public.gain.Gbar.ncols)], qq)
            for _ in range(horizon)]
    for j in range(public.n_channels):
        ct = build_transform(public.Hbar.row(j), Fbar, public.gain.Gbar, j=j)
        tilde_ini, state = cancellation_init(ct, b_ini)
        mod_vs = []
        for v in b_vs:
            tilde, state = cancellation_step(ct, state, v)
            mod_vs.append(v - ct.SigmaDag.scale(tilde))
        outs = simulate_channel(public.Hbar.row(ct.j), Fbar, public.gain.Gbar,
                                b_ini - ct.V2 @ tilde_ini, mod_vs)
        if any(o != 0 for o in outs):
            bench_ok = False
            break

    # the deployed path: zero messages through the encryptor and observer
    params = dataclasses.replace(bench_setup.params, N=public.N)
    rng3 = SeededRng(99)
    session = EncryptorSession(keygen(public.N, qq, rng3), params, public,
                               rng=rng3)
    zeros = repeat(ModMatrix.zeros(public.gain.Gbar.ncols, 1, qq), horizon)
    deployed_ok = all(
        residue_first_column(state, public).is_zero()
        for _, state in cloud_states(chain(
            [session.enc_initial(ModMatrix.zeros(l, 1, qq))],
            map(session.enc_input, zeros)), public))
    _report(6, "output zeroing: 100 random + all 60 benchmark channels, "
            "oracle and deployed",
            bench_ok and deployed_ok and random_ok >= 100,
            f"horizon 4l, exact zeros; converse covered by the exhaustive "
            f"small-field sweep in the zero-dynamics tests")


def test_criterion_6b_zeroing_converse_exhaustive():
    """Converse direction checked by brute force over a small field."""
    from .test_zerodyn import TestZeroingCharacterization
    TestZeroingCharacterization().test_converse_exhaustive_small_field()
    _report(6, "zeroing converse (exhaustive small-field enumeration)", True)


def test_criterion_7_lwe_properties(bench_setup, bench_enc):
    """The error bound on every encryption of the benchmark run, and the
    white-box error budget: at every step the projected error the run drew
    is at most W, the exact worst case the parameter gate reports, which
    is below lift/2."""
    bound = NoiseParams(bench_setup.params.Delta).bound
    bound_ok = all(e.max_abs() <= bound for e in bench_enc.errors)
    errs = error_trajectory(bench_enc.errors,
                            bench_setup.maps.Gbar,
                            bench_setup.bank.block_sizes, 49)
    half = bench_setup.params.lift // 2
    W = validate_params(bench_setup.params,
                        bench_setup.mod_maps).lift_bound.rhs / 2
    budget_ok = W < half
    worst = 0
    for e in errs:
        for row in bench_setup.maps.PhiPinvBar:
            val = abs(sum(a * b for a, b in zip(row, e)))
            worst = max(worst, val)
            if val > W:
                budget_ok = False
    _report(7, f"LWE error bound on {len(bench_enc.errors)} encryptions, "
            "error budget", bound_ok and budget_ok,
            f"max projected error {worst:.3e} <= W = {float(W):.3e} "
            f"< lift/2 = {half:.3e}")


def test_criterion_8_view_roundtrips(bench_setup, bench_enc):
    """Deterministic view transformations reproduce each other bit-exactly."""
    v1 = f2_view2_to_view1(bench_enc.view2, bench_enc.public,
                           bench_setup.params)
    v2 = f1_view1_to_view2(bench_enc.view1, bench_enc.public,
                           bench_setup.params)
    bench_ok = v1 == bench_enc.view1 and v2 == bench_enc.view2

    import itertools
    q11 = Modulus(11)
    public = _tiny_public(q11, (3,), [[1], [0], [1]], [[2, 0, 1]],
                          N=1)
    params = _tiny_params(q11, N=1, lift=2)
    sk = secret_key([3], q11)
    tiny_ok = True
    for a, b in itertools.product(range(11), repeat=2):
        vbars = [ModMatrix.column([v], q11) for v in (a, b, a, b, a, b)]
        z0 = ModMatrix.column([b, a, (a + b) % 11], q11)
        view1, view2 = _run_tiny_session(public, params, sk,
                                         ZeroErrorRng(a * 11 + b), z0, vbars)
        if (f2_view2_to_view1(view2, public, params) != view1
                or f1_view1_to_view2(view1, public, params) != view2):
            tiny_ok = False
            break
    _report(8, "view roundtrips bit-exact (benchmark + exhaustive small)",
            bench_ok and tiny_ok, "121 exhaustive input patterns at q=11")


def test_criterion_9_parameter_validation(bench_setup):
    """The published parameter tuple satisfies the bound inequalities under
    exact rational evaluation."""
    import dataclasses
    params = dataclasses.replace(bench_setup.params, N=4096)
    report = validate_params(params, bench_setup.mod_maps)
    ok = report.all_pass
    _report(9, "benchmark parameter tuple passes the bound inequalities", ok,
            f"overflow margin {report.modulus_bound.margin:.3g}, "
            f"lift margin {report.lift_bound.margin:.3g} (exact worst "
            f"case), combined margin {report.modulus_lift_bound.margin:.3g}")
