"""Command-line interface: design report, simulation modes, verification
suites and the encrypted-observer benchmark.

Exit codes: 0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import encobs, quantobs, secviews, zerodyn
from .lwe import MAX_N, TestRng, keygen
from .modring import ModMatrix, Modulus, PrimalityError
from .obsdesign import DesignError, design_report
from .pipeline import (
    DEFAULTS,
    SystemSetup,
    bundled_scenario_path,
    records_to_csv,
    run_encrypted_mode,
    run_quantized_mode,
    run_reference_mode,
)
from .plantsim import PlantError, SchurStabilityError
from .quantobs import validate_params

__all__ = ["main"]


def _load_config(path):
    """A config file is either a scenario (has "A") or a wrapper with a
    "scenario" path plus parameter overrides named as in DEFAULTS; any
    other key is refused."""
    if path is None:
        return bundled_scenario_path(), {}
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise PlantError(f"config file must hold a JSON object, got "
                         f"{type(raw).__name__}")
    if "A" in raw:
        return path, {}
    if not isinstance(raw.get("scenario"), str):
        raise PlantError("config file needs either plant matrices or a "
                         "'scenario' path string")
    unknown = ", ".join(map(repr, sorted(set(raw) - {"scenario", *DEFAULTS})))
    if unknown:
        raise PlantError(f"unknown run config key {unknown}; the keys are "
                         f"'scenario', {', '.join(DEFAULTS)}")
    overrides = {k: raw[k] for k in DEFAULTS if k in raw}
    return Path(path).parent / raw["scenario"], overrides


def _setup_from_args(args) -> SystemSetup:
    """Flags beat the run config, which beats DEFAULTS."""
    scenario, overrides = _load_config(args.config)
    kw = {**DEFAULTS, **overrides}
    flags = {"s1": args.s1, "s2": args.s2, "lift": args.lift, "q": args.q,
             "Delta": args.delta, "eps": args.eps,
             "N": getattr(args, "N", None)}
    kw.update((name, val) for name, val in flags.items() if val is not None)
    return SystemSetup.from_scenario(scenario, **_run_params(kw))


def _run_params(kw: dict) -> dict:
    """The run parameters, checked once before any is used: N as
    `_lwe_dim` takes it, q and lift integers (lift >= 1), and s1, s2,
    Delta and eps finite non-bool reals, returned as floats (s1, s2 > 0;
    Delta, eps >= 0).  DesignError names the first bad one."""
    _lwe_dim(kw["N"])
    if type(kw["q"]) is not int:
        raise DesignError(f"q must be an integer, got {kw['q']!r}")
    if type(kw["lift"]) is not int or kw["lift"] < 1:
        raise DesignError(f"lift must be an integer >= 1, "
                          f"got {kw['lift']!r}")
    out = dict(kw)
    for name in ("s1", "s2", "Delta", "eps"):
        value, positive = kw[name], name in ("s1", "s2")
        try:
            x = float(value) if type(value) in (int, float) else math.nan
        except OverflowError:
            x = math.nan
        if math.isinf(x) or not (x > 0 if positive else x >= 0):
            raise DesignError(f"{name} must be a finite real "
                              f"{'>' if positive else '>='} 0, got {value!r}")
        out[name] = x
    return out


def _lwe_dim(N) -> int:
    """N itself when it is an integer in [1, MAX_N]; DesignError
    otherwise."""
    if type(N) is not int or N < 1:
        raise DesignError(f"LWE dimension N must be an integer >= 1, "
                          f"got {N!r}")
    if N > MAX_N:
        raise DesignError(f"LWE dimension N must be at most {MAX_N}, the "
                          f"longest key with exact key products, got {N}")
    return N


def _at_dim(setup: SystemSetup, N: int) -> SystemSetup:
    """The same set-up with its params built at LWE dimension N."""
    return dataclasses.replace(
        setup, params=dataclasses.replace(setup.params, N=N))


def cmd_design(args) -> int:
    setup = _setup_from_args(args)
    print(design_report(setup.bank))
    public = encobs.ObserverPublic.build(setup.mod_maps, setup.params)
    counts = Counter(m.nu for m in public.channels)
    summary = ", ".join(f"nu={k}: {v} channels" for k, v in sorted(counts.items()))
    print(f"relative degrees: {summary}")
    print(f"init_error={setup.params.init_error:.9g}  "
          f"signal_bound={setup.params.signal_bound:.9g}")
    report = validate_params(setup.params, setup.maps.Gbar)
    for line in report.lines():
        print(line)
    return 0 if report.all_pass else 1


def cmd_simulate(args) -> int:
    setup = _setup_from_args(args)
    report = validate_params(setup.params, setup.maps.Gbar)
    if args.mode == "encrypted" and not report.all_pass:
        print("parameter bounds failed; refusing encrypted run", file=sys.stderr)
        for line in report.lines():
            print(line, file=sys.stderr)
        return 2
    if args.mode == "reference":
        records = run_reference_mode(setup, args.steps)
    elif args.mode == "quantized":
        records = run_quantized_mode(setup, args.steps).records
    else:
        records = run_encrypted_mode(setup, args.steps, seed=args.seed).records
    csv_text = records_to_csv(records)
    if args.out:
        Path(args.out).write_text(csv_text)
        print(f"wrote {len(records)} steps to {args.out}")
    else:
        print(csv_text, end="")
    flagged = [r.step for r in records if r.detected]
    if flagged:
        print(f"attack flagged at steps: {flagged}", file=sys.stderr)
    return 0


# -- verification suites ----------------------------------------------------

def _suite_deadbeat(setup: SystemSetup) -> list:
    from .obsdesign import run_reference_observer
    from .plantsim import AttackScenario, run_closed_loop
    failures = []
    rng = np.random.default_rng(7)
    zhat_ini = rng.normal(size=setup.bank.l_total)
    traj = run_closed_loop(setup.bundle.model, AttackScenario(), 30)
    ref = run_reference_observer(setup.bank, traj, zhat_ini)
    for t in range(30):
        for i, part in enumerate(setup.bank.partials):
            z_true = part.Phi @ traj.x[t]
            err = np.max(np.abs(z_true - ref.zhat[t][setup.bank.z_slice(i)]))
            if t >= part.l_i and err > 1e-8:
                failures.append(
                    f"sensor {i + 1} error {err:.2e} at step {t} >= l_i")
    return failures


def _zeroing_failures(name: str, maps, params, seed: int) -> list:
    """Encrypt zero messages with the deployed encryptor and run them
    through the encrypted observer of `maps`: every channel's residue first
    column must be exactly 0 for 4 l steps."""
    public = encobs.ObserverPublic.build(maps, params)
    q = public.q
    l, h = public.gain.Gbar.shape
    rng = TestRng(seed)
    session = encobs.EncryptorSession(keygen(public.N, q, rng), params,
                                      public, rng=rng)
    state = encobs.EncObserverState.from_initial(
        session.enc_initial(ModMatrix.zeros(l, 1, q)))
    for t in range(4 * l + 1):
        if t:
            batch = session.enc_input(ModMatrix.zeros(h, 1, q))
            state = encobs.step_encrypted(state, batch, public)
        if not encobs.residue_first_column(state, public).is_zero():
            return [f"{name}: the mask reached the residue at step {t}"]
    return []


def _suite_zeroing(seed: int, setup: SystemSetup) -> list:
    """Output zeroing of the deployed cancellation on random block-shift
    observers over q = 101 at N = 8 (sparse gains and residue rows, so some
    channels have nu > 1) and on the benchmark observer at N = 16.  Residue
    rows without a relative degree are dropped; a draw is skipped only
    when no row is left."""
    import random as pyrandom
    failures = []
    q = Modulus(101)
    params = dataclasses.replace(setup.params, q=q, N=8)
    rng = pyrandom.Random(seed)
    for trial in range(20):
        blocks = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        l, h = sum(blocks), rng.choice([2, 3])
        G = ModMatrix([[rng.randrange(101) for _ in range(h)]
                       if rng.random() < 0.5 else [0] * h
                       for _ in range(l)], q)
        H = ModMatrix([[rng.choice([0, rng.randrange(101)]) for _ in range(l)]
                       for _ in range(rng.randint(1, 3))], q)
        maps, rows = dataclasses.replace(setup.mod_maps, Gbar=G,
                                         block_sizes=blocks), []
        for row in H.rows:
            try:
                zerodyn.channel_maps(ModMatrix([row], q), maps.gain.Fbar, G)
            except zerodyn.RelativeDegreeUndefined:
                continue
            rows.append(row)
        if rows:
            maps = dataclasses.replace(maps, Hbar=ModMatrix(rows, q))
            failures += _zeroing_failures(f"trial {trial}", maps, params,
                                          seed + trial)
    return failures + _zeroing_failures(
        "benchmark", setup.mod_maps, _at_dim(setup, 16).params, seed)


def _suite_encrypted(setup: SystemSetup, seed: int) -> list:
    """A recorded encrypted run: every state rebuilt from its View 2 must
    recover the quantized estimate, and the views must parse back from
    their bytes and map onto each other."""
    failures = []
    steps = 12
    try:
        run = run_encrypted_mode(_at_dim(setup, 32), steps, seed=seed,
                                 record_views=True)
    except (encobs.EncObsError, quantobs.QuantError) as exc:
        return [str(exc)]
    v2, public = run.view2, run.public
    # states 0..steps, so every recorded batch is decrypted
    for t, (state, xbar) in enumerate(zip(
            v2.states(public), run_quantized_mode(setup, steps + 1).xbars)):
        # one decryption, first - shared sk, serves every channel
        if encobs.recover_encrypted_state(
                state, 0, run.sk, setup.params,
                setup.mod_maps.PhiPinvBar) != xbar:
            failures.append(f"recovery from View 2 mismatch at step {t}")
    view1 = secviews.View1.from_bytes(run.view1.to_bytes(), public.q)
    view2 = secviews.View2.from_bytes(v2.to_bytes())
    if (view1, view2) != (run.view1, v2):
        failures.append("the views do not parse back from their bytes")
    if secviews.f2_view2_to_view1(view2, public, setup.params) != run.view1:
        failures.append("view roundtrip: f2 does not reproduce view 1")
    if secviews.f1_view1_to_view2(view1, public, setup.params) != v2:
        failures.append("view roundtrip: f1 does not reproduce view 2")
    return failures


def cmd_verify(args) -> int:
    setup = _setup_from_args(args)
    suites = [
        ("deadbeat nilpotency", lambda: _suite_deadbeat(setup)),
        ("output zeroing", lambda: _suite_zeroing(args.seed, setup)),
        ("disclosure/recovery/views", lambda: _suite_encrypted(setup, args.seed)),
    ]
    any_failed = False
    for name, fn in suites:
        t0 = time.perf_counter()
        failures = fn()
        dt = time.perf_counter() - t0
        status = "ok" if not failures else "FAIL"
        print(f"[{status}] {name} ({dt:.2f}s)")
        for msg in failures:
            print(f"    {msg}")
            any_failed = True
    return 1 if any_failed else 0


def cmd_bench(args) -> int:
    dims = [_lwe_dim(int(d) if d.strip().isdecimal() else d)
            for d in args.dims.split(",")]
    setup = _setup_from_args(args)
    print(f"channels: {setup.bank.n_r}, steps per measurement: {args.steps}")
    for N in dims:
        run = run_encrypted_mode(_at_dim(setup, N), args.steps,
                                 seed=args.seed)
        print(f"N={N}: setup {run.setup_s * 1000:.1f} ms, "
              f"{run.steps_s / args.steps * 1000:.1f} ms/step")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cipherobs",
        description="Encrypted state observer with attack detection on ciphertexts")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", default=None,
                        help="scenario JSON or run-config JSON (default: "
                             "bundled three-inertia benchmark)")
        sp.add_argument("--s1", type=float, default=None)
        sp.add_argument("--s2", type=float, default=None)
        sp.add_argument("--lift", type=int, default=None)
        sp.add_argument("--q", type=int, default=None)
        sp.add_argument("--delta", type=float, default=None)
        sp.add_argument("--eps", type=float, default=None)

    p_design = sub.add_parser("design", help="print the observer design report")
    add_common(p_design)
    p_design.set_defaults(fn=cmd_design)

    p_sim = sub.add_parser("simulate", help="run one mode and emit CSV")
    add_common(p_sim)
    p_sim.add_argument("--mode", choices=["reference", "quantized", "encrypted"],
                       default="quantized")
    p_sim.add_argument("--steps", type=int, default=50)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--lwe-dim", dest="N", type=int, default=None,
                       help="LWE dimension N (default 64; the security "
                            "dimension is 4096)")
    p_sim.set_defaults(fn=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the property suites")
    add_common(p_ver)
    p_ver.set_defaults(fn=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the encrypted observer")
    add_common(p_bench)
    p_bench.add_argument("--dims", default="64,1024,4096")
    p_bench.add_argument("--steps", type=int, default=5)
    p_bench.set_defaults(fn=cmd_bench)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="encrypt under the insecure, seeded TestRng "
                            "for a reproducible run (default: SecureRng)")
    for sp in (p_ver, p_bench):
        sp.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PlantError, SchurStabilityError, DesignError, PrimalityError,
            OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (quantobs.QuantError, encobs.EncObsError,
            zerodyn.ZeroDynError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
