"""Layered benchmark of the encrypted observer on the three-inertia scenario.

    python3 perfbench/run.py --workload enc-n64 --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

  enc-n64    one deployment step at a time at LWE dimension N = 64, TestRng
  enc-n4096  the same at the security dimension N = 4096, SecureRng
  audit-n64  serialize, parse and re-derive recorded N = 64 transcripts

`--workload all` runs the three in turn, each in its own process, and
prints every end-to-end metric of each as a table.

Every step's output is checked against the quantized plaintext oracle,
outside the timed region.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the gated end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The line
before it is the full report: every metric with its unit and sample count,
the environment, and the counts.  The command exits non-zero when any step
fails its check.

Times are reported at a reference machine speed (see `Clock`), with the raw
wall times beside them in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from operator import mul
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import cipherobs  # noqa: E402
from cipherobs import encobs, lwe, pipeline, plantsim, quantobs, secviews  # noqa: E402
from tracing import Tracer, resolve  # noqa: E402

if not Path(cipherobs.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
    sys.exit(f"cipherobs imported from {cipherobs.__file__}, not from {ROOT / 'src'}")

SCENARIO = pipeline.bundled_scenario_path()
EPISODE_STEPS = 51   # states 1..51 include both attack windows (flags 26-35, 44-50)
AUDIT_STEPS = 4      # input steps per recorded transcript
MIN_SETUPS = 5       # set-ups per run at least; setup_s is their median
CALIB_REF_S = 0.8e-3  # calibration kernel time that defines the reference speed

WORKLOADS = {
    "enc-n64": {"kind": "enc", "N": 64, "rng": "TestRng"},
    "enc-n4096": {"kind": "enc", "N": 4096, "rng": "SecureRng"},
    "audit-n64": {"kind": "audit", "N": 64, "rng": "TestRng"},
}

# Gated end-to-end metrics (BENCHMARK.json), measured with tracing off.
END_TO_END = ("setup_s", "step_ms.p50", "peak_rss_mb")

# Layers are (metric, owner, attribute).  Set-up layers report whole calls;
# step layers report self time, i.e. minus their traced children.
SETUP_LAYERS = (
    ("pipeline.SystemSetup.from_scenario.s", pipeline.SystemSetup, "from_scenario"),
    ("lwe.keygen.s", lwe, "keygen"),
    ("encobs.ObserverPublic.build.s", encobs.ObserverPublic, "build"),
    ("encobs.enc_initial.s", encobs.EncryptorSession, "enc_initial"),
)
STEP_LAYERS = (
    ("lwe.encrypt_with_artifacts.ms", encobs, "encrypt_with_artifacts"),
    ("zerodyn.cancel.ms", encobs.EncryptorSession, "enc_input"),
    ("encobs.step_encrypted.ms", encobs, "step_encrypted"),
    ("encobs.residue_first_column.ms", encobs, "residue_first_column"),
    ("encobs.disclose_residue.ms", encobs, "disclose_residue"),
    ("quantobs.detect.ms", quantobs, "detect"),
    ("encobs.recover_encrypted_state.ms", encobs, "recover_encrypted_state"),
)
BASELINE_LAYER = ("quantobs.step_quantized.ms", quantobs, "step_quantized")
AUDIT_LAYERS = (
    ("secviews.View1.to_bytes.s", secviews.View1, "to_bytes"),
    ("secviews.View2.to_bytes.s", secviews.View2, "to_bytes"),
    ("secviews.View1.from_bytes.s", secviews.View1, "from_bytes"),
    ("secviews.View2.from_bytes.s", secviews.View2, "from_bytes"),
    ("secviews.f2_view2_to_view1.s", secviews, "f2_view2_to_view1"),
    ("secviews.f1_view1_to_view2.s", secviews, "f1_view1_to_view2"),
)
# Computed multiply-adds per step: (metric, layer it runs in, formula).
MAC_COUNTS = (
    ("encobs.step_encrypted.mac", "encobs.step_encrypted.ms",
     lambda l, h, n_ch, N, n: l * h * (N + 2 * n_ch)),    # Gbar @ [mid | columns]
    ("lwe.encrypt.mac", "lwe.encrypt_with_artifacts.ms",
     lambda l, h, n_ch, N, n: h * N),                      # mask A @ sk
    ("encobs.recover.mac", "encobs.recover_encrypted_state.ms",
     lambda l, h, n_ch, N, n: l * N + n * l),              # mid @ sk, PhiPinvBar @ dec
)
# Per-layer metrics every workload reports (BENCHMARK.json `per_layer`).
PER_LAYER = ([m for m, _, _ in STEP_LAYERS + SETUP_LAYERS + (BASELINE_LAYER,)]
             + [m for m, _, _ in MAC_COUNTS]
             + [m + "_per_s" for m, _, _ in MAC_COUNTS]
             + ["trace.coverage", "trace.overhead"])

pc = time.perf_counter


class Series(dict):
    """Metric name -> {"value", "unit", ...}, filled in report order."""

    def put(self, name, value, unit, n=None, **extra):
        entry = {"value": value, "unit": unit}
        if n is not None:
            entry["n"] = n
        entry.update(extra)
        self[name] = entry


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100
    k = n - 11                      # ten samples lie above ordered[k]
    return ordered[k], 100 * (k + 1) // n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_CAL_Q = 2 ** 109 - 31
_cal_rng = random.Random(0)
_CAL_ROWS = tuple(tuple(_cal_rng.randrange(_CAL_Q) - _CAL_Q // 2 for _ in range(64))
                  for _ in range(24))
_CAL_COL = tuple(_cal_rng.randrange(1 << 18) for _ in range(64))


def calibrate():
    """Wall time of a fixed pure-Python kernel shaped like the observer's
    work: 109-bit multiply-adds, centred reduction and tuple building.  It
    shares no code with the library, so only the machine's speed moves it."""
    t0 = pc()
    for _ in range(3):
        for row in _CAL_ROWS:
            s = sum(map(mul, row, _CAL_COL))
            tuple(s - ((2 * s + _CAL_Q) // (2 * _CAL_Q)) * _CAL_Q for _ in range(8))
    return pc() - t0


class Clock:
    """Times units of work at reference speed.

    On a shared virtual machine throughput can drift by up to 2x within
    minutes (measured on a 2-vCPU Xeon VM).  The calibration kernel runs
    just before and just after each unit, and the unit's wall time is scaled by CALIB_REF_S over
    the mean of the two.  Raw wall times are reported beside the scaled
    ones."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.scale = {}     # unit id -> factor to reference speed
        self.calib = []     # every calibration time

    @contextmanager
    def unit(self, uid, trace=True):
        """Time a block as unit `uid`, traced when there is a tracer and
        `trace` holds; read `scale[uid]` after the block."""
        c0 = calibrate()
        with self.tracer.active(uid) if self.tracer and trace else nullcontext():
            yield
        c1 = calibrate()
        self.calib += [c0, c1]
        self.scale[uid] = 2 * CALIB_REF_S / (c0 + c1)


def put_time(out, name, samples, stat, unit, per=1, **extra):
    """Report stat() of (wall, scale) samples at reference speed, with the
    same statistic of the raw wall times as `wall`."""
    mult = {"s": 1.0, "ms": 1e3}[unit] / per
    out.put(name, stat([w * k for w, k in samples]) * mult, unit, len(samples),
            wall=stat([w for w, _ in samples]) * mult, **extra)


# -- deployment ---------------------------------------------------------------

def deploy(N, rng):
    """Set-up of one deployment: scenario and maps, key, public observer
    data and the encrypted initial state.  Returns everything a step uses."""
    setup = pipeline.SystemSetup.from_scenario(SCENARIO, N=N)
    params = setup.params
    sk = lwe.keygen(N, params.q, rng)
    public = encobs.ObserverPublic.build(setup.mod_maps, params)
    session = encobs.EncryptorSession(sk, params, public, rng=rng)
    batch = session.enc_initial(quantobs.quantize_initial(setup.zhat_ini, params))
    return setup, sk, public, session, encobs.EncObserverState.from_initial(batch)


def shapes(setup, N):
    """(l, h, n_ch, N, n) of the benchmark observer at dimension N."""
    bank = setup.bank
    model = setup.bundle.model
    return (bank.l_total, model.m + model.p, setup.mod_maps.Hbar.nrows, N,
            model.n)


def run_enc(wl, seed, seconds, clock, steps=EPISODE_STEPS, setups=MIN_SETUPS):
    """Closed loop over deployment steps until `seconds` have passed and at
    least one episode of `steps` steps is complete.  Each episode starts
    from a fresh set-up; with a tracer, odd steps are traced."""
    N = wl["N"]
    rng = lwe.TestRng(seed) if wl["rng"] == "TestRng" else lwe.SecureRng()
    ref = pipeline.SystemSetup.from_scenario(SCENARIO, N=N)
    traj = plantsim.run_closed_loop(ref.bundle.model, ref.bundle.attacks, steps)
    vbars = [quantobs.quantize_input(traj.u[t], traj.y[t], ref.params)
             for t in range(steps)]
    with clock.unit(("oracle", 0)):
        oracle = pipeline.run_quantized_mode(ref, steps + 1)

    setup_s, step_s, verdict_s, traced_s = [], [], [], []
    failed = attempted = episodes = 0

    def timed_setup():
        uid = ("setup", len(setup_s))
        with clock.unit(uid):
            t0 = pc()
            dep = deploy(N, rng)
            t1 = pc()
        setup_s.append((t1 - t0, clock.scale[uid]))
        return dep

    start = pc()
    while episodes == 0 or pc() - start < seconds:
        setup, sk, public, session, state = timed_setup()
        params = setup.params
        phi = setup.mod_maps.PhiPinvBar
        for t in range(steps):
            if episodes and pc() - start >= seconds:
                break
            uid = ("step", attempted)
            odd = attempted % 2 == 1
            with clock.unit(uid, trace=odd):
                t0 = pc()
                batch = session.enc_input(vbars[t])
                state = encobs.step_encrypted(state, batch, public)
                r1 = encobs.residue_first_column(state, public)
                disclosed = encobs.disclose_residue(r1, params)
                flag = quantobs.detect(disclosed, t + 1, params).flag
                t1 = pc()
                xhat = encobs.recover_encrypted_state(state, 0, sk, params, phi)
                t2 = pc()
            k = clock.scale[uid]
            if clock.tracer and odd:
                traced_s.append((t2 - t0, k))
            else:
                step_s.append((t2 - t0, k))
                verdict_s.append((t1 - t0, k))
            attempted += 1
            expected_flag = oracle.records[t + 1].detected
            if (disclosed != oracle.rbars[t + 1] or flag != expected_flag
                    or (not flag and xhat != oracle.xbars[t + 1])):
                failed += 1
        episodes += 1
    while len(setup_s) < setups:
        timed_setup()

    out = Series()
    if clock.tracer is None:
        put_time(out, "setup_s", setup_s, statistics.median, "s")
        put_time(out, "step_ms.p50", step_s, statistics.median, "ms")
        pct = tail([w for w, _ in step_s])[1]
        put_time(out, "step_ms.tail", step_s, lambda v: tail(v)[0], "ms",
                 percentile=f"p{pct}")
        put_time(out, "verdict_ms.p50", verdict_s, statistics.median, "ms")
        out.put("steps_per_s", len(step_s) / sum(w * k for w, k in step_s), "1/s",
                len(step_s), wall=len(step_s) / sum(w for w, _ in step_s))
        out.put("peak_rss_mb", peak_rss_mb(), "MB")
        out.put("fail_frac", failed / attempted, "ratio", attempted)
    else:
        layer_metrics(out, clock, step_phase="step", oracle_phase="oracle",
                      dims=shapes(ref, N))
        untraced = statistics.median(w * k for w, k in step_s)
        out.put("trace.coverage", coverage(clock.tracer, traced_s), "ratio",
                len(traced_s))
        out.put("trace.overhead", statistics.median(w * k for w, k in traced_s)
                / untraced, "ratio", len(traced_s), untraced_n=len(step_s))
        out.put("encobs.overhead_x", untraced * 1e3
                / out["quantobs.step_quantized.ms"]["value"], "ratio",
                note="untraced step_ms.p50 / quantobs.step_quantized.ms")
    return out, attempted, failed


# -- audit --------------------------------------------------------------------

def transcript_steps(view1, view2):
    """Transcript step t: view-1 ciphertext and residue t plus the view-2
    ciphertexts of step t; step 0 holds the initial ciphertexts."""
    return list(zip((view1.init_ct,) + view1.input_cts, view1.residues,
                    (view2.init_cts,) + view2.input_cts))


def failed_steps(recorded, *others):
    """Transcript steps on which any other view pair differs from the
    recorded one (every step, if the lengths differ)."""
    if any(len(other) != len(recorded) for other in others):
        return len(recorded)
    return sum(any(other[t] != entry for other in others)
               for t, entry in enumerate(recorded))


def run_audit(wl, seed, seconds, clock, steps=AUDIT_STEPS, setups=MIN_SETUPS):
    """Record `setups` transcripts, then audit them in turn until `seconds`
    have passed: serialize both views, parse them back, and re-derive each
    view from the other.  With a tracer, odd passes are traced."""
    start = pc()
    setup_s, pass_s, traced_s, transcripts = [], [], [], []
    for k in range(setups):
        uid = ("setup", k)
        with clock.unit(uid):
            t0 = pc()
            setup = pipeline.SystemSetup.from_scenario(SCENARIO, N=wl["N"])
            run = pipeline.run_encrypted_mode(setup, steps, seed=seed * setups + k,
                                              record_views=True)
            t1 = pc()
        setup_s.append((t1 - t0, clock.scale[uid]))
        transcripts.append((setup, run.public, run.view1, run.view2))

    n_steps = steps + 1
    failed = passes = 0
    view_bytes, parsed = [], []
    while passes < (2 if clock.tracer else 1) or pc() - start < seconds:
        setup, public, view1, view2 = transcripts[passes % setups]
        params = setup.params
        uid = ("pass", passes)
        odd = passes % 2 == 1
        with clock.unit(uid, trace=odd):
            t0 = pc()
            blob1 = view1.to_bytes()
            blob2 = view2.to_bytes()
            parsed1 = secviews.View1.from_bytes(blob1, params.q)
            parsed2 = secviews.View2.from_bytes(blob2)
            derived1 = secviews.f2_view2_to_view1(parsed2, public, params)
            derived2 = secviews.f1_view1_to_view2(parsed1, public, params)
            t1 = pc()
        (traced_s if clock.tracer and odd else pass_s).append(
            (t1 - t0, clock.scale[uid]))
        # Serialization is a function of the fields, so equal views mean
        # byte-identical transcripts.
        failed += failed_steps(transcript_steps(view1, view2),
                               transcript_steps(parsed1, parsed2),
                               transcript_steps(derived1, derived2))
        view_bytes.append((len(blob1), len(blob2)))
        parsed.append(1 + len(parsed1.input_cts) + len(parsed2.init_cts)
                      + sum(len(s) for s in parsed2.input_cts))
        passes += 1

    attempted = passes * n_steps
    out = Series()
    if clock.tracer is None:
        put_time(out, "setup_s", setup_s, statistics.median, "s")
        put_time(out, "step_ms.p50", pass_s, statistics.median, "ms", per=n_steps,
                 note=f"audit pass time / {n_steps} transcript steps")
        out.put("steps_per_s", len(pass_s) * n_steps / sum(w * k for w, k in pass_s),
                "1/s", len(pass_s),
                wall=len(pass_s) * n_steps / sum(w for w, _ in pass_s))
        out.put("peak_rss_mb", peak_rss_mb(), "MB")
        out.put("fail_frac", failed / attempted, "ratio", attempted)
        out.put("transcript_kb_per_step",
                statistics.mean(a + b for a, b in view_bytes) / n_steps / 1024,
                "KB", len(view_bytes), label="counted")
    else:
        layer_metrics(out, clock, step_phase="setup", oracle_phase="setup",
                      dims=shapes(transcripts[0][0], wl["N"]))
        for name, _, _ in AUDIT_LAYERS:
            out.put(name, layer_p50(clock, name, "pass", self_time=True),
                    "s", len(traced_s))
        out.put("trace.coverage", coverage(clock.tracer, traced_s), "ratio",
                len(traced_s))
        out.put("trace.overhead", statistics.median(w * k for w, k in traced_s)
                / statistics.median(w * k for w, k in pass_s),
                "ratio", len(traced_s), untraced_n=len(pass_s))
        out.put("lwe.ciphertexts_parsed", statistics.mean(parsed) / n_steps,
                "count", len(parsed), label="counted per transcript step")
        out.put("secviews.view1_bytes", statistics.mean(a for a, _ in view_bytes)
                / n_steps, "B", len(view_bytes), label="counted per transcript step")
        out.put("secviews.view2_bytes", statistics.mean(b for _, b in view_bytes)
                / n_steps, "B", len(view_bytes), label="counted per transcript step")
    return out, attempted, failed


# -- per-layer metrics --------------------------------------------------------

def traced_layers(kind):
    layers = SETUP_LAYERS + STEP_LAYERS + (BASELINE_LAYER,)
    if kind == "audit":
        layers += AUDIT_LAYERS
    return layers


METRIC_SPANS = {metric: resolve(owner, attr)[2]
                for metric, owner, attr in traced_layers("audit")}


def layer_p50(clock, metric, phase, self_time):
    """Median at reference speed over one layer's calls in the units of one
    phase ("setup", "oracle", "step" or "pass"), in the metric's unit.  A
    timed step or audit pass makes exactly one call per layer."""
    tracer = clock.tracer
    name = METRIC_SPANS[metric]
    times = tracer.self_times() if self_time else [
        end - start for _, start, end, _, _ in tracer.spans]
    values = [dt * clock.scale[span[4]] for span, dt in zip(tracer.spans, times)
              if span[0] == name and span[4][0] == phase]
    scale = 1e3 if metric.endswith(".ms") else 1.0
    return statistics.median(values) * scale


def layer_metrics(out, clock, step_phase, oracle_phase, dims):
    """Step layers (self time), set-up layers (whole calls), the plaintext
    baseline and the computed multiply-add counts and rates."""
    for name, _, _ in STEP_LAYERS:
        out.put(name, layer_p50(clock, name, step_phase, True), "ms")
    for name, _, _ in SETUP_LAYERS:
        out.put(name, layer_p50(clock, name, "setup", False), "s")
    name = BASELINE_LAYER[0]
    out.put(name, layer_p50(clock, name, oracle_phase, True), "ms")
    for name, layer, formula in MAC_COUNTS:
        macs = formula(*dims)
        out.put(name, macs, "count", label="computed")
        out.put(name + "_per_s", macs / (out[layer]["value"] / 1e3), "1/s",
                label="computed")


def coverage(tracer, traced):
    """Sum of top-level span time in the traced steps or passes / their
    wall time."""
    covered = sum(end - start for _, start, end, parent, uid in tracer.spans
                  if parent is None and uid[0] in ("step", "pass"))
    return covered / sum(w for w, _ in traced)


# -- environment and entry point ----------------------------------------------

def git_sha():
    """HEAD of the checkout, read from its own .git (none in a bare copy)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload, wl, seed, seconds, trace, clock):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "N": wl["N"], "rng": wl["rng"], "calib_ref_ms": CALIB_REF_S * 1e3,
        "calib_ms": statistics.median(clock.calib) * 1e3, "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": git_sha(),
    }


def run_workload(workload, seed, seconds, trace, **sizes):
    """Run one workload; returns (report, result line)."""
    wl = WORKLOADS[workload]
    tracer = None
    if trace:
        tracer = Tracer([(owner, attr)
                         for _, owner, attr in traced_layers(wl["kind"])])
    clock = Clock(tracer)
    runner = run_enc if wl["kind"] == "enc" else run_audit
    series, attempted, failed = runner(wl, seed, seconds, clock, **sizes)
    if tracer:
        silent = tracer.silent()
        if silent:
            raise RuntimeError(f"traced spans recorded no call: {silent}")
    report = {"env": environment(workload, wl, seed, seconds, trace, clock),
              "attempted": attempted, "failed": failed, "metrics": series}
    names = PER_LAYER if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": series[name]["value"],
                                 "unit": series[name]["unit"]}
                          for name in names}}
    if tracer:
        tracer.write(HERE / "out" / f"trace-{workload}-seed{seed}.json",
                     report["env"])
    return report, result


def run_all(args):
    """Every workload in its own process (peak RSS is per process); prints
    each one's report as a table."""
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, check=False)
        ok = ok and proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"== {workload}: no result (exit {proc.returncode})\n{proc.stderr}")
            continue
        report = json.loads(lines[-2])["report"]
        print(f"== {workload}  attempted {report['attempted']}  "
              f"failed {report['failed']}  exit {proc.returncode}")
        for name, m in report["metrics"].items():
            extra = "".join(f"  {k}={v}" for k, v in m.items()
                            if k not in ("value", "unit"))
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s}{extra}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report, result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
