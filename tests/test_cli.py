import dataclasses
import hashlib
import json
import re
import time
from types import SimpleNamespace

import pytest

from cipherobs import cli, pipeline
from cipherobs.cli import main
from cipherobs.modring import ModMatrix
from cipherobs.pipeline import bundled_scenario_path, run_encrypted_mode, \
    run_quantized_mode

from .helpers import HUGE_PRIME


def _encrypted_dims(monkeypatch, argv):
    """LWE dimension of every encrypted run that `main(argv)` makes; each
    run must use the N its set-up was built with."""
    dims = []

    def spy(setup, steps, **kw):
        run = run_encrypted_mode(setup, steps, **kw)
        assert run.sk.N == run.public.N == setup.params.N
        dims.append(run.sk.N)
        return run

    monkeypatch.setattr(cli, "run_encrypted_mode", spy)
    assert main(argv) == 0
    return dims


def _run_config(tmp_path, **overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": str(bundled_scenario_path()),
                               **overrides}))
    return str(cfg)


def _scenario(**fields):
    """The bundled scenario with `fields` replaced."""
    return {**json.loads(bundled_scenario_path().read_text()), **fields}


class TestDesign:
    def test_benchmark_report(self, capsys):
        assert main(["design"]) == 0
        out = capsys.readouterr().out
        assert "l=24" in out
        assert "l_max=6" in out
        assert "n_r=60" in out
        assert "nu=1: 60 channels" in out
        assert "lift noise budget: pass (margin 1.64)" in out
        assert "kappa(2)" not in out
        assert sum("noise budget" in line for line in out.splitlines()) == 1

    def test_set_up_lines_are_pinned(self, capsys):
        # channel degrees, calibration and the whole parameter report:
        # every set-up result these lines print keeps its value
        assert main(["design"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("relative degrees: nu=1: 60 channels")
        assert lines[start:] == [
            "relative degrees: nu=1: 60 channels",
            "init_error=1.1430892  signal_bound=6.45038811",
            "modulus overflow bound: pass (margin 1.078e+15)",
            "lift noise budget: pass (margin 1.64)",
            "modulus-lift bound: pass (margin 30.65)",
            "lift coprime to q: yes",
            "gbar inf norm: 262173",
        ]

    def test_paper_lift_fails_the_exact_budget(self, capsys):
        # the paper's lift 2^44 is below twice the exact worst case of the
        # recovery error, so design fails and an encrypted run is refused
        assert main(["design", "--lift", str(2 ** 44)]) == 1
        assert "lift noise budget: FAIL (margin 0.82)" \
            in capsys.readouterr().out
        assert main(["simulate", "--mode", "encrypted", "--steps", "2",
                     "--lift", str(2 ** 44)]) == 2

    def test_invalid_sparsity_rejected(self, tmp_path, capsys):
        raw = json.loads(bundled_scenario_path().read_text())
        raw["k"] = 5
        path = tmp_path / "bad_k.json"
        path.write_text(json.dumps(raw))
        assert main(["design", "--config", str(path)]) == 2

    def test_missing_config(self):
        assert main(["design", "--config", "/nonexistent/file.json"]) == 2

    # a run config or scenario of the wrong type or shape is refused with a
    # message, not a traceback
    @pytest.mark.parametrize("config, message", [
        ({"scenario": 5}, "'scenario' path string"),
        (None, "must hold a JSON object, got NoneType"),
        ({"scenario": ""}, "Is a directory"),
        (_scenario(A="x"), "malformed scenario file"),
        (_scenario(A=[[1, 2], [3]]), "malformed scenario file"),
        (_scenario(Ts="x"), "malformed scenario file"),
        (_scenario(k="x"), "malformed scenario file"),
        (_scenario(attacks=[{"sensor": 1, "end": 2, "value": 1.0}]),
         "missing field 'start'"),
        (_scenario(attacks=5), "malformed scenario file"),
        # json reads NaN and Infinity; every scenario number must be finite
        (_scenario(attacks=[{"sensor": 3, "start": 25, "end": 29,
                             "value": float("nan")}]),
         "attack value must be finite"),
        (_scenario(C=[[float("inf")] * 6] * 5), "C must be finite"),
        (_scenario(x_ini=[1, 1, float("inf"), 1, 1, 1]),
         "x_ini must be finite"),
        (_scenario(Ts=float("nan")), "Ts must be finite"),
        # the flag is --delta, the run config key Delta
        ({"scenario": str(bundled_scenario_path()), "delta": -1},
         "unknown run config key 'delta'")])
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys,
                                                config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["design", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    # the config itself, or the scenario a run config names
    @pytest.mark.parametrize("wrapped", [False, True],
                             ids=["config", "scenario"])
    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys,
                                                       wrapped):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00")
        if wrapped:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"scenario": "bin.json"}))
        assert main(["design", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "utf-8" in err


class TestSimulate:
    def test_quantized_csv_shape(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["simulate", "--mode", "quantized", "--steps", "12",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("step,time_s,residue_norm,threshold,detected,"
                            "est_error_norm,mode")
        assert len(lines) == 13
        assert lines[1].startswith("0,0,")
        assert lines[1].endswith(",quantized")

    def test_seeded_encrypted_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = main(["simulate", "--mode", "encrypted", "--steps", "8",
                       "--seed", "5", "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_encrypted_matches_quantized_columns(self, tmp_path):
        enc, quant = tmp_path / "enc.csv", tmp_path / "q.csv"
        assert main(["simulate", "--mode", "encrypted", "--steps", "10",
                     "--seed", "3", "--out", str(enc)]) == 0
        assert main(["simulate", "--mode", "quantized", "--steps", "10",
                     "--out", str(quant)]) == 0
        enc_rows = [line.rsplit(",", 1)[0]
                    for line in enc.read_text().splitlines()[1:]]
        q_rows = [line.rsplit(",", 1)[0]
                  for line in quant.read_text().splitlines()[1:]]
        assert enc_rows == q_rows

    def test_reference_mode_runs(self, tmp_path):
        out = tmp_path / "ref.csv"
        assert main(["simulate", "--mode", "reference", "--steps", "6",
                     "--out", str(out)]) == 0
        assert "reference" in out.read_text()

    def test_stdout_when_no_out(self, capsys):
        assert main(["simulate", "--mode", "quantized", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("step,time_s")

    def test_lwe_dim_flag(self, tmp_path):
        out = tmp_path / "dim.csv"
        assert main(["simulate", "--mode", "encrypted", "--steps", "4",
                     "--seed", "1", "--lwe-dim", "16",
                     "--out", str(out)]) == 0

    def test_run_config_sets_lwe_dim(self, tmp_path, monkeypatch):
        argv = ["simulate", "--config", _run_config(tmp_path, N=16),
                "--mode", "encrypted", "--steps", "2"]
        assert _encrypted_dims(monkeypatch, argv) == [16]

    def test_lwe_dim_flag_beats_run_config(self, tmp_path, monkeypatch):
        argv = ["simulate", "--config", _run_config(tmp_path, N=32),
                "--mode", "encrypted", "--steps", "2", "--lwe-dim", "16"]
        assert _encrypted_dims(monkeypatch, argv) == [16]

    # a config is N alone or a dict of run-config overrides; every bad run
    # parameter is refused at set-up, before any draw
    @pytest.mark.parametrize("config, flags", [
        (0, []), ("64", []), (64, ["--lwe-dim", "0"]),
        (64, ["--lwe-dim", str(2 ** 20 + 1)]),
        (64, ["--s2", "0"]), (64, ["--eps", "nan"]),
        (64, ["--delta", "nan"]), (64, ["--delta", "inf"]),
        (64, ["--delta", "-1"]), (64, ["--lift", "0"]),
        ({"q": "abc"}, []), ({"s1": "x"}, []), ({"lift": 2.5}, []),
        ({"eps": "0.3"}, []), ({"q": True}, []), ({"Delta": 10 ** 400}, [])])
    def test_bad_lwe_dim_is_a_config_error(self, tmp_path, capsys, config,
                                           flags):
        overrides = config if isinstance(config, dict) else {"N": config}
        assert main(["simulate", "--config",
                     _run_config(tmp_path, **overrides),
                     "--mode", "encrypted", "--steps", "2", *flags]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_huge_modulus_is_a_config_error(self, tmp_path, capsys):
        # refused by its width, not after minutes of Miller-Rabin
        start = time.perf_counter()
        assert main(["simulate", "--config",
                     _run_config(tmp_path, q=HUGE_PRIME),
                     "--mode", "encrypted", "--steps", "2"]) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "4423 bits" in err

    def test_full_lwe_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "encrypted", "--full-lwe"])
        assert exc.value.code == 2

    def test_encrypted_refuses_bad_bounds(self, capsys):
        # a lift of 1 violates the noise budget, so the encrypted mode
        # must refuse to run
        rc = main(["simulate", "--mode", "encrypted", "--steps", "4",
                   "--lift", "1"])
        assert rc == 2

    def test_run_config_wrapper(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["simulate", "--config", _run_config(tmp_path, eps=0.25),
                     "--mode", "quantized", "--steps", "8",
                     "--out", str(out)]) == 0
        # past the settling window the threshold is exactly the overridden eps
        assert ",0.25," in out.read_text().splitlines()[-1]


# SHA-256 of `simulate --mode M --seed 0 --steps 50` at the default N = 64,
# recorded while the encryptor still stepped its cancelled mask state as a
# reduced l x n_ch matrix through the limb kernel
SEEDED_CSV_SHA256 = {
    "reference": "c685d500b6a0b057ef8834b2c5955d03378aa263ee6821e2e5cf1a3ff2f20295",
    "quantized": "b0ec5979f8f6730b8c3fcabb37c9ce69eb7190ed9f4c41e344fbf5e8a67727cf",
    "encrypted": "08a2541f535dbcdd70145c99d905348217fcb6676d4bd84ff529b94cd455da8b",
}


@pytest.mark.parametrize("mode", sorted(SEEDED_CSV_SHA256))
def test_seeded_csv_matches_pinned_digest(tmp_path, mode):
    out = tmp_path / f"{mode}.csv"
    assert main(["simulate", "--mode", mode, "--seed", "0", "--steps", "50",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SEEDED_CSV_SHA256[mode]


class TestVerify:
    def test_default_suites_pass(self, capsys):
        assert main(["verify", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"^\[ok\] (.+) \(", out, re.M) == [
            "deadbeat nilpotency", "output zeroing",
            "disclosure/recovery/views"]
        assert "FAIL" not in out

    def test_disclosure_mismatch_is_reported(self, bench_setup, monkeypatch):
        disclose = cli.encobs.disclose_residue

        def off_by_one_from_step_2(r1, params):
            out = disclose(r1, params)
            calls.append(out)
            if len(calls) > 2:
                out = out + ModMatrix.column([1] + [0] * (out.nrows - 1),
                                             out.modulus)
            return out

        calls = []
        monkeypatch.setattr(cli.encobs, "disclose_residue",
                            off_by_one_from_step_2)
        assert cli._suite_encrypted(bench_setup, 11) == [
            "disclosure mismatch at step 2"]

    def test_gain_without_a_limb_width_fails_the_suite(self, bench_setup):
        # a Gbar entry of 2^100 leaves no int64 limb width: the suite lists
        # the QuantError as its failure instead of raising it
        maps = bench_setup.mod_maps
        rows = [list(row) for row in maps.Gbar.rows]
        rows[0][0] = 2 ** 100
        setup = dataclasses.replace(bench_setup, mod_maps=dataclasses.replace(
            maps, Gbar=ModMatrix(rows, maps.Gbar.modulus)))
        failures = cli._suite_encrypted(setup, 11)
        assert len(failures) == 1
        assert failures[0].startswith("no int64 limb width fits Gbar")

    def test_gbar_mutation_trips_the_zeroing_suite(self, bench_setup,
                                                   monkeypatch):
        # the cloud steps with Gbar[0][0] + 1 while the encryptor cancels
        # with the true gain: row 0 of every state takes one more copy of
        # row 0 of the input batch's [first | cancels] columns
        assert cli._suite_zeroing(11, bench_setup) == []
        step = cli.encobs.step_encrypted

        def corrupted_gain(state, batch, public):
            out = step(state, batch, public)
            out.body[:, 0] += batch.body[:, 0, :out.body.shape[2]]
            return out

        monkeypatch.setattr(cli.encobs, "step_encrypted", corrupted_gain)
        failures = cli._suite_zeroing(11, bench_setup)
        assert len(failures) == 18
        assert failures[-1] == ("benchmark: the mask reached the residue at "
                                "step 1")

    def test_mutate_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mutate", "corrupt-gbar"])
        assert exc.value.code == 2


class TestBench:
    def test_setup_clock_starts_after_the_oracle(self, bench_setup,
                                                 monkeypatch):
        # a fake clock that only the plaintext oracle run advances
        now = [0.0]

        def oracle(setup, steps):
            now[0] += 1000.0
            return run_quantized_mode(setup, steps)

        monkeypatch.setattr(pipeline, "time",
                            SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(pipeline, "run_quantized_mode", oracle)
        run = run_encrypted_mode(bench_setup, 2, seed=0)
        assert now[0] == 1000.0
        assert run.setup_s == 0.0 and run.steps_s == 0.0

    @pytest.mark.parametrize("dims", ["0", "64,x"])
    def test_bad_bench_dims_are_a_config_error(self, dims, capsys):
        assert main(["bench", "--dims", dims, "--steps", "1"]) == 2
        assert ("configuration error: LWE dimension N must be an integer "
                ">= 1" in capsys.readouterr().err)

    def test_bench_dim_past_the_key_product_bound(self, capsys):
        # key products stay exact in float64 only up to N = 2^20
        assert main(["bench", "--dims", str(2 ** 20 + 1), "--steps", "1"]) == 2
        assert ("configuration error: LWE dimension N must be at most "
                "1048576" in capsys.readouterr().err)

    def test_small_bench_runs(self, capsys):
        assert main(["bench", "--dims", "16", "--steps", "1",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("N=16: "))
        setup_ms, step_ms = re.fullmatch(
            r"N=16: setup ([0-9.]+) ms, ([0-9.]+) ms/step", line).groups()
        assert float(setup_ms) > 0 and float(step_ms) > 0
