import pytest

from cipherobs.encobs import EncryptorSession
from cipherobs.pipeline import DEFAULTS, SystemSetup, bundled_scenario_path, \
    records_to_csv, run_encrypted_mode


class TestFromScenario:
    def test_override_applied_and_the_rest_from_defaults(self):
        params = SystemSetup.from_scenario(bundled_scenario_path(),
                                           eps=0.25).params
        got = {"s1": params.s1, "s2": params.s2, "lift": params.lift,
               "q": params.q.q, "N": params.N, "Delta": params.Delta,
               "eps": params.eps}
        assert got == {**DEFAULTS, "eps": 0.25}
        assert DEFAULTS["eps"] != 0.25

    def test_unknown_parameter_refused(self):
        with pytest.raises(TypeError):
            SystemSetup.from_scenario(bundled_scenario_path(), epsilon=0.25)


class TestEncryptedRun:
    def test_the_input_past_the_last_record_is_encrypted_only_for_views(
            self, bench_setup, monkeypatch):
        # a run of 5 records reads states 0-4, built from inputs 0-3; the
        # views also record state 5, so they need input 4 encrypted
        calls = []
        enc_input = EncryptorSession.enc_input
        monkeypatch.setattr(EncryptorSession, "enc_input",
                            lambda self, v: calls.append(v)
                            or enc_input(self, v))
        csvs = []
        for record_views, expect in ((False, 4), (True, 5)):
            calls.clear()
            run = run_encrypted_mode(bench_setup, 5, seed=0,
                                     record_views=record_views)
            assert len(calls) == expect
            assert (run.view2 is not None) == record_views
            csvs.append(records_to_csv(run.records))
        assert csvs[0] == csvs[1]
        assert len(csvs[0].splitlines()) == 6
