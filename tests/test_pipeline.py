import pytest

from cipherobs.pipeline import DEFAULTS, SystemSetup, bundled_scenario_path


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
