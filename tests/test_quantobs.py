import dataclasses
import decimal
import itertools
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherobs.encobs import ObserverPublic
from cipherobs.lwe import NoiseParams, words_of
from cipherobs.modring import ModMatrix, Modulus
from cipherobs.obsdesign import build_bank, residue_map
from cipherobs.pipeline import BENCH_LIFT, BENCH_Q, SystemSetup, \
    run_quantized_mode, run_reference_mode
from cipherobs.plantsim import AttackScenario, run_closed_loop
from cipherobs.quantobs import (
    BlockGain,
    ModularMaps,
    QuantError,
    detect,
    make_params,
    quantize_initial,
    quantize_input,
    residue_quantized,
    step_quantized,
    threshold_at,
    validate_params,
)
from .helpers import CalibrationReport, build_fbar, calibrate_quantization, \
    matrix_limbs, random_stable_plant, recover_plain_estimate


class TestQuantize:
    def test_zero_initial(self, bench_setup):
        z = quantize_initial(np.zeros(24), bench_setup.params)
        assert z.is_zero()
        assert z.shape == (24, 1)

    def test_exact_multiples(self, bench_setup):
        p = bench_setup.params
        v = 123456
        z = quantize_initial([p.s1 * p.s2 * v], p)
        assert z.column_entries() == (v,)

    def test_direct_formula(self, bench_setup):
        p = dataclasses.replace(bench_setup.params, s1=0.1, s2=0.1)
        assert quantize_initial([0.37], p).column_entries() == (37,)

    def test_zero_inputs(self, bench_setup):
        v = quantize_input(np.zeros(1), np.zeros(5), bench_setup.params)
        assert v.is_zero()
        assert v.shape == (6, 1)

    def test_input_multiples(self, bench_setup):
        p = bench_setup.params
        v = quantize_input([0.0], [p.s2 * 17, 0, 0, 0, 0], p)
        assert v.column_entries() == (0, 17, 0, 0, 0, 0)

    def test_benchmark_step0_against_decimal_oracle(self, bench_setup):
        p = bench_setup.params
        traj = run_closed_loop(bench_setup.bundle.model,
                               bench_setup.bundle.attacks, 1)
        got = quantize_input(traj.u[0], traj.y[0], p)
        s2 = decimal.Decimal(repr(p.s2))
        oracle = []
        for v in list(traj.u[0]) + list(traj.y[0]):
            scaled = decimal.Decimal(repr(float(v))) / s2
            oracle.append(int((scaled + decimal.Decimal("0.5"))
                              .to_integral_value(rounding=decimal.ROUND_FLOOR)))
        assert got.column_entries() == tuple(oracle)

    def test_half_rounds_toward_plus_infinity(self, bench_setup):
        p = dataclasses.replace(bench_setup.params, s2=1.0)
        got = quantize_input([2.5], [-2.5, 0.5, -0.5, 0, 0], p)
        assert got.column_entries() == (3, -2, 1, 0, 0, 0)


class TestStepQuantized:
    def test_zero_stays_zero(self, bench_setup):
        maps = bench_setup.mod_maps
        q = bench_setup.params.q
        nxt = step_quantized(ModMatrix.zeros(24, 1, q),
                             ModMatrix.zeros(6, 1, q), maps.gain)
        assert nxt.is_zero()

    def test_two_block_shift_structure(self):
        q = Modulus(101)
        Gbar = ModMatrix([[3], [4]], q)
        zbar = ModMatrix.column([7, 9], q)
        vbar = ModMatrix.column([2], q)
        nxt = step_quantized(zbar, vbar, BlockGain.build((2,), Gbar))
        # new top = drive only, new bottom = old top + drive
        assert nxt.column_entries() == (6, 7 + 8)

    def test_matches_dense_product(self, bench_setup):
        maps = bench_setup.mod_maps
        q = bench_setup.params.q
        Fbar = build_fbar(maps.block_sizes, q)
        rng = random.Random(1)
        z = ModMatrix.column([rng.randrange(q.q) for _ in range(24)], q)
        v = ModMatrix.column([rng.randrange(q.q) for _ in range(6)], q)
        fast = step_quantized(z, v, maps.gain)
        dense = Fbar @ z + maps.Gbar @ v
        assert fast == dense


MODULI = (Modulus(101), Modulus(2 ** 61 - 1), Modulus(BENCH_Q))


def _edge_values(q: Modulus, gain: BlockGain):
    """0, +-1, +-(q-1)/2 and the values at and next to +-2^(kW), where a
    limb would carry, all reduced into the centred range."""
    half = (q.q - 1) // 2
    edges = {0, 1, -1, half, -half}
    for k in range(1, gain.count + 1):
        for v in ((1 << (gain.width * k)) + e for e in (-1, 0, 1)):
            edges |= {v, -v}
    return sorted({q.cmod(v) for v in edges})


def _gain(data, sizes, h):
    """Gbar rows of one of three shapes: dense (no zero entry), all zero,
    or bank-shaped, where each column is zero, confined to one block or
    spread over every block, with random zero rows inside its support."""
    l = sum(sizes)
    g = data.draw(st.lists(st.integers(-2 ** 20, 2 ** 20).filter(bool),
                           min_size=l * h, max_size=l * h), label="entries")
    shape = data.draw(st.sampled_from(["dense", "zero", "bank"]),
                      label="gain shape")
    if shape == "bank":
        block = [b for b, li in enumerate(sizes) for _ in range(li)]
        support = data.draw(st.lists(
            st.sampled_from(["none", "all", *range(len(sizes))]),
            min_size=h, max_size=h), label="column supports")
        holes = data.draw(st.lists(st.booleans(), min_size=l * h,
                                   max_size=l * h), label="zero rows")
        g = [0 if holes[i * h + k] or support[k] not in ("all", block[i])
             else g[i * h + k] for i in range(l) for k in range(h)]
    elif shape == "zero":
        g = [0] * (l * h)
    return [g[i * h:(i + 1) * h] for i in range(l)]


class TestObserverUpdate:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_dense_product(self, data):
        q = data.draw(st.sampled_from(MODULI), label="q")
        half = (q.q - 1) // 2
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=0, max_size=4),
                          label="other blocks")
        sizes.insert(data.draw(st.integers(0, len(sizes))), 1)
        l = sum(sizes)
        h = data.draw(st.integers(1, 3), label="h")
        n_ch = data.draw(st.integers(1, 3), label="n_ch")
        N = data.draw(st.integers(1, 5), label="N")
        w = data.draw(st.sampled_from([1, 2, n_ch + N + n_ch]), label="width")
        Gbar = ModMatrix(_gain(data, sizes, h), q, ncols=h)
        gain = BlockGain.build(sizes, Gbar)
        entry = st.one_of(st.sampled_from(_edge_values(q, gain)),
                          st.integers(-half, half))

        def matrix(nrows, ncols):
            flat = data.draw(st.lists(entry, min_size=nrows * ncols,
                                      max_size=nrows * ncols))
            return ModMatrix([flat[i * ncols:(i + 1) * ncols]
                              for i in range(nrows)], q, ncols=ncols)

        Z = matrix(l, w)
        limbs = matrix_limbs(gain, Z)
        assert ModMatrix(gain.join(limbs), q, ncols=w) == Z
        Fbar = build_fbar(sizes, q)
        for _ in range(data.draw(st.integers(1, 3), label="steps")):
            V = matrix(h, w)
            dense = Fbar @ Z + Gbar @ V
            limbs = gain.step(limbs, matrix_limbs(gain, V))
            Z = dense
        assert ModMatrix(gain.join(limbs), q, ncols=w) == Z

    # (block sizes, Gbar rows): zero columns, blocks without a nonzero and
    # column spans that cross blocks or hold interior zeros
    EDGE_GAINS = {
        "columns in one block each": (
            (2, 3), [[5, 0], [7, 0], [0, 0], [0, 1], [0, 2]]),
        "zero column": ((1, 2), [[0, 3], [0, 0], [0, 4]]),
        "block with no nonzero": ((2, 1, 2), [[1], [2], [0], [3], [0]]),
        "all zero": ((3, 1), [[0, 0]] * 4),
        "spans blocks with interior zeros": (
            (4, 3), [[0], [6], [0], [-8], [9], [0], [-1]]),
        "dense": ((1, 2), [[1, -2], [3, 4], [-5, 6]]),
    }

    @pytest.mark.parametrize("case", EDGE_GAINS)
    def test_block_terms_of_edge_gains(self, case):
        # the dense gain steps limbs (step) and Python ints (step_ints, on
        # G's nonzeros alone) as the dense Z_q product does
        sizes, rows = self.EDGE_GAINS[case]
        q = Modulus(BENCH_Q)
        Gbar = ModMatrix(rows, q)
        gain = BlockGain.build(sizes, Gbar)
        assert gain.G.dtype == np.int64 and gain.G.tolist() == rows
        assert gain._entries == tuple((i, k, g) for i, row in enumerate(rows)
                                      for k, g in enumerate(row) if g)
        rng = random.Random(case)
        half = (q.q - 1) // 2
        Fbar = build_fbar(sizes, q)
        Z = ModMatrix([[rng.randint(-half, half) for _ in range(3)]
                       for _ in rows], q)
        # step_ints steps the first column
        limbs, ints = matrix_limbs(gain, Z), Z.column_entries()
        for t in range(max(sizes) + 1):
            V = ModMatrix([[rng.randint(-half, half) for _ in range(3)]
                           for _ in rows[0]], q)
            limbs = gain.step(limbs, matrix_limbs(gain, V))
            ints = gain.step_ints(ints, V.column_entries())
            Z = Fbar @ Z + Gbar @ V
            assert ModMatrix(gain.join(limbs), q) == Z, t
            assert ModMatrix.column(ints, q).column_entries() == \
                Z.column_entries(), t

    def test_benchmark_gain_has_48_nonzeros(self, bench_setup):
        # Phi B's column has nonzeros in every one of the 5 blocks and each
        # sensor's injection column f_i in its own block alone: 48 of the
        # 24 x 6 entries, the ones step_ints reads
        maps = bench_setup.mod_maps
        gain = maps.gain
        assert maps.block_sizes == (6, 4, 6, 4, 4)
        assert gain.G.shape == (24, 6)
        assert gain.G.tolist() == [list(row) for row in maps.Gbar.rows]
        assert np.count_nonzero(gain.G) == len(gain._entries) == 48
        blocks = [{b for b, (o, li) in enumerate(zip(gain.starts,
                                                     maps.block_sizes))
                   if gain.G[o:o + li, k].any()} for k in range(6)]
        assert blocks[0] == set(range(5))
        assert [len(b) for b in blocks[1:]] == [1] * 5

    def test_cancel_blocks_meet_only_their_gain_columns(self, bench_setup):
        # every benchmark channel cancels at row k_j = 0, so the cancel
        # columns' outer product takes Phi B's column of Gbar for each
        public = ObserverPublic.build(bench_setup.mod_maps, bench_setup.params)
        *_, ks, _, cancel_gain = public._chain_ends
        assert {m.k for m in public.channels} == {0}
        assert ks.tolist() == [0] * 60
        G = public.gain.G
        assert np.array_equal(cancel_gain, np.repeat(G[:, :1], 60, axis=1))

    @pytest.mark.parametrize("q, form", [
        pytest.param(q, form, id=name + suffix)
        for form, suffix in (("centred", ""), ("words", "-words"))
        for q, name in zip(MODULI[1:], ("2^61-1", "2^109-31"))])
    def test_worst_case_limbs_stay_under_the_bound(self, q, form):
        # the inputs as `cut` makes them of the words of the centred
        # (q - 1) / 2 and of q - 1 (nw = 1 and 2): limbs in [0, 2^W)
        sizes, h, width = (6, 4, 1), 3, 42
        b_max = max(sizes)
        # the largest row sum that still leaves a limb width of 42 bits
        g = (2 ** (63 - width) - 2) // b_max
        row = [g // h] * (h - 1) + [g - (g // h) * (h - 1)]
        Gbar = ModMatrix([row] * sum(sizes), q)
        gain = BlockGain.build(sizes, Gbar)
        assert gain.width == width
        assert gain.count == -(-q.q.bit_length() // width)
        bigger = ModMatrix([row[:-1] + [row[-1] + 1]] * sum(sizes), q)
        assert BlockGain.build(sizes, bigger).width == width - 1

        bound = (b_max * g + 1) * 2 ** width
        assert bound < 2 ** 63
        top = (q.q - 1) // 2 if form == "centred" else q.q - 1
        Z = ModMatrix([[top]] * sum(sizes), q)
        V = ModMatrix([[top]] * h, q)
        Fbar = build_fbar(sizes, q)
        word = words_of(q, [top])
        assert word.shape == (1, -(-q.q.bit_length() // 64))
        limbs = gain.cut(np.repeat(word[None], sum(sizes), axis=0))
        v_limbs = gain.cut(np.repeat(word[None], h, axis=0))
        assert 0 <= int(limbs.min()) and int(limbs.max()) < 2 ** width
        for _ in range(3 * b_max):
            limbs = gain.step(limbs, v_limbs)
            Z = Fbar @ Z + Gbar @ V
            assert int(np.abs(limbs).max()) < bound
        assert ModMatrix(gain.join(limbs), q) == Z

    def test_gain_without_a_limb_width_raises(self):
        q = Modulus(BENCH_Q)
        Gbar = ModMatrix([[2 ** 62]], q)
        with pytest.raises(QuantError):
            BlockGain.build((1,), Gbar).width

    def test_quantized_mode_needs_no_limb_width(self, bench_setup):
        # quantized mode steps in exact ints and never builds the int64 G,
        # so it accepts a gain entry beyond int64; only the limb recursion
        # (its width, which G reads first) refuses it, before it builds G.
        # The encrypted observer's set-up reads G for its chain ends, so
        # `ObserverPublic.build` refuses such a gain at once
        q = Modulus(BENCH_Q)
        Gbar = ModMatrix([[2 ** 100], [1]], q)
        maps = dataclasses.replace(bench_setup.mod_maps, Gbar=Gbar,
                                   Hbar=ModMatrix([[1, 0]], q),
                                   block_sizes=(2,))
        nxt = step_quantized(ModMatrix.column([5, 7], q),
                             ModMatrix.column([3], q), maps.gain)
        assert nxt == ModMatrix.column([3 * 2 ** 100, 5 + 3], q)
        assert "G" not in vars(maps.gain)
        with pytest.raises(QuantError):
            ObserverPublic.build(maps, bench_setup.params)
        for name in ("width", "G"):
            with pytest.raises(QuantError):
                getattr(maps.gain, name)
        assert "G" not in vars(maps.gain)

    def test_block_sizes_must_cover_the_state(self):
        q = Modulus(101)
        zeros = np.zeros
        # a recursion of blocks (1, 1) refuses a 3-row state
        gain = BlockGain.build((1, 1), ModMatrix.zeros(2, 1, q))
        with pytest.raises(QuantError):
            gain.step(zeros((1, 3, 2), np.int64), zeros((1, 1, 2), np.int64))
        with pytest.raises(QuantError):
            step_quantized(ModMatrix.zeros(3, 1, q), ModMatrix.zeros(1, 1, q),
                           gain)
        # blocks that do not cover Gbar's rows are refused when built
        with pytest.raises(QuantError):
            BlockGain.build((1, 1), ModMatrix.zeros(3, 1, q))


class TestResidueAndDetect:
    def test_zero_state_zero_residue(self, bench_setup):
        q = bench_setup.params.q
        assert residue_quantized(ModMatrix.zeros(24, 1, q),
                                 bench_setup.mod_maps.Hbar).is_zero()

    def test_single_subset_residue_identically_zero(self):
        rng = np.random.default_rng(2)
        plant = random_stable_plant(rng, 3, 1, 1)
        bank = build_bank(plant, 0)
        maps = residue_map(bank, 1e-4)
        q = Modulus(BENCH_Q)
        params = make_params(bank, s1=1e-4, s2=1e-4, lift=BENCH_LIFT, q=q,
                             N=64, Delta=19.2, eps=0.3)
        mod_maps = ModularMaps.from_integer(maps, bank, q)
        zbar = ModMatrix.column(list(range(1, bank.l_total + 1)), q)
        assert residue_quantized(zbar, mod_maps.Hbar).is_zero()

    def test_zero_residue_never_flags(self, bench_setup):
        q = bench_setup.params.q
        r = ModMatrix.zeros(60, 1, q)
        assert not detect(r, 0, bench_setup.params).flag
        assert not detect(r, 100, bench_setup.params).flag

    def test_threshold_drops_after_settling(self, bench_setup):
        p = bench_setup.params
        q = p.q
        r = ModMatrix.zeros(60, 1, q)
        early = detect(r, p.l_max - 1, p).threshold
        late = detect(r, p.l_max, p).threshold
        assert early == pytest.approx(p.eps + 2 * p.kappa * p.init_error)
        assert late == pytest.approx(p.eps)

    def test_equality_does_not_flag(self, bench_setup):
        p = bench_setup.params
        exact = int(round(p.eps / p.resolution))
        r = ModMatrix.column([exact] + [0] * 59, p.q)
        res = detect(r, p.l_max, p)
        if res.lhs == p.eps:
            assert not res.flag

    def test_exact_verdict_where_float_product_rounds(self, bench_setup):
        # s1^2 s2 * 3 rounds down in floats; with eps set to that float the
        # exact product still exceeds the threshold, so the residue flags
        p = dataclasses.replace(bench_setup.params,
                                eps=bench_setup.params.resolution * 3)
        assert Fraction(p.s1) ** 2 * Fraction(p.s2) * 3 > Fraction(p.eps)
        for t in (p.l_max, p.l_max + 7):
            res = detect(ModMatrix.column([-3] + [0] * 59, p.q), t, p)
            assert res.lhs == res.threshold == p.eps
            assert res.flag

    def test_exact_verdict_where_float_product_rounds_up(self, bench_setup):
        # s1^2 s2 rounds up: at eps equal to that float, r = 1 is not above
        p = dataclasses.replace(bench_setup.params,
                                eps=bench_setup.params.resolution)
        assert Fraction(p.s1) ** 2 * Fraction(p.s2) < Fraction(p.eps)
        res = detect(ModMatrix.column([1] + [0] * 59, p.q), p.l_max, p)
        assert res.lhs == res.threshold
        assert not res.flag

    def test_exact_equality_does_not_flag(self, bench_setup):
        # dyadic parameters: the transient threshold 0.25 + 2 * 0.5 * 0.125
        # equals 0.125 * 3 exactly, and one step more flags
        p = dataclasses.replace(bench_setup.params, s1=0.5, s2=0.5, eps=0.25,
                                kappa=0.5, init_error=0.125)
        assert threshold_at(p, 0, Fraction) == Fraction(3, 8)
        for r, flag in ((3, False), (4, True)):
            res = detect(ModMatrix.column([r] + [0] * 59, p.q), 0, p)
            assert res.flag is flag
            assert res.threshold == threshold_at(p, 0) == 0.375

    def test_benchmark_attack_free_run_never_flags(self, bench_noattack):
        run = run_quantized_mode(bench_noattack, 50)
        assert all(not r.detected for r in run.records)

    def test_benchmark_attack_free_steady_state_small(self, bench_noattack):
        run = run_quantized_mode(bench_noattack, 50)
        for rec in run.records[6:]:
            assert rec.residue_norm <= 0.3

    def test_benchmark_flags_inside_windows_only(self, bench_qrun):
        flagged = {r.step for r in bench_qrun.records if r.detected}
        window = set(range(26, 36)) | set(range(44, 50))
        assert flagged <= window
        assert flagged & set(range(26, 30))
        assert flagged & set(range(44, 46))


class TestRecovery:
    def test_zero_state(self, bench_setup):
        q = bench_setup.params.q
        est = recover_plain_estimate(ModMatrix.zeros(24, 1, q),
                                     bench_setup.mod_maps.PhiPinvBar,
                                     bench_setup.params)
        assert np.all(est == 0)

    def test_benchmark_attack_free_estimate(self, bench_noattack):
        run = run_quantized_mode(bench_noattack, 50)
        for rec in run.records[6:]:
            assert rec.est_error_norm <= 0.6

    def test_unflagged_steps_have_bounded_error(self, bench_qrun):
        for rec in bench_qrun.records[6:]:
            if not rec.detected:
                assert rec.est_error_norm <= 0.6

    def test_quantization_consistency_scales(self, bench_setup):
        # finer scales never make the attack-free deviation worse
        model = bench_setup.bundle.model
        bank = bench_setup.bank
        devs = []
        for s in (1e-3, 1e-4, 1e-5):
            setup = SystemSetup.from_bundle(
                dataclasses.replace(bench_setup.bundle,
                                    attacks=AttackScenario()),
                s1=s, s2=s, lift=BENCH_LIFT, q=BENCH_Q, N=64,
                Delta=19.2, eps=0.3)
            qrun = run_quantized_mode(setup, 40)
            ref = run_reference_mode(setup, 40)
            dev = max(abs(a.est_error_norm - b.est_error_norm)
                      for a, b in zip(qrun.records, ref))
            devs.append(dev)
        assert devs[0] >= devs[1] >= devs[2]


class TestOverflowFreedom:
    def test_centered_difference_on_unflagged_steps(self, bench_setup,
                                                    bench_qrun):
        # on unflagged steps the subset-vs-full difference never wraps for
        # subsets that exclude the attacked sensor
        bank = bench_setup.bank
        maps = bench_setup.mod_maps
        q = bench_setup.params.q
        attacked = {2}
        for t, rec in enumerate(bench_qrun.records):
            if rec.detected:
                continue
            zbar = bench_qrun.zbars[t]
            xbar = maps.PhiPinvBar @ zbar
            for subset in bank.subsets:
                if attacked & set(subset):
                    continue
                idx = bank.subset_indices(subset)
                zL = ModMatrix.column([zbar.rows[i][0] for i in idx], q)
                xL = ModMatrix(bench_setup.maps.subset_pinv_bars[subset],
                               q) @ zL
                plain = [a - b for a, b in zip(xL.column_entries(),
                                               xbar.column_entries())]
                reduced = (xL - xbar).column_entries()
                assert tuple(plain) == reduced


class TestValidateParams:
    def test_benchmark_parameters_pass(self, bench_setup):
        report = validate_params(bench_setup.params, bench_setup.mod_maps)
        assert report.modulus_bound.passed
        assert report.lift_bound.passed
        assert report.modulus_lift_bound.passed
        assert report.lift_coprime
        assert report.all_pass

    def test_tiny_modulus_fails_overflow_bound(self, bench_setup):
        p = dataclasses.replace(bench_setup.params, q=Modulus(3))
        report = validate_params(p, bench_setup.mod_maps)
        assert not report.modulus_bound.passed

    def test_unit_lift_fails_noise_budget(self, bench_setup):
        p = dataclasses.replace(bench_setup.params, lift=1)
        report = validate_params(p, bench_setup.mod_maps)
        assert not report.lift_bound.passed
        assert not report.all_pass

    def test_margins_are_rational_exact(self, bench_setup):
        report = validate_params(bench_setup.params, bench_setup.mod_maps)
        assert report.modulus_bound.lhs == BENCH_Q
        assert report.modulus_bound.margin > 1
        bound = NoiseParams(bench_setup.params.Delta).bound
        assert report.lift_bound.rhs == \
            2 * bench_setup.mod_maps.recovery_error(bound)
        assert len(report.lines()) == 5

    def test_strict_worst_case_budget_reported(self, bench_setup):
        # the exact worst case gates runs: W is 1.2195 lift/2 at the
        # paper's lift 2^44, so the default lift is 2^45, the smallest
        # power of two above 2 W
        params = bench_setup.params
        report = validate_params(params, bench_setup.mod_maps)
        W = bench_setup.mod_maps.recovery_error(19)
        assert report.lift_bound.rhs == 2 * W
        assert 2 ** 44 < 2 * W < 2 ** 45 == params.lift == BENCH_LIFT
        assert f"{report.lift_bound.margin:.4g}" == "1.64"
        assert f"{report.modulus_lift_bound.margin:.4g}" == "30.65"
        paper = validate_params(dataclasses.replace(params, lift=2 ** 44),
                                bench_setup.mod_maps)
        assert not paper.lift_bound.passed and not paper.all_pass
        assert f"{paper.lift_bound.margin:.4g}" == "0.82"


class TestRecoveryError:
    # blocks (2, 1), h = 1: l = 3, b = 2, and PhiPinvBar has 2 rows
    GBAR = [[3], [-2], [5]]
    PHI_PINV_BAR = [[1, -4, 2], [-3, 1, 6]]

    def _maps(self):
        q = Modulus(101)
        return ModularMaps(Gbar=ModMatrix(self.GBAR, q),
                           Hbar=ModMatrix([[0, 0, 0]], q),
                           PhiPinvBar=ModMatrix(self.PHI_PINV_BAR, q),
                           block_sizes=(2, 1))

    def test_equals_brute_force_over_every_error_sequence(self):
        # the largest |PhiPinvBar E_t| over every error sequence in
        # [-B, B] and every step t <= b + 1 (b = 2), from the plain
        # recursion E_t = Fbar E_(t-1) + Gbar e_t with E_0 = e_0
        B, errs = 2, range(-2, 3)

        def shift(E):
            return [0, E[0], 0]    # Fbar of blocks (2, 1)

        worst = 0
        for e0 in itertools.product(errs, repeat=3):
            for inputs in itertools.product(errs, repeat=3):
                E = list(e0)
                for t in range(4):
                    if t:
                        E = [s + g * inputs[t - 1]
                             for s, (g,) in zip(shift(E), self.GBAR)]
                    worst = max(worst, *(abs(sum(map(operator.mul, row, E)))
                                         for row in self.PHI_PINV_BAR))
        assert self._maps().recovery_error(B) == worst

    def test_scales_with_the_error_bound(self):
        maps = self._maps()
        assert maps.recovery_error(0) == 0
        assert maps.recovery_error(19) == 19 * maps.recovery_error(1)


class TestCalibration:
    def test_benchmark_scales_are_adequate(self, bench_noattack):
        rep = calibrate_quantization(bench_noattack)
        assert isinstance(rep, CalibrationReport)
        assert rep.ok
        assert rep.max_residue_dev <= 0.3
        assert rep.max_subset_dev <= 0.3

    def test_coarse_scales_fail_calibration(self, bench_setup):
        setup = SystemSetup.from_bundle(
            dataclasses.replace(bench_setup.bundle,
                                attacks=AttackScenario()),
            s1=0.5, s2=0.5, lift=BENCH_LIFT, q=BENCH_Q, N=64,
            Delta=19.2, eps=0.3)
        rep = calibrate_quantization(setup)
        assert not rep.ok


class TestSoundnessRandomPlants:
    def test_attack_free_runs_never_flag(self):
        # randomized soundness sweep: quantized detection stays silent on
        # attack-free stable plants whose parameters satisfy the bounds
        rng = np.random.default_rng(123)
        q = Modulus(BENCH_Q)
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 300:
            attempts += 1
            n = int(rng.integers(2, 5))
            p = int(rng.integers(2, 5))
            plant = random_stable_plant(rng, n, 1, p)
            k = 1 if p >= 2 else 0
            try:
                bank = build_bank(plant, k)
            except Exception:
                continue
            maps = residue_map(bank, 1e-4)
            params = make_params(bank, s1=1e-4, s2=1e-4, lift=BENCH_LIFT,
                                 q=q, N=16, Delta=19.2, eps=0.3)
            mod_maps = ModularMaps.from_integer(maps, bank, q)
            report = validate_params(params, mod_maps)
            if not report.modulus_bound.passed:
                continue
            traj = run_closed_loop(plant, AttackScenario(), 30)
            zbar = quantize_initial(np.zeros(bank.l_total), params)
            for t in range(30):
                rbar = residue_quantized(zbar, mod_maps.Hbar)
                assert not detect(rbar, t, params).flag, \
                    f"false alarm on plant {checked} at step {t}"
                vbar = quantize_input(traj.u[t], traj.y[t], params)
                zbar = step_quantized(zbar, vbar, mod_maps.gain)
            checked += 1
        assert checked >= 100
