import dataclasses

import numpy as np
import pytest

from cipherobs import encobs, zerodyn
from cipherobs.encobs import (
    EncObserverState,
    EncryptorSession,
    ObserverPublic,
    SessionNotFresh,
    build_fbar,
    decrypt_channel_state,
    disclose_residue,
    encrypted_residue,
    recover_encrypted_state,
    residue_first_column,
    step_encrypted,
)
from cipherobs.lwe import LweError, NoiseParams, SecretKey, decrypt, encrypt, \
    keygen
from cipherobs.lwe import TestRng as SeededRng
from cipherobs.modring import ModMatrix
from cipherobs.pipeline import run_encrypted_mode, run_quantized_mode
from .helpers import dense_normal_form, error_trajectory


class ZeroMaskRng:
    """All uniforms zero, all errors zero: masks vanish entirely."""

    def uniforms(self, q, count):
        return [0] * count

    def error(self, noise):
        return 0


class ReplayRng:
    """Replays a recorded draw sequence (for checkpoint determinism)."""

    def __init__(self, draws):
        self._draws = list(draws)

    def uniforms(self, q, count):
        out = []
        for _ in range(count):
            kind, val = self._draws.pop(0)
            assert kind == "u"
            out.append(val)
        return out

    def error(self, noise):
        kind, val = self._draws.pop(0)
        assert kind == "e"
        return val


def firsts(batch):
    return tuple(batch.channel(j).first_column()
                 for j in range(batch.n_channels))


@pytest.fixture(scope="module")
def public64(bench_setup):
    params = dataclasses.replace(bench_setup.params, N=64)
    return ObserverPublic.build(bench_setup.mod_maps, params)


class TestObserverPublic:
    def test_channel_count_and_degrees(self, public64):
        assert public64.n_channels == 60
        assert all(m.nu >= 1 for m in public64.channels)

    def test_channel_maps_equal_dense_normal_form(self, public64):
        for j, maps in enumerate(public64.channels):
            dense = dense_normal_form(public64.Hbar.row(j), public64.Fbar,
                                      public64.Gbar)
            assert maps.j == j
            for name in ("nu", "T2", "V2", "HFnu", "Sigma", "SigmaDag"):
                assert getattr(maps, name) == dense[name], (j, name)

    def test_fbar_matches_block_structure(self, bench_setup, public64):
        Fbar = public64.Fbar
        assert Fbar.shape == (24, 24)
        total = sum(v for row in Fbar.rows for v in row)
        assert total == 24 - 5  # one subdiagonal per block


class TestSessionBasics:
    def test_double_initial_rejected(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(0)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng)
        z0 = ModMatrix.zeros(24, 1, params.q)
        session.enc_initial(z0)
        with pytest.raises(SessionNotFresh):
            session.enc_initial(z0)

    def test_input_before_initial_rejected(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(1)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng)
        with pytest.raises(encobs.EncObsError):
            session.enc_input(ModMatrix.zeros(6, 1, params.q))

    def test_key_dimension_checked(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        sk = keygen(32, params.q, SeededRng(2))
        with pytest.raises(encobs.EncObsError):
            EncryptorSession(sk, params, public64, rng=SeededRng(3))

    def test_checkpoint_restore_reproduces_run(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        noise = NoiseParams(params.Delta)
        q = params.q
        rng = SeededRng(4)
        sk = keygen(64, q, rng)

        # record enough draws for one initial and four input encryptions
        recorder = SeededRng(5)
        seq = []
        seq.extend(("u", v) for v in recorder.uniforms(q, 24 * 64))
        for _ in range(24):
            seq.append(("e", recorder.error(noise)))
        for _ in range(4):
            seq.extend(("u", v) for v in recorder.uniforms(q, 6 * 64))
            for _ in range(6):
                seq.append(("e", recorder.error(noise)))
        vbar = ModMatrix.column([3, -1, 4, 1, -5, 9], q)

        s1 = EncryptorSession(sk, params, public64, rng=ReplayRng(list(seq)))
        full = [s1.enc_initial(ModMatrix.zeros(24, 1, q))]
        for _ in range(4):
            full.append(s1.enc_input(vbar))
        # second session: stop after two inputs, checkpoint, restore, redo
        s2 = EncryptorSession(sk, params, public64, rng=ReplayRng(list(seq)))
        out2 = [s2.enc_initial(ModMatrix.zeros(24, 1, q))]
        out2.append(s2.enc_input(vbar))
        out2.append(s2.enc_input(vbar))
        snap = s2.checkpoint()
        # replay the tail draws twice: once wasted, once after restore
        tail = list(seq)[24 * 64 + 24 + 2 * (6 * 64 + 6):]
        s2.rng = ReplayRng(list(tail))
        wasted = s2.enc_input(vbar)
        s2.restore(snap)
        s2.rng = ReplayRng(list(tail))
        out2.append(s2.enc_input(vbar))
        s2.rng = ReplayRng(list(tail)[6 * 64 + 6:])
        out2.append(s2.enc_input(vbar))
        for a, b in zip(full, out2):
            # firsts, shared block and lasts all at once
            assert a.body == b.body
        assert firsts(wasted) == firsts(full[3])

    def test_zeroized_key_rejected_typed(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        sk = keygen(64, params.q, SeededRng(2))
        sk.zeroize()
        with pytest.raises(LweError):
            EncryptorSession(sk, params, public64, rng=SeededRng(3))


class TestModifiedCompatibility:
    def test_decrypt_matches_standard_everywhere(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(6)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng,
                                   record_artifacts=True)
        qrun = run_quantized_mode(bench_setup, 6)
        batch = session.enc_initial(qrun.zbars[0])
        batches = [batch]
        for t in range(5):
            batches.append(session.enc_input(qrun.vbars[t]))
        for art, batch in zip(session.artifacts, batches):
            std_plain = decrypt(art.standard_ct, sk)
            for j in (0, 7, 59):
                assert decrypt(batch.channel(j), sk) == std_plain

    def test_construction_identity_columns(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(7)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng,
                                   record_artifacts=True)
        batch = session.enc_initial(ModMatrix.column(range(24), params.q))
        std_first = session.artifacts[0].standard_ct.first_column()
        q = params.q
        for j in (0, 31):
            ct = batch.channel(j)
            merged = tuple(q.cmod(a + b) for a, b in
                           zip(ct.first_column(), ct.cancel_column()))
            assert merged == std_first

    def test_zero_mask_degenerate_session(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        sk = SecretKey([1] * 64, params.q)
        session = EncryptorSession(sk, params, public64, rng=ZeroMaskRng())
        z0 = ModMatrix.column(range(24), params.q)
        batch = session.enc_initial(z0)
        lifted = z0.scale(params.lift).column_entries()
        for j in (0, 42):
            assert batch.channel(j).first_column() == lifted
            assert all(v == 0 for v in batch.channel(j).cancel_column())
        nxt = session.enc_input(ModMatrix.column([1, 0, 0, 2, 0, 0], params.q))
        for j in (0, 42):
            assert all(v == 0 for v in nxt.channel(j).cancel_column())

    def test_cancel_column_matches_independent_zerodyn(self, bench_setup,
                                                       public64):
        # recompute each channel's cancellation from the recorded masks with
        # the standalone zero-dynamics routines
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(8)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng,
                                   record_artifacts=True)
        qrun = run_quantized_mode(bench_setup, 5)
        batches = [session.enc_initial(qrun.zbars[0])]
        for t in range(4):
            batches.append(session.enc_input(qrun.vbars[t]))
        for j in (0, 17, 59):
            ct = zerodyn.build_transform(public64.Hbar.row(j), public64.Fbar,
                                         public64.Gbar, j=j)
            tilde_ini, state = zerodyn.cancellation_init(
                ct, session.artifacts[0].mask)
            expect = (ct.V2 @ tilde_ini).column_entries()
            assert batches[0].channel(j).cancel_column() == expect
            for t in range(1, 5):
                tilde, state = zerodyn.cancellation_step(
                    ct, state, session.artifacts[t].mask)
                expect = ct.SigmaDag.scale(tilde).column_entries()
                assert batches[t].channel(j).cancel_column() == expect


class TestEncryptedObserver:
    def test_zero_ciphertexts_keep_zero_state(self, bench_setup, public64):
        q = public64.q
        # [firsts | shared | lasts]: 60 + 64 + 60 columns
        zero_batch = encobs.EncryptedBatch(
            body=ModMatrix.zeros(6, 60 + 64 + 60, q), n_channels=60)
        state = EncObserverState.from_initial(encobs.EncryptedBatch(
            body=ModMatrix.zeros(24, 60 + 64 + 60, q), n_channels=60))
        nxt = step_encrypted(state, zero_batch, public64)
        assert nxt.channel(0).randomness_block().is_zero()
        assert all(v == 0 for j in range(60)
                   for v in nxt.channel(j).first_column())

    def test_channel_index_checked(self, bench_enc):
        state = bench_enc.states[0]
        for j in (-1, state.n_channels):
            with pytest.raises(encobs.EncObsError):
                state.channel(j)

    def test_batch_width_checked(self, public64, bench_enc):
        q = public64.q
        narrow = encobs.EncryptedBatch(
            body=ModMatrix.zeros(6, 60 + 32 + 60, q), n_channels=60)
        with pytest.raises(encobs.EncObsError):
            step_encrypted(bench_enc.states[0], narrow, public64)

    def test_step_matches_dense_channel_product(self, bench_setup, public64,
                                                 bench_enc):
        state = bench_enc.states[3]
        batch = bench_enc.session  # not used; rebuild a batch instead
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(9)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng)
        session.enc_initial(ModMatrix.zeros(24, 1, params.q))
        qrun = run_quantized_mode(bench_setup, 1)
        in_batch = session.enc_input(qrun.vbars[0])
        nxt = step_encrypted(state, in_batch, public64)
        for j in (0, 29):
            dense = (public64.Fbar @ state.channel(j).body
                     + public64.Gbar @ in_batch.channel(j).body)
            assert nxt.channel(j).body == dense

    def test_residue_first_column_consistency(self, public64, bench_enc):
        for t in (0, 10, 49):
            state = bench_enc.states[t]
            R, r1 = encrypted_residue(state, public64)
            assert r1 == residue_first_column(state, public64)
            assert R.shape == (60, 66)
            assert r1.column_entries() == R.column_entries(0)

    def test_zero_state_zero_residue(self, public64):
        q = public64.q
        state = EncObserverState.from_initial(encobs.EncryptedBatch(
            body=ModMatrix.zeros(24, 60 + 64 + 60, q), n_channels=60))
        R, r1 = encrypted_residue(state, public64)
        assert r1.is_zero()

    def test_middle_columns_are_masked(self, public64, bench_enc, bench_qrun):
        # the disclosed column is exact; the randomness-driven columns are not
        R, r1 = encrypted_residue(bench_enc.states[20], public64)
        assert r1 == bench_enc.r1s[20]
        middle = [v for row in R.rows for v in row[1:-1]]
        nonzero = sum(1 for v in middle if v != 0)
        assert nonzero > len(middle) * 0.9


class TestDisclosureAndRecovery:
    def test_disclosure_inverts_lift(self, bench_setup):
        params = bench_setup.params
        q = params.q
        import random as pyrandom
        rng = pyrandom.Random(11)
        v = ModMatrix.column([rng.randrange(q.q) for _ in range(60)], q)
        assert disclose_residue(v.scale(params.lift), params) == v

    def test_disclosure_exact_all_steps(self, bench_enc, bench_qrun,
                                        bench_setup):
        for t in range(50):
            assert bench_enc.r1s[t] == bench_qrun.rbars[t].scale(
                bench_setup.params.lift)
            assert bench_enc.disclosed[t] == bench_qrun.rbars[t]

    def test_flags_match_plaintext_mode(self, bench_enc, bench_qrun):
        enc_flags = [r.detected for r in bench_enc.records]
        q_flags = [r.detected for r in bench_qrun.records]
        assert enc_flags == q_flags

    def test_recovery_exact_for_every_channel_spot(self, bench_setup,
                                                   bench_enc, bench_qrun):
        for t in (0, 7, 23, 42):
            for j in (0, 13, 59):
                rec = recover_encrypted_state(
                    bench_enc.states[t], j, bench_enc.sk, bench_setup.params,
                    bench_setup.mod_maps.PhiPinvBar)
                assert rec == bench_qrun.xbars[t]

    @pytest.mark.parametrize("N", [64, 4096])
    def test_recovery_equals_rounded_decryption(self, bench_setup, N):
        # states 0..3: the initial batch form and the resident limb form
        run = run_encrypted_mode(bench_setup, 3, seed=21, lwe_dim=N,
                                 keep_states=True, cross_check=False)
        params = bench_setup.params
        phi = bench_setup.mod_maps.PhiPinvBar
        q, lift = params.q, params.lift
        for state in run.states:
            for j in (0, 31, 59):
                scaled = phi @ decrypt_channel_state(state, j, run.sk)
                expect = ModMatrix.column(
                    [q.cmod((2 * v + lift) // (2 * lift))
                     for v in scaled.column_entries()], q)
                assert recover_encrypted_state(state, j, run.sk, params,
                                               phi) == expect

    def test_recovery_exact_at_the_digit_bound(self, bench_setup, public64):
        # every ciphertext and key entry at (q-1)/2 drives the d-bit digit
        # products of the recovery to their largest sums
        params = bench_setup.params
        q, N = params.q, 4096
        top = (q.q - 1) // 2
        phi = bench_setup.mod_maps.PhiPinvBar

        def batch(nrows):
            return encobs.EncryptedBatch(
                body=ModMatrix(((top,) * (N + 120),) * nrows, q), n_channels=60)

        sk = SecretKey([top] * N, q)
        state = EncObserverState.from_initial(batch(24))
        for _ in range(3):
            for j in (0, 59):
                scaled = phi @ decrypt_channel_state(state, j, sk)
                expect = ModMatrix.column(
                    [q.cmod((2 * v + params.lift) // (2 * params.lift))
                     for v in scaled.column_entries()], q)
                assert recover_encrypted_state(state, j, sk, params,
                                               phi) == expect
            state = step_encrypted(state, batch(6), public64)

    def test_channel_agreement(self, bench_setup, bench_enc):
        t = 31
        recs = {recover_encrypted_state(
            bench_enc.states[t], j, bench_enc.sk, bench_setup.params,
            bench_setup.mod_maps.PhiPinvBar).column_entries()
            for j in range(0, 60, 7)}
        assert len(recs) == 1

    def test_zero_mask_recovery_trivial(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        sk = SecretKey([0] * 64, params.q)
        session = EncryptorSession(sk, params, public64, rng=ZeroMaskRng())
        qrun = run_quantized_mode(bench_setup, 4)
        state = EncObserverState.from_initial(
            session.enc_initial(qrun.zbars[0]))
        for t in range(3):
            # with zero masks and zero errors the first column is exactly
            # the lifted plaintext state
            lifted = qrun.zbars[t].scale(params.lift).column_entries()
            assert state.channel(0).first_column() == lifted
            rec = recover_encrypted_state(state, 0, sk, params,
                                          bench_setup.mod_maps.PhiPinvBar)
            assert rec == qrun.xbars[t]
            state = step_encrypted(state, session.enc_input(qrun.vbars[t]),
                                   public64)


class TestWhiteBoxErrorBudget:
    def test_decryption_equals_lifted_state_plus_error(self, bench_setup,
                                                       bench_enc, bench_qrun):
        params = bench_setup.params
        q = params.q
        errs = error_trajectory(bench_enc.session.artifacts,
                                bench_setup.maps.Gbar,
                                bench_setup.bank.block_sizes, 49)
        for t in (0, 5, 17, 33, 49):
            expect = ModMatrix.column(
                [params.lift * z + e for z, e in
                 zip(bench_qrun.zbars[t].column_entries(), errs[t])], q)
            for j in (0, 25, 59):
                dec = decrypt_channel_state(bench_enc.states[t], j,
                                            bench_enc.sk)
                assert dec == expect

    def test_error_state_bound(self, bench_setup, bench_enc):
        # the accumulated error stays within the nilpotent-window budget
        gnorm = bench_setup.maps.gbar_inf_norm()
        bound = (1 + bench_setup.bank.l_max * gnorm) * 19
        errs = error_trajectory(bench_enc.session.artifacts,
                                bench_setup.maps.Gbar,
                                bench_setup.bank.block_sizes, 49)
        for e in errs:
            assert max(abs(v) for v in e) <= bound

    def test_projected_error_under_half_lift(self, bench_setup, bench_enc):
        errs = error_trajectory(bench_enc.session.artifacts,
                                bench_setup.maps.Gbar,
                                bench_setup.bank.block_sizes, 49)
        rows = bench_setup.maps.PhiPinvBar
        half = bench_setup.params.lift // 2
        for e in errs:
            for row in rows:
                val = abs(sum(a * b for a, b in zip(row, e)))
                assert val < half
