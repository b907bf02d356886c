import ast
import dataclasses
import gc
import hashlib
import random
import tracemalloc
import weakref
from itertools import chain, repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherobs import encobs, modring
from cipherobs.encobs import (
    EncObserverState,
    EncryptorSession,
    ObserverPublic,
    SessionNotFresh,
    cloud_states,
    disclose_residue,
    recover_encrypted_state,
    residue_first_column,
    step_encrypted,
)
from cipherobs.lwe import Ciphertext, LweError, SecretKey, keygen, \
    wire_layout
from cipherobs.lwe import TestRng as SeededRng
from cipherobs.modring import DimensionMismatch, ModMatrix, Modulus, \
    ModulusMismatch
from cipherobs.pipeline import SystemSetup, bundled_scenario_path, \
    run_encrypted_mode, run_quantized_mode
from cipherobs.quantobs import BlockGain, detect
from cipherobs.zerodyn import RelativeDegreeUndefined, channel_maps
from .helpers import UNEVEN_BLOCKS, ValueSource, batch_of, build_fbar, \
    build_transform, cancel_ints, cancel_words, cancellation_init, \
    cancellation_step, channel, ciphertext, cloud_run, column_words, \
    ct_matrix, decrypt_channel_state, dense_decrypt, dense_normal_form, \
    encrypted_residue, error_trajectory, full_state, \
    joined_residue_first_column, last_column, matrix_limbs, \
    recorded_view2, reference_ct_bytes, replay_states, secret_key, \
    sigma_dag, transcript_masks, uneven_gain


class ZeroMaskRng(ValueSource):
    """All uniforms zero, all errors zero: masks vanish entirely."""

    def uniforms(self, q, count):
        return [0] * count

    def error(self, noise):
        return 0


def zero_batch(public, nrows, N=64, t=0):
    """Batch t with all-zero [first | cancels] words of the benchmark's 60
    channels and an all-zero shared block of N words per row."""
    return batch_of(ciphertext(((0,) * (N + 1),) * nrows, public.q),
                    ((0,) * nrows,) * 60, public.gain, t)


def count_matrix_calls(monkeypatch) -> dict:
    """Counts of the calls, from now on, of `split_limbs`, the row-wise
    reduction `_reduce_rows`, `ModMatrix.column` and `ModMatrix._trusted`,
    which makes every matrix."""
    calls = dict.fromkeys(("split_limbs", "_reduce_rows", "column",
                           "_trusted"), 0)

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("split_limbs", "_reduce_rows"):
        monkeypatch.setattr(modring, name,
                            counted(name, getattr(modring, name)))
    for name in ("column", "_trusted"):
        monkeypatch.setattr(ModMatrix, name, classmethod(
            counted(name, getattr(ModMatrix, name).__func__)))
    return calls


@pytest.fixture(scope="module")
def public64(bench_setup):
    params = dataclasses.replace(bench_setup.params, N=64)
    return ObserverPublic.build(bench_setup.mod_maps, params)


class TestObserverPublic:
    def test_channel_count_and_degrees(self, public64):
        assert public64.n_channels == 60
        assert all(m.nu >= 1 for m in public64.channels)

    def test_channel_maps_equal_dense_normal_form(self, bench_setup,
                                                  public64):
        Fbar = build_fbar(bench_setup.mod_maps.block_sizes, public64.q)
        for j, maps in enumerate(public64.channels):
            dense = dense_normal_form(public64.Hbar.row(j), Fbar,
                                      public64.gain.Gbar)
            for name in ("nu", "T2", "V2", "Sigma"):
                assert getattr(maps, name) == dense[name], (j, name)
            assert sigma_dag(maps) == dense["SigmaDag"], j

    def test_fbar_matches_block_structure(self, bench_setup, public64):
        Fbar = public64.gain.Fbar
        assert Fbar == build_fbar(bench_setup.mod_maps.block_sizes,
                                  public64.q)
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

    @pytest.mark.parametrize("bad", ["initial", "input"])
    def test_wrong_height_refused_before_any_draw(self, bench_setup,
                                                  public64, bad):
        # a refused message consumes no randomness: the next batch equals
        # that of a twin session that never saw it
        params = dataclasses.replace(bench_setup.params, N=64)
        q = params.q

        def session():
            rng = SeededRng(10)
            return EncryptorSession(keygen(64, q, rng), params, public64,
                                    rng=rng)

        s, twin = session(), session()
        z0, vbar = ModMatrix.zeros(24, 1, q), ModMatrix.zeros(6, 1, q)
        if bad == "initial":
            with pytest.raises(encobs.EncObsError):
                s.enc_initial(vbar)
        assert (channel(s.enc_initial(z0), 0).to_bytes()
                == channel(twin.enc_initial(z0), 0).to_bytes())
        if bad == "input":
            with pytest.raises(encobs.EncObsError):
                s.enc_input(z0)
        assert (channel(s.enc_input(vbar), 0).to_bytes()
                == channel(twin.enc_input(vbar), 0).to_bytes())

    def test_zeroized_key_rejected_typed(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        sk = keygen(64, params.q, SeededRng(2))
        session = EncryptorSession(sk, params, public64, rng=SeededRng(3))
        state = EncObserverState.from_initial(
            session.enc_initial(ModMatrix.zeros(24, 1, params.q)))
        phi = bench_setup.mod_maps.PhiPinvBar
        recover_encrypted_state(state, 0, sk, params, phi)
        assert sk._digits is not None
        sk.zeroize()
        assert sk._digits is None
        with pytest.raises(LweError):
            EncryptorSession(sk, params, public64, rng=SeededRng(3))
        with pytest.raises(LweError):
            session.enc_input(ModMatrix.zeros(6, 1, params.q))
        with pytest.raises(LweError):
            recover_encrypted_state(state, 0, sk, params, phi)


class TestBatchOrder:
    """Each batch carries its step index: a state starts from batch 0 and
    then takes exactly the batch after its own step."""

    @pytest.fixture(scope="class")
    def run(self, bench_setup):
        return cloud_run(bench_setup, 64, 23, 4)

    def test_session_stamps_step_indices(self, run):
        _, _, batches, states = run
        assert [batch.t for batch in batches] == [0, 1, 2, 3, 4]
        assert [state.t for state in states] == [0, 1, 2, 3, 4]

    # the batches stepped after batch 0, and the first one out of place:
    # batch 2 dropped, batch 2 sent twice, batches 1 and 2 swapped
    @pytest.mark.parametrize("good, bad", [((1,), 3), ((1, 2), 2), ((), 2)],
                             ids=["dropped", "repeated", "swapped"])
    def test_missed_repeated_or_reordered_batch_refused(self, run, good,
                                                        bad):
        _, public, batches, _ = run
        state = EncObserverState.from_initial(batches[0])
        for i in good:
            state = step_encrypted(state, batches[i], public)
        with pytest.raises(encobs.EncObsError, match="does not follow"):
            step_encrypted(state, batches[bad], public)

    def test_initial_state_needs_batch_zero(self, run):
        _, _, batches, _ = run
        with pytest.raises(encobs.EncObsError, match="starts at batch 0"):
            EncObserverState.from_initial(batches[1])

    def test_loop_takes_each_batch_when_its_state_is_asked_for(self, run):
        _, public, batches, states = run
        taken = []

        def feed():
            for batch in batches:
                taken.append(batch.t)
                yield batch

        for t, (batch, state) in enumerate(cloud_states(feed(), public)):
            assert taken == list(range(t + 1))
            assert batch is batches[t]
            assert np.array_equal(state.body, states[t].body)


def test_only_the_cloud_loop_starts_and_steps_states():
    # an AST scan of the library: `step_encrypted` and
    # `EncObserverState.from_initial` are named, called or not, only inside
    # `encobs.cloud_states`, so no other loop starts or steps a state
    found = []

    def scan(node, path, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, path, child.name)
                continue
            name = getattr(child, "id", getattr(child, "attr", None))
            if (isinstance(child, (ast.Name, ast.Attribute))
                    and name in ("step_encrypted", "from_initial")):
                found.append((path.name, where, name))
            scan(child, path, where)

    for path in sorted(Path(encobs.__file__).parent.glob("*.py")):
        scan(ast.parse(path.read_text()), path, None)
    assert sorted(found) == [("encobs.py", "cloud_states", "from_initial"),
                             ("encobs.py", "cloud_states", "step_encrypted")]


class TestModifiedCompatibility:
    def test_decrypt_matches_standard_everywhere(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(6)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng)
        qrun = run_quantized_mode(bench_setup, 6)
        batch = session.enc_initial(qrun.zbars[0])
        batches = [batch]
        for t in range(5):
            batches.append(session.enc_input(qrun.vbars[t]))
        for batch in batches:
            std_plain = dense_decrypt(batch.ct, sk)
            for j in (0, 7, 59):
                assert dense_decrypt(channel(batch, j), sk) == std_plain

    def test_construction_identity_columns(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(7)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng)
        batch = session.enc_initial(ModMatrix.column(range(24), params.q))
        std_first = batch.ct.first_column()
        q = params.q
        for j in (0, 31):
            ct = channel(batch, j)
            merged = tuple(q.cmod(a + b) for a, b in
                           zip(ct.first_column(), last_column(ct)))
            assert merged == std_first

    def test_zero_mask_degenerate_session(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        sk = secret_key([1] * 64, params.q)
        session = EncryptorSession(sk, params, public64, rng=ZeroMaskRng())
        z0 = ModMatrix.column(range(24), params.q)
        batch = session.enc_initial(z0)
        lifted = z0.scale(params.lift).column_entries()
        for j in (0, 42):
            assert channel(batch, j).first_column() == lifted
            assert all(v == 0 for v in last_column(channel(batch, j)))
        nxt = session.enc_input(ModMatrix.column([1, 0, 0, 2, 0, 0], params.q))
        for j in (0, 42):
            assert all(v == 0 for v in last_column(channel(nxt, j)))

    def test_cancel_column_matches_independent_zerodyn(self, bench_setup,
                                                       public64):
        # recompute each channel's cancellation from the batches' masks with
        # the standalone zero-dynamics routines
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(8)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng)
        qrun = run_quantized_mode(bench_setup, 5)
        batches = [session.enc_initial(qrun.zbars[0])]
        for t in range(4):
            batches.append(session.enc_input(qrun.vbars[t]))
        masks = transcript_masks(
            [batch.ct for batch in batches],
            qrun.zbars[:1] + qrun.vbars, params.lift)
        Fbar = build_fbar(bench_setup.mod_maps.block_sizes, params.q)
        for j in (0, 17, 59):
            ct = build_transform(public64.Hbar.row(j), Fbar,
                                 public64.gain.Gbar, j=j)
            tilde_ini, state = cancellation_init(ct, masks[0])
            expect = (ct.V2 @ tilde_ini).column_entries()
            assert last_column(channel(batches[0], j)) == expect
            for t in range(1, 5):
                tilde, state = cancellation_step(ct, state, masks[t])
                expect = ct.SigmaDag.scale(tilde).column_entries()
                assert last_column(channel(batches[t], j)) == expect


def bare_public(q, sizes, Gbar, Hbar, N=0):
    """An ObserverPublic with no channel maps: enough for
    `residue_first_column`, and for `step_encrypted` on batches of LWE
    dimension N."""
    return ObserverPublic(q=q, N=N, gain=BlockGain.build(sizes, Gbar),
                          Hbar=Hbar, channels=())


class TestLazyCancelState:
    def test_benchmark_session_state_under_the_bound(self, public64,
                                                     bench_enc):
        # the encryptor's [m | cancels] state, rebuilt from the transcript's
        # masks, stays under the limb bound at every step and gives back
        # the recorded cancel columns
        gain = public64.gain
        bound = (gain.depth * gain.Gbar.inf_norm() + 1) << gain.width
        block, state = public64.cancel_initial(
            column_words(bench_enc.masks[0]))
        blocks = [block]
        for mask in bench_enc.masks[1:]:
            block, state = public64.cancel_step(state, column_words(mask))
            blocks.append(block)
            assert np.abs(state).max() < bound
        assert len(blocks) == len(bench_enc.view2.cancels)
        assert all(map(np.array_equal, blocks, bench_enc.view2.cancels))

    def test_cancel_step_refuses_a_column_of_the_wrong_height(self,
                                                              public64):
        nw = wire_layout(public64.q)[1]
        _, state = public64.cancel_initial(np.zeros((24, nw), np.uint64))
        for h in (5, 7):
            with pytest.raises(encobs.EncObsError):
                public64.cancel_step(state, np.zeros((h, nw), np.uint64))
        for l in (23, 25):
            with pytest.raises(encobs.EncObsError):
                public64.cancel_initial(np.zeros((l, nw), np.uint64))

    def test_cancelled_states_have_zero_chain_coordinates(self, bench_setup):
        # random block-shift observers over q = 101 with sparse gains and
        # residue rows, so channels have nu > 1; rows without a relative
        # degree are dropped
        q = Modulus(101)
        params = dataclasses.replace(bench_setup.params, q=q, N=8)
        rng = random.Random(4)
        degrees = set()
        for trial in range(20):
            blocks = tuple(rng.randint(1, 4)
                           for _ in range(rng.randint(1, 3)))
            l, h = sum(blocks), rng.choice([2, 3])
            G = ModMatrix([[rng.randrange(101) for _ in range(h)]
                           if rng.random() < 0.5 else [0] * h
                           for _ in range(l)], q)
            rows = []
            for _ in range(rng.randint(2, 4)):
                row = [rng.choice([0, rng.randrange(101)]) for _ in range(l)]
                try:
                    channel_maps(ModMatrix([row], q), build_fbar(blocks, q), G)
                except RelativeDegreeUndefined:
                    continue
                rows.append(row)
            if not rows:
                continue
            maps = dataclasses.replace(bench_setup.mod_maps, Gbar=G,
                                       Hbar=ModMatrix(rows, q),
                                       block_sizes=blocks)
            public = ObserverPublic.build(maps, params)
            gain = public.gain
            seeded = SeededRng(trial)
            session = EncryptorSession(keygen(8, q, seeded), params, public,
                                       rng=seeded)
            batch = session.enc_initial(ModMatrix.column(range(l), q))
            for t in range(4 * l):
                state = gain.join(session.cancel_state)
                cancels = list(zip(*cancel_ints(
                    q, batch.cancels)))
                for j, m in enumerate(public.channels):
                    degrees.add(m.nu)
                    cancelled = ModMatrix.column(
                        [row[0] - row[1 + j] for row in state], q)
                    assert (m.T2 @ cancelled).is_zero(), (trial, t, j)
                    if t:   # one nonzero, at row k_j, after step 0
                        assert not any(row[j] for i, row in
                                       enumerate(cancels) if i != m.k)
                batch = session.enc_input(ModMatrix.column(range(h), q))
        assert {1, 2, 3} <= degrees


def filled(elements, n):
    """n draws of `elements`, or one draw repeated n times: the worst case
    of a sum."""
    return st.one_of(st.lists(elements, min_size=n, max_size=n),
                     elements.map(lambda v: [v] * n))


class TestDigitPlaneResidue:
    MODULI = (Modulus(2 ** 61 - 1), Modulus(2 ** 109 - 31))

    @staticmethod
    def _case(q, sizes, Gbar, Hbar, columns):
        """(state, public) whose first column and cancel columns hold the
        (L, l, 1 + n_ch) limbs `columns`; the shared block is empty."""
        public = bare_public(q, sizes, Gbar, Hbar)
        return EncObserverState(columns, Hbar.nrows, public.gain, N=0, t=0,
                                window=()), public

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_equals_the_join_oracle(self, data):
        q = data.draw(st.sampled_from(self.MODULI), label="q")
        half = (q.q - 1) // 2
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1,
                                   max_size=6), label="blocks")
        l, h = sum(sizes), data.draw(st.integers(1, 3), label="h")
        n_ch = data.draw(st.integers(1, 4), label="n_ch")
        g = data.draw(st.lists(st.integers(-2 ** 20, 2 ** 20),
                               min_size=l * h, max_size=l * h), label="Gbar")
        Gbar = ModMatrix([g[i * h:(i + 1) * h] for i in range(l)], q)
        hmax = data.draw(st.sampled_from([2 ** 19 - 1, half]), label="hmax")
        hs = data.draw(filled(st.one_of(st.integers(-hmax, hmax),
                                        st.sampled_from([hmax, -hmax])),
                              n_ch * l), label="Hbar")
        Hbar = ModMatrix([hs[j * l:(j + 1) * l] for j in range(n_ch)], q)
        gain = BlockGain.build(sizes, Gbar)
        # the gain's lazy bound on every limb is at least 2^62, so
        # 2^62 - 1, all ones, maximizes the low 32-bit half
        bound = (max(sizes) * Gbar.inf_norm() + 1) << gain.width
        edges = [2 ** 62 - 1, bound, -bound, bound - 1, 1 - bound, 0]
        limb = st.one_of(st.integers(-bound, bound), st.sampled_from(edges))
        # the first column, then each cancel column, drawn independently
        columns = [data.draw(filled(limb, gain.count * l), label=name)
                   for name in ["first"] + [f"cancel {j}" for j in
                                            range(n_ch)]]
        columns = np.array(columns, dtype=np.int64).reshape(
            1 + n_ch, gain.count, l).transpose(1, 2, 0)
        state, public = self._case(q, sizes, Gbar, Hbar, columns)
        assert (residue_first_column(state, public)
                == joined_residue_first_column(state, public))

    @pytest.mark.parametrize("q", MODULI, ids=["2^61-1", "2^109-31"])
    @pytest.mark.parametrize("small", [True, False], ids=["27-bit", "full"])
    def test_one_bit_wider_digits_overflow(self, q, small, monkeypatch):
        # l = 24 gives 26-bit Hbar digits; 27-bit entries take one plane
        # once the digits are one bit wider
        sizes, n_ch = (6, 6, 6, 6), 2
        l = sum(sizes)
        hmax = 2 ** 27 - 1 if small else (q.q - 1) // 2
        Gbar = ModMatrix([[1]] * l, q)
        Hbar = ModMatrix([[hmax] * l] * n_ch, q)
        gain = BlockGain.build(sizes, Gbar)
        # the largest lazy limb below the bound: its low W bits all ones;
        # the first column holds +top and every cancel column -top
        top = ((max(sizes) * Gbar.inf_norm() + 1) << gain.width) - 1
        columns = np.full((gain.count, l, 1 + n_ch), -top, dtype=np.int64)
        columns[:, :, 0] = top
        state, public = self._case(q, sizes, Gbar, Hbar, columns)
        expect = joined_residue_first_column(state, public)
        assert residue_first_column(state, public) == expect
        e, planes = public._hbar_digits
        assert e == 26
        assert len(planes) == -(-(hmax.bit_length() + 1) // e)
        budget = encobs.digit_budget
        monkeypatch.setattr(encobs, "digit_budget",
                            lambda n, exact: budget(n, exact) + 1)
        wide = encobs._first_column_dots(columns[:, :, 0], columns[:, :, 1:],
                                         gain.width,
                                         *encobs._row_digits(Hbar))
        assert ModMatrix.column(wide, q) != expect


class TestEncryptedObserver:
    def test_zero_ciphertexts_keep_zero_state(self, bench_setup, public64):
        # [first | cancels | shared]: 1 + 60 + 64 columns
        state = EncObserverState.from_initial(zero_batch(public64, 24))
        nxt = full_state(step_encrypted(state, zero_batch(public64, 6, t=1),
                                        public64), public64)
        assert all(row[1:1 + 64] == (0,) * 64
                   for row in ct_matrix(channel(nxt, 0)).rows)
        assert all(v == 0 for j in range(60)
                   for v in channel(nxt, j).first_column())

    def test_channel_index_checked(self, bench_setup, bench_enc):
        state = bench_enc.states[0]
        for j in (-1, state.n_channels):
            with pytest.raises(encobs.EncObsError):
                recover_encrypted_state(state, j, bench_enc.sk,
                                        bench_setup.params,
                                        bench_setup.mod_maps.PhiPinvBar)

    def test_batch_width_checked(self, public64, bench_enc):
        narrow = zero_batch(public64, 6, N=32, t=1)
        with pytest.raises(encobs.EncObsError):
            step_encrypted(bench_enc.states[0], narrow, public64)

    def test_batch_of_another_dimension_refused(self, public64):
        # state and batch agree on N = 4096; the observer is built for 64
        state = EncObserverState.from_initial(
            zero_batch(public64, 24, N=4096))
        with pytest.raises(encobs.EncObsError, match="dimension 4096"):
            step_encrypted(state, zero_batch(public64, 6, N=4096, t=1),
                           public64)

    def test_limbs_of_another_observer_refused(self, bench_setup, public64,
                                               bench_enc):
        # two other observers with the same limb width and count: the same
        # bank over 2^107 - 1, and the benchmark maps with one Gbar entry
        # raised by 1, so only the gain tells their batches and states apart
        over_q = SystemSetup.from_scenario(bundled_scenario_path(),
                                           q=2 ** 107 - 1)
        rows = [list(row) for row in bench_setup.mod_maps.Gbar.rows]
        rows[0][0] += 1
        one_entry = dataclasses.replace(
            bench_setup.mod_maps, Gbar=ModMatrix(rows, public64.q))
        for setup, maps in ((over_q, over_q.mod_maps),
                            (bench_setup, one_entry)):
            params = dataclasses.replace(setup.params, N=64)
            foreign = ObserverPublic.build(maps, params)
            assert foreign.gain != public64.gain
            assert ((foreign.gain.width, foreign.gain.count)
                    == (public64.gain.width, public64.gain.count) == (42, 3))
            rng = SeededRng(6)
            session = EncryptorSession(keygen(64, params.q, rng), params,
                                       foreign, rng=rng)
            state = EncObserverState.from_initial(
                session.enc_initial(ModMatrix.zeros(24, 1, params.q)))
            batch = session.enc_input(ModMatrix.zeros(6, 1, params.q))
            with pytest.raises(encobs.EncObsError, match="another observer"):
                step_encrypted(bench_enc.states[0], batch, public64)
            with pytest.raises(encobs.EncObsError, match="another observer"):
                residue_first_column(state, public64)

    def test_step_matches_dense_channel_product(self, bench_setup, public64,
                                                 bench_enc):
        state = bench_enc.states[3]
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(9)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng)
        session.enc_initial(ModMatrix.zeros(24, 1, params.q))
        qrun = run_quantized_mode(bench_setup, 4)
        # batch 4, the one that follows the state at step 3
        in_batch = [session.enc_input(v) for v in qrun.vbars][-1]
        nxt = full_state(step_encrypted(state, in_batch, public64), public64)
        full = full_state(state, public64)
        Fbar = build_fbar(bench_setup.mod_maps.block_sizes, params.q)
        for j in (0, 29):
            dense = (Fbar @ ct_matrix(channel(full, j))
                     + public64.gain.Gbar @ ct_matrix(channel(in_batch, j)))
            assert ct_matrix(channel(nxt, j)) == dense

    def test_a_step_reduces_each_value_once(self, bench_setup,
                                            monkeypatch):
        # the first enc-n64 step, encryptor to recovery, of a public and a
        # session just set up, so a map first built inside the step would
        # show: values enter limbs only as words, so nothing is split, and
        # every ModMatrix the step makes is a column reduced in one pass by
        # `column`, none by the row-wise constructor
        params = dataclasses.replace(bench_setup.params, N=64)
        public = ObserverPublic.build(bench_setup.mod_maps, params)
        rng = SeededRng(5)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public, rng=rng)
        qrun = run_quantized_mode(bench_setup, 2)
        state = EncObserverState.from_initial(
            session.enc_initial(qrun.zbars[0]))
        calls = count_matrix_calls(monkeypatch)
        batch = session.enc_input(qrun.vbars[0])
        state = step_encrypted(state, batch, public)
        disclosed = disclose_residue(residue_first_column(state, public),
                                     params)
        flag = detect(disclosed, 1, params).flag
        xhat = recover_encrypted_state(state, 0, sk, params,
                                       bench_setup.mod_maps.PhiPinvBar)
        assert (disclosed, xhat) == (qrun.rbars[1], qrun.xbars[1])
        assert not flag
        assert calls["split_limbs"] == calls["_reduce_rows"] == 0
        assert calls["column"] > 0 and calls["_trusted"] == calls["column"]

    def test_enc_input_builds_only_the_lifted_message(self, bench_setup,
                                                      public64, monkeypatch):
        # the encryption's first column and mask go straight into words:
        # the one ModMatrix of an enc step is the lifted message
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(6)
        session = EncryptorSession(keygen(64, params.q, rng), params,
                                   public64, rng=rng)
        session.enc_initial(ModMatrix.zeros(24, 1, params.q))
        v = ModMatrix.column([1, 2, 3, 4, 5, 6], params.q)
        calls = count_matrix_calls(monkeypatch)
        session.enc_input(v)
        assert calls["_trusted"] == calls["column"] == 1

    def test_residue_first_column_consistency(self, public64, bench_enc):
        for t in (0, 10, 49):
            state = bench_enc.states[t]
            R, r1 = encrypted_residue(state, public64)
            assert r1 == residue_first_column(state, public64)
            assert R.shape == (60, 66)
            assert r1.column_entries() == R.column_entries(0)

    def test_zero_state_zero_residue(self, public64):
        state = EncObserverState.from_initial(zero_batch(public64, 24))
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

    def test_disclosure_inverts_lift_once(self, bench_setup, monkeypatch):
        # the parameters compute lift^-1 on the first disclosure only; a
        # lift that q divides has no inverse and is refused every time;
        # a copy of the shared benchmark parameters has no cached inverse
        params = dataclasses.replace(bench_setup.params)
        q = params.q
        calls = []
        inv = Modulus.inv
        monkeypatch.setattr(Modulus, "inv",
                            lambda self, a: calls.append(a) or inv(self, a))
        r1 = ModMatrix.column([params.lift * 3], q)
        for _ in range(3):
            assert disclose_residue(r1, params) == ModMatrix.column([3], q)
        assert calls == [params.lift]
        shared = dataclasses.replace(params, lift=5 * q.q)
        for _ in range(2):
            with pytest.raises(encobs.EncObsError, match="shares a factor"):
                disclose_residue(r1, shared)
        assert calls == [params.lift]

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
        sk, public, _, states = cloud_run(bench_setup, N, 21, 3)
        params = bench_setup.params
        phi = bench_setup.mod_maps.PhiPinvBar
        q, lift = params.q, params.lift
        for state in states:
            for j in (0, 31, 59):
                scaled = phi @ decrypt_channel_state(state, public, j, sk)
                expect = ModMatrix.column(
                    [q.cmod((2 * v + lift) // (2 * lift))
                     for v in scaled.column_entries()], q)
                assert recover_encrypted_state(state, j, sk, params,
                                               phi) == expect

    def test_recovery_exact_at_the_digit_bound(self, bench_setup):
        # every ciphertext and key entry at (q-1)/2 drives the word products
        # of the recovery to large sums; the 24-row initial batch spans
        # several product row blocks
        params = dataclasses.replace(bench_setup.params, N=4096)
        q, N = params.q, params.N
        top = (q.q - 1) // 2
        phi = bench_setup.mod_maps.PhiPinvBar
        public = ObserverPublic.build(bench_setup.mod_maps, params)

        def batch(nrows, t):
            return batch_of(ciphertext(((top,) * (N + 1),) * nrows, q),
                            ((top,) * nrows,) * 60, public.gain, t)

        sk = secret_key([top] * N, q)
        for _, state in cloud_states([batch(24, 0), batch(6, 1), batch(6, 2)],
                                     public):
            for j in (0, 59):
                scaled = phi @ decrypt_channel_state(state, public, j, sk)
                expect = ModMatrix.column(
                    [q.cmod((2 * v + params.lift) // (2 * params.lift))
                     for v in scaled.column_entries()], q)
                assert recover_encrypted_state(state, j, sk, params,
                                               phi) == expect

    def test_key_of_another_modulus_rejected_typed(self, bench_setup,
                                                   bench_enc):
        other = keygen(64, Modulus(2 ** 61 - 1), SeededRng(12))
        with pytest.raises(ModulusMismatch):
            recover_encrypted_state(bench_enc.states[0], 0, other,
                                    bench_setup.params,
                                    bench_setup.mod_maps.PhiPinvBar)

    @pytest.mark.parametrize("wrong", ["params", "phi", "both"])
    def test_maps_of_another_modulus_rejected_typed(self, bench_setup,
                                                    bench_enc, wrong):
        # a state over 2^109 - 31 against recovery maps over 2^107 - 1;
        # with both over 2^107 - 1 no product mixes moduli
        other = Modulus(2 ** 107 - 1)
        params = bench_setup.params
        phi = bench_setup.mod_maps.PhiPinvBar
        if wrong != "phi":
            params = dataclasses.replace(params, q=other)
        if wrong != "params":
            phi = ModMatrix(phi.rows, other)
        with pytest.raises(ModulusMismatch):
            recover_encrypted_state(bench_enc.states[0], 0, bench_enc.sk,
                                    params, phi)

    def test_disclosure_of_another_modulus_rejected_typed(
            self, bench_setup, bench_enc, public64):
        r1 = residue_first_column(bench_enc.states[0], public64)
        params = dataclasses.replace(bench_setup.params,
                                     q=Modulus(2 ** 107 - 1))
        with pytest.raises(ModulusMismatch):
            disclose_residue(r1, params)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_recovery_map_of_another_width_rejected_typed(
            self, bench_setup, bench_enc, extra):
        # a map with one column fewer or more than the state has rows
        phi = bench_setup.mod_maps.PhiPinvBar
        rows = [row[:extra] if extra < 0 else row + (1,) for row in phi.rows]
        with pytest.raises(DimensionMismatch):
            recover_encrypted_state(bench_enc.states[7], 0, bench_enc.sk,
                                    bench_setup.params,
                                    ModMatrix(rows, phi.modulus))

    def test_channel_agreement(self, bench_setup, bench_enc):
        t = 31
        recs = {recover_encrypted_state(
            bench_enc.states[t], j, bench_enc.sk, bench_setup.params,
            bench_setup.mod_maps.PhiPinvBar).column_entries()
            for j in range(0, 60, 7)}
        assert len(recs) == 1

    def test_zero_mask_recovery_trivial(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        sk = secret_key([0] * 64, params.q)
        session = EncryptorSession(sk, params, public64, rng=ZeroMaskRng())
        qrun = run_quantized_mode(bench_setup, 4)
        batches = chain([session.enc_initial(qrun.zbars[0])],
                        map(session.enc_input, qrun.vbars[:2]))
        for t, (_, state) in enumerate(cloud_states(batches, public64)):
            # with zero masks and zero errors the first column is exactly
            # the lifted plaintext state
            lifted = qrun.zbars[t].scale(params.lift).column_entries()
            assert (channel(full_state(state, public64), 0).first_column()
                    == lifted)
            rec = recover_encrypted_state(state, 0, sk, params,
                                          bench_setup.mod_maps.PhiPinvBar)
            assert rec == qrun.xbars[t]


def rounded_decryption(dec, params, phi):
    """Recovery's rounding applied to a decryption: round(phi dec / lift)."""
    q, lift = params.q, params.lift
    return ModMatrix.column([q.cmod((2 * v + lift) // (2 * lift))
                             for v in (phi @ dec).column_entries()], q)


class TestWindowRecovery:
    """Recovery from the window's per-batch key products against the
    full-width state that `full_state` replays, and what the key caches
    and the states retain."""

    @pytest.mark.parametrize("N, steps", [(64, 50), (4096, 8)])
    def test_recovery_equals_rounded_full_decryption(self, bench_setup, N,
                                                     steps):
        # live under the encryptor's key, which holds every batch it
        # encrypted before any recovery, and replayed from View 2 under a
        # fresh copy of it, which misses once on each new batch and hits on
        # the older batches of the window
        sk, public, batches, states = cloud_run(bench_setup, N, 17, steps)
        params = bench_setup.params
        phi = bench_setup.mod_maps.PhiPinvBar
        view2 = recorded_view2(batches)
        fresh = SecretKey.from_bytes(sk.to_bytes())
        replayed = replay_states(view2, public)
        for t, (live, again) in enumerate(zip(states, replayed)):
            assert all(batch in sk._owned_products for batch in live.window)
            assert all(batch in fresh._owned_products
                       for batch in again.window[:-1])
            assert again.window[-1] not in fresh._owned_products
            dec = dense_decrypt(channel(full_state(live, public), 0), sk)
            expect = rounded_decryption(dec, params, phi)
            assert recover_encrypted_state(live, 0, sk, params,
                                           phi) == expect, t
            assert recover_encrypted_state(again, 0, fresh, params,
                                           phi) == expect, t
            assert all(batch in sk._owned_products for batch in live.window)
            assert all(batch in fresh._owned_products
                       for batch in again.window)
            # the decryption itself is exact, not only its rounding
            for state, key in ((live, sk), (again, fresh)):
                first = public.gain.join(state.body[:, :, :1])
                shared = encobs._shared_key_product(state, key)
                assert ModMatrix.column(
                    [f - s for (f,), s in zip(first, shared)], public.q
                ) == dec, t

    @pytest.mark.parametrize("bank", UNEVEN_BLOCKS + ["benchmark"])
    def test_recursion_executors_equal_dense(self, bench_setup, bank):
        # one BlockGain steps limbs (step) and Python ints
        # (step_ints), both against dense Fbar Z + Gbar V, for more steps
        # than the largest block
        q = bench_setup.params.q
        rng = random.Random(repr(bank))
        if bank == "benchmark":
            sizes, Gbar = bench_setup.mod_maps.block_sizes, \
                bench_setup.mod_maps.Gbar
        else:
            sizes, Gbar = bank, uneven_gain(q, bank, rng)
        gain = BlockGain.build(sizes, Gbar)
        Fbar = build_fbar(sizes, q)
        half = (q.q - 1) // 2

        def column(nrows):
            return ModMatrix.column(
                [rng.randint(-half, half) for _ in range(nrows)], q)

        Z = column(Gbar.nrows)
        ints, limbs = Z.column_entries(), matrix_limbs(gain, Z)
        for t in range(max(sizes) + 2):
            V = column(Gbar.ncols)
            Z = Fbar @ Z + Gbar @ V
            ints = gain.step_ints(ints, V.column_entries())
            limbs = gain.step(limbs, matrix_limbs(gain, V))
            assert ModMatrix.column(ints, q) == Z, t
            assert ModMatrix(gain.join(limbs), q) == Z, t
        # Fbar^b = 0, so recovery may replay from zero b batches back
        for _ in range(max(sizes)):
            ints = gain.step_ints(ints, (0,) * Gbar.ncols)
        assert not any(ints)

    @pytest.mark.parametrize("sizes", UNEVEN_BLOCKS)
    def test_uneven_blocks(self, bench_setup, sizes):
        # blocks shorter than the largest by two rows or more: recovery
        # against the replayed full state at every step, the initial batch
        # in the window and out of it
        params = dataclasses.replace(bench_setup.params, N=16)
        q = params.q
        rng = random.Random(repr(sizes))
        l, depth = sum(sizes), max(sizes)
        Gbar = uneven_gain(q, sizes, rng)
        public = bare_public(q, sizes, Gbar, ModMatrix.identity(l, q).row(0),
                             N=16)

        def batch(nrows, t):
            rows = [tuple(q.cmod(rng.randrange(q.q)) for _ in range(17))
                    for _ in range(nrows)]
            cancel = tuple(rng.randint(-99, 99) for _ in range(nrows))
            return batch_of(ciphertext(rows, q), [cancel], public.gain, t)

        sk = keygen(16, q, SeededRng(l))
        phi = ModMatrix.identity(l, q)
        batches = (batch(Gbar.ncols if t else l, t)
                   for t in range(2 * depth + 2))
        for t, (_, state) in enumerate(cloud_states(batches, public)):
            dec = dense_decrypt(channel(full_state(state, public), 0), sk)
            first = public.gain.join(state.body[:, :, :1])
            shared = encobs._shared_key_product(state, sk)
            assert ModMatrix.column(
                [f - s for (f,), s in zip(first, shared)], q) == dec, t
            assert recover_encrypted_state(state, 0, sk, params, phi) == \
                rounded_decryption(dec, params, phi), t

    @pytest.mark.parametrize("bank", UNEVEN_BLOCKS + ["benchmark"])
    def test_encryptor_cancel_columns_equal_the_clouds(self, bench_setup,
                                                       bank):
        # the encryptor adds each cancel block as one outer product, the
        # cloud as part of its dense Gbar product: the cancel columns of
        # the two states agree limb for limb at every step
        params = dataclasses.replace(bench_setup.params, N=16)
        q = params.q
        rng = random.Random(repr(bank))
        maps = bench_setup.mod_maps
        if bank != "benchmark":
            Gbar, l = uneven_gain(q, bank, rng), sum(bank)
            rows = []
            for i in range(l):
                try:
                    channel_maps(ModMatrix.identity(l, q).row(i),
                                 build_fbar(bank, q), Gbar)
                except RelativeDegreeUndefined:
                    continue
                rows.append([int(i == k) for k in range(l)])
            maps = dataclasses.replace(maps, Gbar=Gbar, block_sizes=bank,
                                       Hbar=ModMatrix(rows, q))
        public = ObserverPublic.build(maps, params)
        assert public.n_channels > 0
        seeded = SeededRng(len(repr(bank)))
        session = EncryptorSession(keygen(16, q, seeded), params, public,
                                   rng=seeded)

        def column(nrows):
            return ModMatrix.column(
                [rng.randrange(q.q) for _ in range(nrows)], q)

        batches = chain([session.enc_initial(column(maps.Gbar.nrows))],
                        (session.enc_input(column(maps.Gbar.ncols))
                         for _ in range(30)))
        for t, (_, state) in enumerate(cloud_states(batches, public)):
            assert np.array_equal(session.cancel_state[:, :, 1:],
                                  state.body[:, :, 1:]), t

    @pytest.mark.parametrize("N", [64, 4096])
    def test_encryptor_seeds_the_key_product(self, bench_setup, N):
        # the entry the encryptor stores, b - e, is the A sk mod q that a
        # key which did not encrypt the batch computes
        sk, public, batches, _ = cloud_run(bench_setup, N, 22, 6)
        other = SecretKey.from_bytes(sk.to_bytes())
        for batch in batches:
            assert sk._owned_products[batch] == tuple(
                map(public.q.cmod, other.products(batch.ct.shared)))

    def test_zeroize_empties_the_cache(self, bench_setup):
        sk, public, batches, states = cloud_run(bench_setup, 64, 18, 8)
        params = bench_setup.params
        phi = bench_setup.mod_maps.PhiPinvBar
        recover_encrypted_state(states[-1], 0, sk, params, phi)
        assert len(sk._owned_products) == len(batches)
        sk.zeroize()
        assert len(sk._owned_products) == 0
        with pytest.raises(LweError):
            recover_encrypted_state(states[-1], 0, sk, params, phi)
        with pytest.raises(LweError):
            sk.cached_products(states[-1].window[-1],
                               states[-1].window[-1].ct.shared)

    def test_retention_is_bounded(self, bench_setup, bench_qrun, public64):
        # 300 steps keeping only the current state: it references at most
        # depth batches, every older batch is collected, and neither key
        # caches a product for a batch no state holds
        params = dataclasses.replace(bench_setup.params, N=64)
        phi = bench_setup.mod_maps.PhiPinvBar
        rng = SeededRng(19)
        sk = keygen(64, params.q, rng)
        other = SecretKey.from_bytes(sk.to_bytes())
        session = EncryptorSession(sk, params, public64, rng=rng)
        batches = chain([session.enc_initial(bench_qrun.zbars[0])],
                        (session.enc_input(bench_qrun.vbars[t % 50])
                         for t in range(300)))
        made = []
        for batch, state in cloud_states(batches, public64):
            made.append(weakref.ref(batch))
            for key in (sk, other):
                recover_encrypted_state(state, 0, key, params, phi)
            inputs = [b for b in state.window if b.body.shape[1] == 6]
            assert len(state.window) <= public64.gain.depth
            assert len(inputs) <= public64.gain.depth
        del batch
        gc.collect()
        held = {id(b) for b in state.window}
        assert {id(ref()) for ref in made if ref() is not None} == held
        for key in (sk, other):
            assert {id(b) for b in key._owned_products.keys()} == held

    def test_traced_memory_stays_flat_over_a_long_run(self, bench_setup,
                                                       public64):
        # 600 zero steps through the deployed loop, recovering channel 0 at
        # each: after step 100 the traced memory grows by less than 1 MB
        # (a loop that kept every batch would grow about 11 MB)
        params = dataclasses.replace(bench_setup.params, N=64)
        phi = bench_setup.mod_maps.PhiPinvBar
        rng = SeededRng(29)
        sk = keygen(64, params.q, rng)
        session = EncryptorSession(sk, params, public64, rng=rng)
        zero = ModMatrix.zeros
        batches = chain([session.enc_initial(zero(24, 1, params.q))],
                        map(session.enc_input,
                            repeat(zero(6, 1, params.q), 600)))
        traced = []     # at steps 100 and 600, while the loop still runs
        tracemalloc.start()
        try:
            for t, (_, state) in enumerate(cloud_states(batches, public64)):
                assert recover_encrypted_state(state, 0, sk, params,
                                               phi).is_zero(), t
                if t in (100, 600):
                    traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert len(traced) == 2
        assert traced[1] - traced[0] < 2 ** 20, traced

    def test_state_holds_only_first_and_cancel_columns(self, bench_setup):
        _, public, batches, states = cloud_run(bench_setup, 4096, 20, 2)
        L = public.gain.count
        for state in states:
            assert state.body.shape == (L, 24, 1 + 60)
        # the initial state holds the batch's first and cancel columns
        # themselves, not a copy
        assert states[0].body is batches[0].body

    def test_batch_limbs_are_read_only(self, bench_setup, public64):
        params = dataclasses.replace(bench_setup.params, N=64)
        rng = SeededRng(21)
        session = EncryptorSession(keygen(64, params.q, rng), params,
                                   public64, rng=rng)
        first = session.enc_initial(ModMatrix.zeros(24, 1, params.q))
        second = session.enc_input(ModMatrix.zeros(6, 1, params.q))
        written = encobs.EncryptedBatch(second.ct, second.cancels,
                                        public64.gain, 1)
        # the ciphertext and the words are shared, never copied
        assert written.ct is second.ct
        assert written.cancels is second.cancels
        for batch in (first, second, written):
            # the shared block is the sampler's words: 2 per 109-bit value
            assert batch.ct.shared.dtype == np.uint64
            assert batch.ct.shared.shape == (batch.body.shape[1], 64, 2)
            assert batch.cancels.shape == (60, batch.body.shape[1], 2)
            for part in (batch.body, batch.ct.first, batch.cancels):
                with pytest.raises(ValueError):
                    part[0, 0] = 1
            with pytest.raises(ValueError):
                batch.ct.shared[...] += 1


class TestBatchParts:
    def test_ciphertext_of_another_modulus_refused(self, public64):
        # a 61-bit q has one word per value, like none of the gain's
        q = Modulus(2 ** 61 - 1)
        with pytest.raises(encobs.EncObsError, match="modulus"):
            batch_of(ciphertext(((1, 2),) * 6, q), ((0,) * 6,) * 60,
                     public64.gain, 1)

    @pytest.mark.parametrize("rows", [5, 7])
    def test_cancel_rows_must_be_the_ciphertexts(self, public64, rows):
        # refused with a typed error, not numpy's ValueError from joining
        # the columns
        ct = ciphertext(((1, 2),) * 6, public64.q)
        with pytest.raises(encobs.EncObsError, match="cancel columns"):
            batch_of(ct, ((0,) * rows,) * 60, public64.gain, 1)
        assert batch_of(ct, ((0,) * 6,) * 60, public64.gain, 1).N == 1


class TestWhiteBoxErrorBudget:
    def test_decryption_equals_lifted_state_plus_error(self, bench_setup,
                                                       bench_enc, bench_qrun):
        params = bench_setup.params
        q = params.q
        errs = error_trajectory(bench_enc.errors,
                                bench_setup.maps.Gbar,
                                bench_setup.bank.block_sizes, 49)
        for t in (0, 5, 17, 33, 49):
            expect = ModMatrix.column(
                [params.lift * z + e for z, e in
                 zip(bench_qrun.zbars[t].column_entries(), errs[t])], q)
            for j in (0, 25, 59):
                dec = decrypt_channel_state(bench_enc.states[t],
                                            bench_enc.public, j,
                                            bench_enc.sk)
                assert dec == expect

    def test_error_state_bound(self, bench_setup, bench_enc):
        # the accumulated error stays within the nilpotent-window budget
        gnorm = bench_setup.mod_maps.Gbar.inf_norm()
        bound = (1 + bench_setup.bank.l_max * gnorm) * 19
        errs = error_trajectory(bench_enc.errors,
                                bench_setup.maps.Gbar,
                                bench_setup.bank.block_sizes, 49)
        for e in errs:
            assert max(abs(v) for v in e) <= bound

    @pytest.mark.parametrize("lift, exact",
                             [(2 ** 44, False), (2 ** 45, True)])
    def test_worst_case_errors_round_recovery(self, bench_setup, lift, exact):
        # every input error is 19 times the sign of its coefficient in the
        # worst row i of PhiPinvBar E_T at T = 8 >= b = 6, and the initial
        # errors are zero (Fbar^8 = 0).  Row i of PhiPinvBar E_T is then
        # the exact worst case W = 1.2195 lift/2 at the paper's lift 2^44,
        # where recovery rounds row i one too high, and 0.61 lift/2 at the
        # default lift 2^45, where it is exact
        params = dataclasses.replace(bench_setup.params, lift=lift)
        maps, q, T = bench_setup.mod_maps, params.q, 8
        fbar, fkg, coeffs = build_fbar(maps.block_sizes, q), maps.Gbar, []
        for _ in range(T):    # coeffs[k] = PhiPinvBar Fbar^k Gbar
            coeffs.append(maps.PhiPinvBar @ fkg)
            fkg = fbar @ fkg
        norms = [sum(abs(c) for C in coeffs for c in C.rows[i])
                 for i in range(maps.PhiPinvBar.nrows)]
        i = norms.index(max(norms))
        assert 19 * norms[i] == maps.recovery_error(19)
        errors = [0] * maps.Gbar.nrows + [
            19 * ((c > 0) - (c < 0))
            for j in range(1, T + 1) for c in coeffs[T - j].rows[i]]

        class WorstErrorRng(SeededRng):
            def error(self, noise):
                assert noise.bound == 19
                return errors.pop(0)

        rng = WorstErrorRng(3)
        qrun = run_quantized_mode(bench_setup, T + 1)
        sk = keygen(64, q, rng)
        public = ObserverPublic.build(maps, params)
        session = EncryptorSession(sk, params, public, rng=rng)
        *_, (_, state) = cloud_states(chain(
            [session.enc_initial(qrun.zbars[0])],
            map(session.enc_input, qrun.vbars[:T])), public)
        assert state.t == T and not errors
        got = recover_encrypted_state(state, 0, sk, params, maps.PhiPinvBar)
        assert (got == qrun.xbars[T]) == exact
        if not exact:
            off = got - qrun.xbars[T]
            assert off == ModMatrix.column(
                [int(r == i) for r in range(off.nrows)], q)

    def test_projected_error_under_half_lift(self, bench_setup, bench_enc):
        errs = error_trajectory(bench_enc.errors,
                                bench_setup.maps.Gbar,
                                bench_setup.bank.block_sizes, 49)
        rows = bench_setup.maps.PhiPinvBar
        half = bench_setup.params.lift // 2
        for e in errs:
            for row in rows:
                val = abs(sum(a * b for a, b in zip(row, e)))
                assert val < half


# SHA-256 of the first steps of TestRng(5) deployments, recorded when the
# randomness was still drawn one `int.from_bytes` per value and the mask
# summed with Python ints, and ciphertexts were serialized in the
# sign-and-length integer layout of `reference_ct_bytes`: the limb-native
# encryptor emits the same ciphertexts.
GOLDEN = {
    64: {"batches": "07410b151b09f7d3630b6dd929205132fe522019ea37bc0619c668dfb7a7a867",
         "states": "1a9fb807472257c33ebba86c8f5982fdc1ac341dd78e9ce9119440597e82d214",
         "standard": "b5aeea59e79aa35d814d85c562f36245fd0d21ada1fa46842a790c8f6eac322e"},
    4096: {"batches": "74fc42642fe9ff6560202540d476a0ab398da0a540bc60a5f69b91de297a3824",
           "states": "c8ec10a2328d31e9b7bfe8c32a341969116d77b1222330e889e3f80a4543d133",
           "standard": "6caf53d453f13255aba4dfff65c324f07cfa5eb512a6191bbd7a90e3f9162999"},
}


# The same ciphertexts' own bytes, `Ciphertext.to_bytes` in the
# fixed-width layout.
GOLDEN_WIRE = {
    64: {"batches": "e15e370952acee86e9f6137f6e5b55ed67bdbe49f59d7a02380be7a6827aafd4",
         "states": "f18973ad5630b1d09322c54221ddb2db808aa51e6dcddcbf671e5052db1c9a5d",
         "standard": "290ab31f349322fb91449f8d6a743c728e51d93b5d63a532ff8b578956b55cfd"},
    4096: {"batches": "4be85064eabe52683c9df9475a7c3692077384a912e762468462f05bbb338296",
           "states": "7b1a7e5a959fe7629ce168a9d647967b1946c22937bd4f7ae8bb571d6f5efc3a",
           "standard": "93167e1589dbde28090b56c0f33dcf5284a5b8f8ab4ec6f11762fa0f5d5a362c"},
}


def golden_digests(batches, states, public, encode=reference_ct_bytes):
    """The digests GOLDEN records: channels 0 and 59 of the batches and
    the states (their `full_state`), and the batches' standard
    ciphertexts, each ciphertext serialized by `encode`."""
    digests = {}
    for name, parts in (("batches", batches),
                        ("states", [full_state(s, public) for s in states])):
        h = hashlib.sha256()
        for part in parts:
            for j in (0, 59):
                h.update(encode(channel(part, j)))
        digests[name] = h.hexdigest()
    h = hashlib.sha256()
    for batch in batches:
        h.update(encode(batch.ct))
    digests["standard"] = h.hexdigest()
    return digests


@pytest.mark.parametrize("N", sorted(GOLDEN))
def test_seeded_ciphertexts_match_golden_digests(paper_lift_setup, N):
    """Channels 0 and 59 of the initial and 3 input batches and of the
    states after them, and the batches' standard ciphertexts, at the
    paper's lift 2^44 that they were recorded at."""
    _, public, batches, states = cloud_run(paper_lift_setup, N, 5, 3)
    for batch in batches:
        # the encryptor's limbs stay below 2^W, the gain's input bound
        assert int(np.abs(batch.body).max()) < 2 ** batch.gain.width
    assert golden_digests(batches, states, public) == GOLDEN[N]
    assert golden_digests(batches, states, public,
                          Ciphertext.to_bytes) == GOLDEN_WIRE[N]


class TestTranscriptReplay:
    @pytest.mark.parametrize("N, steps", [(64, 12), (4096, 6)])
    def test_view2_replay_equals_the_cloud_states(self, bench_setup, N,
                                                  steps):
        # the states rebuilt from a recorded View 2 equal the ones the
        # cloud stepped, every column of every channel, at every step
        at_N = dataclasses.replace(
            bench_setup, params=dataclasses.replace(bench_setup.params, N=N))
        run = run_encrypted_mode(at_N, steps, seed=5, record_views=True)
        _, public, _, states = cloud_run(bench_setup, N, 5, steps)
        replayed = replay_states(run.view2, run.public)
        assert len(replayed) == len(states) == steps + 1
        for t, (got, cloud) in enumerate(zip(replayed, states)):
            got, cloud = full_state(got, run.public), full_state(cloud, public)
            assert got.ct == cloud.ct, t
            assert np.array_equal(got.cancels, cloud.cancels), t

    def test_changed_cancel_entry_changes_the_disclosure(self, bench_setup,
                                                         bench_enc):
        # +1 on channel j's cancel entry at row k_j of input step t moves
        # residue j at step t by Hbar_j Gbar e_k_j = Sigma_j[k_j] != 0
        public, view2 = bench_enc.public, bench_enc.view2
        t, j = 3, 7
        k = public.channels[j].k
        columns = [list(c) for c in cancel_ints(public.q, view2.cancels[t])]
        columns[j][k] += 1
        cancels = list(view2.cancels)
        cancels[t] = cancel_words(public.q, columns)
        changed = dataclasses.replace(view2, cancels=tuple(cancels))
        disclosed = [disclose_residue(residue_first_column(state, public),
                                      bench_setup.params)
                     for state in replay_states(changed, public)[:t + 1]]
        assert disclosed[:t] == bench_enc.disclosed[:t]
        assert disclosed[t] != bench_enc.disclosed[t]
