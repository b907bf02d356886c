import dataclasses
import hashlib
import itertools
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherobs import encobs, lwe, modring, quantobs, secviews
from cipherobs.encobs import EncObserverState, EncryptorSession, ObserverPublic
from cipherobs.lwe import Ciphertext, CiphertextKind, LweError, \
    pack_words, words_of
from cipherobs.lwe import TestRng as SeededRng
from cipherobs.modring import ModMatrix, Modulus, _is_probable_prime
from cipherobs.pipeline import SystemSetup, bundled_scenario_path, \
    run_encrypted_mode
from cipherobs.quantobs import BlockGain, QuantParams
from cipherobs.secviews import (
    HorizonTooShort,
    View1,
    View2,
    ViewError,
    f1_view1_to_view2,
    f2_view2_to_view1,
)
from cipherobs.zerodyn import channel_maps

from .helpers import HUGE_PRIME, MALFORMED_INT_LISTS, build_fbar, \
    cancel_ints, cancel_words, ciphertext, ct_blob, ct_matrix, \
    f1_zero_dynamics, many_moduli_view2_blob, recorded_view2, \
    reference_ct_bytes, reference_view_bytes, secret_key


def _tiny_public(q: Modulus, block_sizes, Gr, Hr, N):
    gain = BlockGain.build(block_sizes, ModMatrix(Gr, q))
    Hbar = ModMatrix(Hr, q)
    Fbar = build_fbar(block_sizes, q)
    channels = tuple(channel_maps(Hbar.row(j), Fbar, gain.Gbar)
                     for j in range(Hbar.nrows))
    return ObserverPublic(q=q, N=N, gain=gain, Hbar=Hbar, channels=channels)


def _tiny_params(q: Modulus, N: int, lift: int) -> QuantParams:
    return QuantParams(s1=1.0, s2=1.0, lift=lift, q=q, N=N, Delta=0.0,
                       eps=0.3, kappa=1.0, kappa_spectral=1.0,
                       init_error=0.0, signal_bound=1.0, l_max=3, l_total=3)


class ZeroErrorRng(SeededRng):
    """Seeded uniforms with forced zero encryption errors."""

    def error(self, noise):
        return 0


def _run_tiny_session(public, params, sk, rng, zbar_ini, vbars):
    session = EncryptorSession(sk, params, public, rng=rng)
    init_batch = session.enc_initial(zbar_ini)
    state = EncObserverState.from_initial(init_batch)
    disclosed = []
    input_batches = []
    for vbar in vbars:
        r1 = encobs.residue_first_column(state, public)
        disclosed.append(encobs.disclose_residue(r1, params))
        batch = session.enc_input(vbar)
        input_batches.append(batch)
        state = encobs.step_encrypted(state, batch, public)
    r1 = encobs.residue_first_column(state, public)
    disclosed.append(encobs.disclose_residue(r1, params))
    view2 = recorded_view2([init_batch] + input_batches)
    view1 = View1(init_ct=view2.standard_cts[0],
                  input_cts=view2.standard_cts[1:],
                  residues=tuple(disclosed))
    return view1, view2


class TestBenchmarkRoundtrips:
    def test_f2_reconstructs_view1_bit_exact(self, bench_setup, bench_enc):
        v1 = f2_view2_to_view1(bench_enc.view2, bench_enc.public,
                               bench_setup.params)
        assert v1 == bench_enc.view1

    def test_f1_reconstructs_view2_bit_exact(self, bench_setup, bench_enc):
        v2 = f1_view1_to_view2(bench_enc.view1, bench_enc.public,
                               bench_setup.params)
        assert v2 == bench_enc.view2

    def test_f1_then_f2_is_identity(self, bench_setup, bench_enc):
        v2 = f1_view1_to_view2(bench_enc.view1, bench_enc.public,
                               bench_setup.params)
        v1 = f2_view2_to_view1(v2, bench_enc.public, bench_setup.params)
        assert v1 == bench_enc.view1


def _channel_layout_bytes(view2: View2) -> bytes:
    """View 2 in the layout it was first serialized in: the channel and
    step counts, then every channel's modified ciphertext, size-prefixed,
    each in `reference_ct_bytes`."""
    steps = (view2.init_cts,) + view2.input_cts
    parts = [b"VIEW2", struct.pack("<II", len(steps[0]), len(steps) - 1)]
    for ct in itertools.chain.from_iterable(steps):
        blob = reference_ct_bytes(ct)
        parts += [struct.pack("<I", len(blob)), blob]
    return b"".join(parts)


# SHA-256 of the serialized views of a seeded (TestRng(5)) 4-step N = 64
# benchmark recording, in the sign-and-length integer layout of
# `reference_view_bytes`, which the views were serialized in when these
# were recorded.  "view1" and "view2_channels" (View 2's channels in the
# per-ciphertext layout) were taken when View 2 was still cut from the
# encryptor's batches and f2 ran its own copy of the observer recursion.
TRANSCRIPT_GOLDEN = {
    "view1": "d97d9ef8f827ac04852b23751320ae01499622d90028bf845b25d4b895154ed6",
    "view2": "360e6bbc9a1d0632dea289bfc1b8d651194b9a49eb6eb7574eb63c27ecedcf2f",
    "view2_channels":
        "e6283302729e93f2eaf38e8bb1fd3bd0fcda3f00c3b645921b167ec6faaf0af4",
}


# The same views' own bytes, `to_bytes` in the fixed-width layout.
TRANSCRIPT_WIRE = {
    "view1": "957d0f74b2b4811c24cfcaa2be100746d43bb594cc729b9def35f05ef5bca561",
    "view2": "81a70a55b490f0f334efecf91609187de0c62ebf1517553b019730bf480d8c2b",
}


def test_seeded_transcript_matches_golden_digests(bench_setup):
    run = run_encrypted_mode(bench_setup, 4, seed=5, record_views=True)
    params = bench_setup.params

    def digests(view1, view2):
        blobs = {"view1": reference_view_bytes(view1),
                 "view2": reference_view_bytes(view2),
                 "view2_channels": _channel_layout_bytes(view2)}
        wire = {"view1": view1.to_bytes(), "view2": view2.to_bytes()}
        return ({k: hashlib.sha256(b).hexdigest() for k, b in blobs.items()},
                {k: hashlib.sha256(b).hexdigest() for k, b in wire.items()})

    expect = (TRANSCRIPT_GOLDEN, TRANSCRIPT_WIRE)
    assert digests(run.view1, run.view2) == expect
    assert digests(f2_view2_to_view1(run.view2, run.public, params),
                   f1_view1_to_view2(run.view1, run.public, params)) \
        == expect
    assert digests(View1.from_bytes(run.view1.to_bytes(), params.q),
                   View2.from_bytes(run.view2.to_bytes())) == expect


class TestTinyExhaustive:
    Q11 = Modulus(11)

    def _make(self, lift=2):
        public = _tiny_public(self.Q11, (3,), [[1], [0], [1]], [[2, 0, 1]],
                              N=1)
        params = _tiny_params(self.Q11, N=1, lift=lift)
        assert public.channels[0].nu == 1
        return public, params

    def test_roundtrip_over_all_initial_states(self):
        # zero error terms, horizon 6: sweep the full initial-state cube
        public, params = self._make()
        sk = secret_key([3], self.Q11)
        vbars = [ModMatrix.column([v], self.Q11) for v in (1, 4, 0, 2, 3, 1)]
        for ini in itertools.product(range(11), repeat=3):
            rng = ZeroErrorRng(hash(ini) % 100000)
            z0 = ModMatrix.column(ini, self.Q11)
            view1, view2 = _run_tiny_session(public, params, sk, rng, z0,
                                             vbars)
            assert f2_view2_to_view1(view2, public, params) == view1
            assert f1_view1_to_view2(view1, public, params) == view2

    def test_roundtrip_over_input_patterns(self):
        # sweep two-value input patterns against a fixed initial state
        public, params = self._make()
        sk = secret_key([5], self.Q11)
        z0 = ModMatrix.column([1, 7, 2], self.Q11)
        for a, b in itertools.product(range(11), repeat=2):
            vals = [a, b, a, b, a, b]
            vbars = [ModMatrix.column([v], self.Q11) for v in vals]
            rng = ZeroErrorRng(a * 11 + b)
            view1, view2 = _run_tiny_session(public, params, sk, rng, z0,
                                             vbars)
            assert f2_view2_to_view1(view2, public, params) == view1
            assert f1_view1_to_view2(view1, public, params) == view2

    def test_roundtrip_composition_identity(self):
        public, params = self._make()
        sk = secret_key([7], self.Q11)
        z0 = ModMatrix.column([4, 0, 9], self.Q11)
        vbars = [ModMatrix.column([v], self.Q11) for v in (2, 8, 10, 1, 6, 0)]
        view1, view2 = _run_tiny_session(public, params, sk,
                                         ZeroErrorRng(99), z0, vbars)
        v1_rt = f2_view2_to_view1(f1_view1_to_view2(view1, public, params),
                                  public, params)
        v2_rt = f1_view1_to_view2(f2_view2_to_view1(view2, public, params),
                                  public, params)
        assert v1_rt == view1
        assert v2_rt == view2


Q13 = Modulus(13)


def _nu2_observer(N=1):
    # output reads the middle of a depth-3 chain: the input needs two
    # steps to reach it
    public = _tiny_public(Q13, (3,), [[1, 0], [0, 0], [0, 1]],
                          [[0, 1, 0]], N=N)
    params = _tiny_params(Q13, N=N, lift=2)
    assert public.channels[0].nu == 2
    return public, params


class TestHigherRelativeDegree:
    Q13 = Q13

    def _make(self):
        return _nu2_observer()

    def test_full_reconstruction_needs_more_residues(self):
        public, params = self._make()
        sk = secret_key([2], self.Q13)
        z0 = ModMatrix.column([3, 1, 4], self.Q13)
        vbars = [ModMatrix.column([v, 13 - v], self.Q13)
                 for v in (1, 5, 9, 2, 6)]
        view1, view2 = _run_tiny_session(public, params, sk,
                                         ZeroErrorRng(5), z0, vbars)
        with pytest.raises(HorizonTooShort):
            f1_view1_to_view2(view1, public, params)

    def test_partial_reconstruction_bit_exact(self):
        public, params = self._make()
        sk = secret_key([2], self.Q13)
        z0 = ModMatrix.column([3, 1, 4], self.Q13)
        vbars = [ModMatrix.column([v, (3 * v) % 13], self.Q13)
                 for v in (1, 5, 9, 2, 6)]
        view1, view2 = _run_tiny_session(public, params, sk,
                                         ZeroErrorRng(6), z0, vbars)
        # drop the last input step: residues now extend one step past it
        truncated = View1(init_ct=view1.init_ct,
                          input_cts=view1.input_cts[:-1],
                          residues=view1.residues)
        v2 = f1_view1_to_view2(truncated, public, params)
        assert v2 == View2(standard_cts=view2.standard_cts[:5],
                           cancels=view2.cancels[:5])


class TestConsistencyChecks:
    def test_channel_count_checked(self, bench_setup, bench_enc):
        view2 = bench_enc.view2
        bad_view = View2(standard_cts=view2.standard_cts,
                         cancels=(view2.cancels[0][:-1],)
                         + view2.cancels[1:])
        with pytest.raises(ViewError, match="channel count"):
            f2_view2_to_view1(bad_view, bench_enc.public, bench_setup.params)

    def test_dimension_checked(self, bench_setup, bench_enc):
        other = dataclasses.replace(bench_enc.public, N=32)
        with pytest.raises(secviews.ViewError):
            f1_view1_to_view2(bench_enc.view1, other, bench_setup.params)


# a 131-bit prime: 3 words per value and 4 limbs of the benchmark's 42
P131 = 2 ** 131 - 69


class TestTranscriptSerialization:
    def test_views_roundtrip_at_three_words_per_value(self):
        setup = SystemSetup.from_scenario(bundled_scenario_path(), q=P131,
                                          N=16)
        assert setup.mod_maps.gain.count == 4
        run = run_encrypted_mode(setup, 4, seed=3, record_views=True)
        assert run.view2.cancels[0].shape == (60, 24, 3)
        view1 = View1.from_bytes(run.view1.to_bytes(), setup.params.q)
        view2 = View2.from_bytes(run.view2.to_bytes())
        assert view1 == run.view1 and view2 == run.view2
        assert f2_view2_to_view1(view2, run.public, setup.params) == view1
        assert f1_view1_to_view2(view1, run.public, setup.params) == view2

    def test_audit_pass_joins_no_cancel_entry(self, bench_setup,
                                              monkeypatch):
        # one audit pass of a 4-step N = 64 transcript: only first columns,
        # residues and the c_j scalars may pass through Python ints, one
        # column per call at most, and fewer values in all than the
        # transcript's cancel columns hold; words are the only way values
        # enter limbs, so nothing is split
        run = run_encrypted_mode(bench_setup, 4, seed=8, record_views=True)
        public, params = run.public, bench_setup.params

        def audit():
            view1 = View1.from_bytes(run.view1.to_bytes(), params.q)
            view2 = View2.from_bytes(run.view2.to_bytes())
            return (f2_view2_to_view1(view2, public, params),
                    f1_view1_to_view2(view1, public, params))

        audit()     # the public's cached digits are built once
        calls = {}
        # how many values one call converts
        for name, size in (
                ("split_limbs", lambda values, *_: len(values)),
                ("join_limbs", lambda limbs, *_: limbs.shape[-1]),
                ("centred", lambda q, words: len(words))):
            original = getattr(modring if name != "centred" else lwe, name)

            def counted(*args, _sizes=calls.setdefault(name, []),
                        _size=size, _original=original):
                _sizes.append(_size(*args))
                return _original(*args)

            for module in (modring, lwe, quantobs, encobs, secviews):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        assert audit() == (run.view1, run.view2)
        steps = len(run.view2.standard_cts)
        firsts = sum(ct.h for ct in run.view2.standard_cts)
        residues = steps * public.n_channels
        scalars = (steps - 1) * public.n_channels
        # every row of a standard ciphertext has one cancel entry a channel
        assert firsts + residues + scalars < firsts * public.n_channels
        assert calls["join_limbs"] and calls["split_limbs"] == []
        for name, sizes in calls.items():
            assert max(sizes, default=0) <= max(public.gain.Gbar.nrows,
                                                public.n_channels), name
            assert sum(sizes) <= firsts + residues + scalars, name

    def test_view1_roundtrip(self, bench_setup, bench_enc):
        blob = bench_enc.view1.to_bytes()
        back = View1.from_bytes(blob, bench_setup.params.q)
        assert back == bench_enc.view1

    def test_view2_roundtrip_small(self):
        q = Modulus(11)
        public = _tiny_public(q, (3,), [[1], [0], [1]], [[2, 0, 1]],
                              N=1)
        params = _tiny_params(q, N=1, lift=2)
        sk = secret_key([3], q)
        vbars = [ModMatrix.column([v], q) for v in (1, 2, 3)]
        _, view2 = _run_tiny_session(public, params, sk, ZeroErrorRng(1),
                                     ModMatrix.column([1, 2, 3], q), vbars)
        back = View2.from_bytes(view2.to_bytes())
        assert back == view2


Q11 = Modulus(11)


@pytest.fixture(scope="module")
def tiny_views():
    """Views of a 2-step run on the q = 11, N = 1 observer."""
    public = _tiny_public(Q11, (3,), [[1], [0], [1]], [[2, 0, 1]],
                          N=1)
    params = _tiny_params(Q11, N=1, lift=2)
    vbars = [ModMatrix.column([v], Q11) for v in (4, 7)]
    return _run_tiny_session(public, params, secret_key([3], Q11),
                             ZeroErrorRng(2), ModMatrix.column([1, 2, 3], Q11),
                             vbars)


def _parsers():
    return (lambda b: View1.from_bytes(b, Q11), View2.from_bytes)


class TestStrictTranscriptParsing:
    def test_valid_transcripts_roundtrip_byte_for_byte(self, tiny_views):
        for view, parse in zip(tiny_views, _parsers()):
            blob = view.to_bytes()
            assert parse(blob).to_bytes() == blob

    def test_every_truncation_rejected(self, tiny_views):
        for view, parse in zip(tiny_views, _parsers()):
            blob = view.to_bytes()
            for cut in range(len(blob)):
                with pytest.raises(ViewError):
                    parse(blob[:cut])

    def test_truncated_header_and_size_field(self, tiny_views):
        for view, parse in zip(tiny_views, _parsers()):
            blob = view.to_bytes()
            for cut in (9, 15):
                with pytest.raises(ViewError):
                    parse(blob[:cut])

    def test_size_past_buffer_rejected(self, tiny_views):
        for view, parse in zip(tiny_views, _parsers()):
            blob = bytearray(view.to_bytes())
            struct.pack_into("<I", blob, 13, len(blob))
            with pytest.raises(ViewError):
                parse(bytes(blob))

    def test_trailing_bytes_rejected(self, tiny_views):
        for view, parse in zip(tiny_views, _parsers()):
            with pytest.raises(ViewError):
                parse(view.to_bytes() + b"\x00")

    def test_residue_outside_centred_range_rejected(self, tiny_views):
        # over q = 11 a value is one byte: 0..10 are the centred residues
        # 0..5 and -5..-1, and 11 and up are refused
        view1 = tiny_views[0]
        head = View1(init_ct=view1.init_ct, input_cts=view1.input_cts,
                     residues=view1.residues[:-1]).to_bytes()
        head = head[:9] + struct.pack("<I", len(view1.residues)) + head[13:]
        for wire, residue in ((5, 5), (6, -5), (10, -1)):
            blob = head + struct.pack("<IB", 1, wire)
            assert blob.endswith(pack_words(Q11, words_of(Q11, [residue])))
            parsed = View1.from_bytes(blob, Q11)
            assert parsed.residues[-1].column_entries() == (residue,)
            assert parsed.to_bytes() == blob
        for bad in (11, 16, 255):
            with pytest.raises(ViewError, match="not below q"):
                View1.from_bytes(head + struct.pack("<IB", 1, bad), Q11)

    def test_cancel_outside_centred_range_rejected(self, tiny_views):
        # the last list is the last step's one cancel value, one byte
        blob = tiny_views[1].to_bytes()
        assert blob[-5:-1] == struct.pack("<I", 1)
        for wire in range(11):
            changed = blob[:-1] + bytes([wire])
            assert cancel_ints(Q11, View2.from_bytes(changed).cancels[-1]) \
                == ((Q11.cmod(wire),),)
            assert View2.from_bytes(changed).to_bytes() == changed
        for bad in (11, 16, 255):
            with pytest.raises(ViewError, match="not below q"):
                View2.from_bytes(blob[:-1] + bytes([bad]))

    @pytest.mark.parametrize("name", sorted(MALFORMED_INT_LISTS))
    def test_malformed_int_list_is_a_view_error(self, tiny_views, name):
        build, message = MALFORMED_INT_LISTS[name]
        record = build(Q11.q)
        view1, view2 = tiny_views
        tails = (pack_words(Q11, words_of(
            Q11, view1.residues[-1].column_entries())),
                 pack_words(Q11, view2.cancels[-1]))
        for view, tail, parse in zip(tiny_views, tails, _parsers()):
            blob = view.to_bytes()
            assert blob.endswith(tail)
            with pytest.raises(ViewError, match=f"{message}$"):
                parse(blob[:-len(tail)] + record)

    def test_huge_modulus_refused_at_once(self):
        # View 1 compares the modulus with the caller's q and tests none;
        # View 2 tests its first ciphertext's
        ct = ct_blob(HUGE_PRIME)
        for magic, parse, match in (
                (b"VIEW1", _parsers()[0], "modulus does not match"),
                (b"VIEW2", View2.from_bytes, "4423 bits")):
            # one ciphertext and one empty list
            blob = magic + struct.pack("<III", 0, 0, len(ct)) + ct \
                + struct.pack("<I", 0)
            start = time.perf_counter()
            with pytest.raises(ViewError, match=match):
                parse(blob)
            assert time.perf_counter() - start < 1

    def test_many_moduli_refused_before_their_primality_tests(self):
        # each ciphertext's modulus is compared with the first's before it
        # is tested: three Miller-Rabin runs on 1024-bit primes took about
        # 1 s when every ciphertext built its own Modulus
        _is_probable_prime.cache_clear()    # a cached verdict hides the cost
        start = time.perf_counter()
        with pytest.raises(ViewError, match="modulus does not match"):
            View2.from_bytes(many_moduli_view2_blob())
        assert time.perf_counter() - start < 0.1

    def test_cancel_count_must_be_channels_times_rows(self, tiny_views):
        view2 = tiny_views[1]
        for n_ch in (0, 2):
            blob = bytearray(view2.to_bytes())
            struct.pack_into("<I", blob, 5, n_ch)
            with pytest.raises(ViewError, match="cancel count"):
                View2.from_bytes(bytes(blob))
        extra = dataclasses.replace(view2, cancels=view2.cancels[:-1] + (
            np.concatenate([view2.cancels[-1], cancel_words(Q11, [(1,)])]),))
        with pytest.raises(ViewError, match="cancel count"):
            View2.from_bytes(extra.to_bytes())

    def test_one_modulus_and_one_dimension_per_transcript(self, tiny_views):
        view1, view2 = tiny_views
        ct = view1.input_cts[0]
        wide = ciphertext([r + (0,) for r in ct_matrix(ct).rows], Q11)
        for other, match in ((_remod(ct, Q13), "modulus"),
                             (wide, "dimension")):
            bad1 = dataclasses.replace(
                view1, input_cts=(other,) + view1.input_cts[1:])
            bad2 = dataclasses.replace(view2, standard_cts=(
                view2.standard_cts[0], other) + view2.standard_cts[2:])
            for view, parse in zip((bad1, bad2), _parsers()):
                with pytest.raises(ViewError, match=match):
                    parse(view.to_bytes())
        with pytest.raises(ViewError, match="modulus"):
            View1.from_bytes(view1.to_bytes(), Q13)

    def test_only_standard_ciphertexts_accepted(self, tiny_views):
        view1, view2 = tiny_views
        public = _tiny_public(Q11, (3,), [[1], [0], [1]], [[2, 0, 1]], N=1)
        params = _tiny_params(Q11, N=1, lift=2)
        modified = view2.init_cts[0]
        assert modified.kind is CiphertextKind.MODIFIED
        bad1 = dataclasses.replace(view1, init_ct=modified)
        bad2 = dataclasses.replace(
            view2, standard_cts=(modified,) + view2.standard_cts[1:])
        for view, parse in zip((bad1, bad2), _parsers()):
            with pytest.raises(ViewError, match="modified ciphertext"):
                parse(view.to_bytes())
        with pytest.raises(ViewError, match="modified ciphertext"):
            f1_view1_to_view2(bad1, public, params)
        with pytest.raises(ViewError, match="modified ciphertext"):
            f2_view2_to_view1(bad2, public, params)

    def test_inner_lwe_error_is_chained(self, tiny_views):
        for view, parse in zip(tiny_views, _parsers()):
            blob = bytearray(view.to_bytes())
            blob[17:21] = b"XXXX"   # magic of the first ciphertext
            with pytest.raises(ViewError) as info:
                parse(bytes(blob))
            assert isinstance(info.value.__cause__, LweError)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_transcript_is_rejected_or_canonical(self, tiny_views,
                                                         data):
        which = data.draw(st.integers(0, 1))
        blob = bytearray(tiny_views[which].to_bytes())
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(blob) - 1))
            blob[i] = data.draw(st.integers(0, 255))
        try:
            view = _parsers()[which](bytes(blob))
        except ViewError:
            return
        assert view.to_bytes() == bytes(blob)


def _nu2_views(z0, pairs, key, seed, N=1):
    """Views of a run of the nu = 2 observer, with View 1 cut to the input
    steps its residues cover."""
    public, params = _nu2_observer(N)
    vbars = [ModMatrix.column(p, Q13) for p in pairs]
    view1, view2 = _run_tiny_session(public, params, secret_key(key, Q13),
                                     ZeroErrorRng(seed),
                                     ModMatrix.column(z0, Q13), vbars)
    view1 = View1(init_ct=view1.init_ct, input_cts=view1.input_cts[:-1],
                  residues=view1.residues)
    view2 = View2(standard_cts=view2.standard_cts[:-1],
                  cancels=view2.cancels[:-1])
    return public, params, view1, view2


class TestF1MatchesZeroDynamicsOracle:
    def test_benchmark_run_across_both_attack_windows(self, bench_setup,
                                                      bench_enc):
        v1 = bench_enc.view1
        assert len(v1.input_cts) == 50 and len(v1.residues) == 51
        assert bench_enc.records[26].detected and bench_enc.records[44].detected
        got = f1_view1_to_view2(v1, bench_enc.public, bench_setup.params)
        oracle = f1_zero_dynamics(v1, bench_enc.public, bench_setup.params)
        assert got == oracle
        assert got == bench_enc.view2

    @settings(max_examples=200, deadline=None)
    @given(z0=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
           pairs=st.lists(st.lists(st.integers(-6, 6), min_size=2,
                                   max_size=2), min_size=2, max_size=8),
           key=st.integers(-6, 6), seed=st.integers(0, 2 ** 16))
    def test_random_sessions_of_the_nu2_observer(self, z0, pairs, key, seed):
        public, params, view1, view2 = _nu2_views(z0, pairs, [key], seed)
        got = f1_view1_to_view2(view1, public, params)
        assert got == f1_zero_dynamics(view1, public, params)
        assert got == view2


def _remod(ct: Ciphertext, q: Modulus) -> Ciphertext:
    """The same centred entries as a ciphertext over another modulus."""
    return ciphertext(ct_matrix(ct).rows, q, modified=ct.cancel is not None)


class TestPublicMapChecks:
    Q17 = Modulus(17)

    @pytest.fixture(scope="class")
    def nu2_views(self):
        return _nu2_views([3, 1, 4], [[1, 12], [5, 2], [9, 1], [2, 6]],
                          [2], 5)

    def test_f1_rejects_another_modulus(self, nu2_views):
        public, params, view1, _ = nu2_views
        assert f1_view1_to_view2(view1, public, params) == nu2_views[3]
        remodded = View1(init_ct=_remod(view1.init_ct, self.Q17),
                         input_cts=tuple(_remod(c, self.Q17)
                                         for c in view1.input_cts),
                         residues=view1.residues)
        one_input = dataclasses.replace(
            view1, input_cts=view1.input_cts[:-1]
            + (_remod(view1.input_cts[-1], self.Q17),))
        for bad in (remodded, one_input):
            with pytest.raises(ViewError, match="modulus"):
                f1_view1_to_view2(bad, public, params)

    def test_f1_rejects_residues_of_another_modulus(self, nu2_views):
        public, params, view1, _ = nu2_views
        bad = dataclasses.replace(view1, residues=tuple(
            ModMatrix(r.rows, self.Q17) for r in view1.residues))
        with pytest.raises(ViewError, match="residues"):
            f1_view1_to_view2(bad, public, params)

    def test_f2_rejects_another_modulus(self, nu2_views):
        public, params, view1, view2 = nu2_views
        assert f2_view2_to_view1(view2, public, params) \
            == dataclasses.replace(view1, residues=view1.residues[:-1])
        bad = dataclasses.replace(view2, standard_cts=tuple(
            _remod(c, self.Q17) for c in view2.standard_cts))
        with pytest.raises(ViewError, match="modulus"):
            f2_view2_to_view1(bad, public, params)

    def test_both_reject_ciphertexts_of_another_height(self, nu2_views):
        public, params, view1, view2 = nu2_views

        def taller(ct):
            matrix = ct_matrix(ct)
            return ciphertext(matrix.rows + ((0,) * matrix.ncols,), Q13)

        bad1 = dataclasses.replace(view1, input_cts=(taller(
            view1.input_cts[0]),) + view1.input_cts[1:])
        with pytest.raises(ViewError, match="rows"):
            f1_view1_to_view2(bad1, public, params)
        cts = view2.standard_cts
        bad2 = dataclasses.replace(
            view2, standard_cts=cts[:1] + (taller(cts[1]),) + cts[2:])
        with pytest.raises(ViewError, match="rows"):
            f2_view2_to_view1(bad2, public, params)

    def test_f2_rejects_another_dimension(self, nu2_views):
        public, params = nu2_views[:2]
        _, _, _, wide = _nu2_views([3, 1, 4], [[1, 12], [5, 2], [9, 1]],
                                   [2, 7], 5, N=2)
        assert wide.standard_cts[0].N == 2 and public.N == 1
        with pytest.raises(ViewError, match="dimension"):
            f2_view2_to_view1(wide, public, params)
