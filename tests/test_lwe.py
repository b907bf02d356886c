import hashlib
import operator
import os
import random
import ssl
import struct
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cipherobs import lwe
from cipherobs.encobs import modified_channels
from cipherobs.lwe import (
    Ciphertext,
    CiphertextKind,
    LweError,
    NoiseParams,
    SecretKey,
    SecureRng,
    encrypt_with_artifacts,
    keygen,
)
from cipherobs.lwe import TestRng as SeededRng
from cipherobs.lwe import _CT_MAGIC, _KEY_MAGIC, _RandomSource, \
    pack_words, read_values, words_of
from cipherobs.modring import DimensionMismatch, ModMatrix, Modulus, \
    digit_budget, join_limbs
from cipherobs.pipeline import BENCH_Q
from .helpers import HUGE_PRIME, MALFORMED_INT_LISTS, ValueSource, \
    centred_draw, ciphertext, ct_blob, ct_head, ct_matrix, dense_decrypt, \
    last_column, modulus_bytes, reference_pack_values, \
    reference_read_values, secret_key, value_list

Q97 = Modulus(97)
QBIG = Modulus(2 ** 61 - 1)
Q109 = Modulus(2 ** 109 - 31)
NOISE = NoiseParams(19.2)


def joined(words):
    """Each row of (rows, count, nw) uint64 words joined into Python ints."""
    return [join_limbs(row.T, 64) for row in words]


def encrypt_joined(m, sk, rng):
    """`encrypt_with_artifacts` -> (the encryption, its randomness A joined
    from the sampler's words into a matrix over Z_q)."""
    enc = encrypt_with_artifacts(m, sk, NOISE, rng)
    return enc, ModMatrix(joined(enc.ct.shared), sk.q, ncols=sk.N)


def first_of(enc):
    """An encryption's first column m + b as a column over Z_q."""
    return ModMatrix.column(enc.ct.first_column(), enc.ct.q)


def mask_of(enc):
    """An encryption's mask b, from its words, as a column over Z_q."""
    return ModMatrix.column(lwe.centred(enc.ct.q, enc.mask), enc.ct.q)


def error_of(enc):
    """An encryption's error e, mask - key_product."""
    return mask_of(enc) - ModMatrix.column(enc.key_product, enc.ct.q)


def standard_ct(m, sk, rng):
    """The standard ciphertext [m + b | A] of `encrypt_with_artifacts`, A
    being the sampler's words."""
    return encrypt_with_artifacts(m, sk, NOISE, rng).ct


class StubRng(ValueSource):
    """Feeds queued uniform values and fixed errors (test control)."""

    def __init__(self, uniforms, error_value=0):
        self._uniforms = list(uniforms)
        self._error = error_value

    def uniforms(self, q, count):
        return [q.cmod(self._uniforms.pop(0)) for _ in range(count)]

    def error(self, noise):
        return self._error


class TestNoise:
    def test_sigma_and_bound(self):
        assert NOISE.sigma == pytest.approx(3.2)
        assert NOISE.bound == 19

    def test_samples_respect_bound(self):
        rng = SeededRng(0)
        for _ in range(2000):
            assert abs(rng.error(NOISE)) <= 19

    def test_secure_rng_samples_respect_bound(self):
        rng = SecureRng()
        for _ in range(200):
            assert abs(rng.error(NOISE)) <= 19

    @pytest.mark.parametrize("delta", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_delta_is_refused(self, delta):
        # a negative bound would make the rejection loop spin forever
        with pytest.raises(LweError, match="Delta"):
            NoiseParams(delta)


class ScriptedRandom(random.Random):
    """`randbytes` replays fixed byte strings and records each request."""

    def __init__(self, chunks):
        super().__init__(0)
        self._chunks = list(chunks)
        self.requests = []

    def randbytes(self, n):
        self.requests.append(n)
        chunk = self._chunks.pop(0)
        assert len(chunk) == n
        return chunk


class CountingRandom(random.Random):
    """Seeded `randbytes` that records each request size."""

    def __init__(self, seed):
        super().__init__(seed)
        self.requests = []

    def randbytes(self, n):
        self.requests.append(n)
        return super().randbytes(n)


class ScriptedSource(_RandomSource):
    """Scripted `randbytes` with a fixed error value."""

    def __init__(self, chunks, error_value):
        super().__init__(ScriptedRandom(chunks))
        self._error = error_value

    def error(self, noise):
        return self._error


class TestUniforms:
    @pytest.mark.parametrize("q", [Q97, QBIG, Q109])
    def test_values_in_centred_range(self, q):
        values = centred_draw(SeededRng(20), q, 5000)
        assert len(values) == 5000
        assert all(abs(v) <= (q.q - 1) // 2 for v in values)

    def test_every_residue_of_q97_appears(self):
        # 97 needs a 7-bit mask, so about a quarter of the draws are rejected
        values = centred_draw(SeededRng(21), Q97, 20_000)
        assert set(values) == set(range(-48, 49))

    def test_rejected_values_never_appear(self):
        # masked to 7 bits: 97 and 127 (from 0xff) are >= q; 0x80 | 48 is 48
        source = _RandomSource(ScriptedRandom(
            [bytes([97, 0xff, 10, 96]), bytes([0x80 | 48, 110]), bytes([49])]))
        assert centred_draw(source, Q97, 4) == [10, -1, 48, -48]
        assert source._rng.requests == [4, 2, 1]

    def test_requests_at_most_4096_values(self):
        source = _RandomSource(CountingRandom(22))
        values = centred_draw(source, Q109, 10_000)
        assert len(values) == 10_000
        # 14 bytes per 109-bit value; a rejection here has odds 31 / 2^109
        assert source._rng.requests == [4096 * 14, 4096 * 14, 1808 * 14]
        # the word draw behind it makes the same requests for each row
        source = _RandomSource(CountingRandom(22))
        words = source.uniform_words(Q109, 2, 10_000)
        assert words.shape == (2, 10_000, 2) and words.dtype == np.uint64
        assert joined(words)[0] == [v % Q109.q for v in values]
        assert source._rng.requests == [4096 * 14, 4096 * 14, 1808 * 14] * 2

    def test_rejection_at_the_word_boundary(self):
        # q = 2^109 - 31 spans two words; its high word 2^45 - 1 is the
        # largest masked one, so ties on it are decided by the low word
        q = Q109.q
        tie = ((2 ** 45 - 1) << 64) + 5          # high word of q, low below
        draws = [[q - 1, q, 2 ** 109 - 1], [tie, 2 ** 112 - 1], [7]]
        chunks = [b"".join(v.to_bytes(14, "little") for v in chunk)
                  for chunk in draws]
        source = _RandomSource(ScriptedRandom(chunks))
        assert centred_draw(source, Q109, 3) == [-1, tie - q, 7]
        assert source._rng.requests == [3 * 14, 2 * 14, 14]
        source = _RandomSource(ScriptedRandom(chunks))
        words = source.uniform_words(Q109, 1, 3)
        # the kept values' own words: the low word, then the high word
        assert words[0].tolist() == [[(q - 1) % 2 ** 64, 2 ** 45 - 1],
                                     [5, 2 ** 45 - 1], [7, 0]]
        assert joined(words) == [[q - 1, tie, 7]]
        assert source._rng.requests == [3 * 14, 2 * 14, 14]

    @pytest.mark.parametrize("rows, count", [(5, 64), (5, 1500), (3, 4096),
                                             (2, 5000), (3, 0)])
    def test_row_groups_cut_like_single_rows(self, rows, count):
        # a draw of several rows gives each row the words a draw of that
        # row alone gives
        words = SeededRng(24).uniform_words(Q109, rows, count)
        assert words.shape == (rows, count, 2)
        single = SeededRng(24)
        for r in range(rows):
            assert np.array_equal(words[r],
                                  single.uniform_words(Q109, 1, count)[0])

    def test_grouped_cut_redraws_after_its_group(self):
        # masked to 7 bits, 97 and up are rejected.  Three rows of 4 make
        # one group; its rejections are redrawn, row by row, after all
        # three requests, and those redraws form the next group
        source = _RandomSource(ScriptedRandom(
            [bytes([97, 10, 0xff, 5]), bytes([1, 2, 3, 4]),
             bytes([96, 100, 0x80 | 20, 50]), bytes([98, 11]), bytes([30]),
             bytes([12])]))
        words = source.uniform_words(Q97, 3, 4)
        assert words.shape == (3, 4, 1)
        assert words[..., 0].tolist() == [[10, 5, 11, 12], [1, 2, 3, 4],
                                          [96, 20, 50, 30]]
        assert source._rng.requests == [4, 4, 4, 2, 1, 1]
        # two rows of 3000 do not fit one group: row 0's redraw comes
        # before row 1's request, and the two share the next group
        kept = [i % 97 for i in range(3000)]
        source = _RandomSource(ScriptedRandom(
            [bytes([127] + kept[:-1]), bytes([7]), bytes(kept)]))
        words = source.uniform_words(Q97, 2, 3000)
        assert source._rng.requests == [3000, 1, 3000]
        assert words[..., 0].tolist() == [kept[:-1] + [7], kept]

    def test_seeded_draws_are_reproducible(self):
        a, b = SeededRng(23), SeededRng(23)
        assert centred_draw(a, Q109, 5000) == centred_draw(b, Q109, 5000)
        assert [a.error(NOISE) for _ in range(10)] == \
            [b.error(NOISE) for _ in range(10)]

    def test_secure_rng_reads_openssl_drbg(self, monkeypatch):
        calls = []

        def fake_rand_bytes(n):
            calls.append(n)
            return bytes(n)

        monkeypatch.setattr(ssl, "RAND_bytes", fake_rand_bytes)
        assert centred_draw(SecureRng(), QBIG, 5000) == [0] * 5000
        assert calls == [4096 * 8, 904 * 8]

    def test_test_rng_runs_never_import_ssl(self):
        # libssl costs about 5 MB of resident memory, so only a SecureRng
        # loads it
        code = ("import sys; import cipherobs\n"
                "from cipherobs.lwe import NoiseParams, TestRng, keygen, "
                "encrypt_with_artifacts\n"
                "from cipherobs.modring import ModMatrix, Modulus\n"
                "q = Modulus(2 ** 109 - 31); rng = TestRng(1)\n"
                "encrypt_with_artifacts(ModMatrix.column([5], q), "
                "keygen(64, q, rng), NoiseParams(19.2), rng)\n"
                "assert 'ssl' not in sys.modules, 'ssl imported'\n"
                "from cipherobs.lwe import SecureRng; SecureRng()\n"
                "assert 'ssl' in sys.modules\n")
        src = os.path.dirname(os.path.dirname(lwe.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=60)

    @settings(max_examples=30, deadline=None)
    @given(q=st.sampled_from([Q97, QBIG, Q109]),
           N=st.sampled_from([1, 64, 4096]),
           h=st.integers(1, 6),
           key=st.sampled_from(["random", "max", "min"]),
           seed=st.integers(0, 2 ** 32))
    def test_mask_matches_dense_oracle(self, q, N, h, key, seed):
        rng = SeededRng(seed)
        half = (q.q - 1) // 2
        sk = {"random": lambda: keygen(N, q, rng),
              "max": lambda: secret_key([half] * N, q),
              "min": lambda: secret_key([-half] * N, q)}[key]()
        m = ModMatrix.column(centred_draw(rng, q, h), q)
        enc, A = encrypt_joined(m, sk, rng)
        b, e = mask_of(enc), error_of(enc)
        assert e.max_abs() <= NOISE.bound
        assert b == A @ ModMatrix.column(sk.entries(), q) + e
        assert first_of(enc) == m + b

    @pytest.mark.parametrize("sign", [1, -1], ids=["max", "min"])
    def test_mask_exact_at_the_digit_bound(self, sign):
        # every randomness entry q - 1 and every key entry +-(q-1)/2 drive
        # the digit products of the mask to their largest sums
        q, N, h = Q109, 4096, 2
        top = q.q - 1
        chunk = top.to_bytes(14, "little") * N
        sk = secret_key([sign * (q.q - 1) // 2] * N, q)
        m = ModMatrix.column([5] * h, q)
        enc, A = encrypt_joined(m, sk, ScriptedSource([chunk] * h, 3))
        # 32-bit halves of the words against 9-bit key digits fill the
        # float64 budget
        dk, _ = sk._digits
        assert dk == digit_budget(N, 53) - 32 == 9
        assert N * 2 ** (32 + 9) == 2 ** 53
        assert A == ModMatrix([[-1] * N] * h, q)
        dense = A @ ModMatrix.column(sk.entries(), q) + error_of(enc)
        assert mask_of(enc) == dense
        assert first_of(enc) == m + dense

    def test_one_more_digit_bit_overflows(self, monkeypatch):
        # a float64 budget one bit wider, 10-bit key digits: word 0 of
        # q - 32 has the odd low half 2^32 - 63 and that of q - 33 is even,
        # so against the key's 1023-valued digits one q - 33 among q - 32
        # makes an odd sum above 2^53, which no float64 holds
        budget = lwe.digit_budget
        monkeypatch.setattr(lwe, "digit_budget",
                            lambda n, exact: budget(n, exact) + 1)
        q, N = Q109, 4096
        chunk = ((q.q - 33).to_bytes(14, "little")
                 + (q.q - 32).to_bytes(14, "little") * (N - 1))
        low = 1023 * ((N - 1) * (2 ** 32 - 63) + 2 ** 32 - 64)
        assert low > 2 ** 53 and low % 2
        sk = secret_key([(q.q - 1) // 2] * N, q)
        m = ModMatrix.column([5], q)
        enc, A = encrypt_joined(m, sk, ScriptedSource([chunk], 0))
        assert sk._digits[0] == 10
        dense = A @ ModMatrix.column(sk.entries(), q) + error_of(enc)
        assert mask_of(enc) != dense


class TestKeyProducts:
    """`SecretKey.products` against the Python-int product on uint64 words,
    where the float64 budget is full (N = 4096: N 2^32 2^9 = 2^53) and one
    bit below it (N = 4097, 8-bit key digits)."""

    TOP = 2 ** 64 - 1       # all ones: every 32-bit half 2^32 - 1

    @classmethod
    def _words(cls, kind, N, rows=2, nw=2):
        if kind in ("top", "bottom"):   # the ends of the word range
            return np.full((rows, N, nw), cls.TOP if kind == "top" else 0,
                           dtype=np.uint64)
        if kind == "odd":
            # every low half 2^32 - 1 but the first 2^32 - 2: the largest
            # low-half sums, odd, so a rounded float64 sum cannot equal them
            words = np.full((rows, N, nw), cls.TOP, dtype=np.uint64)
            words[:, 0] -= np.uint64(1)
            return words
        mixed = np.where(np.arange(rows * N * nw) % 3, cls.TOP, 0)
        return mixed.reshape(rows, N, nw).astype(np.uint64)

    @staticmethod
    def _expect(words, sk):
        # the exact product with the key's values mod q, which the digits
        # cut from the key's words give
        key = [v % sk.q.q for v in sk.entries()]
        return [sum(map(operator.mul, row, key)) for row in joined(words)]

    @pytest.mark.parametrize("N", [4096, 4097])
    @pytest.mark.parametrize("kind", ["top", "bottom", "mixed", "odd"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["max", "min"])
    def test_equals_the_python_int_product(self, N, kind, sign):
        q = Q109
        sk = secret_key([sign * (q.q - 1) // 2] * N, q)
        words = self._words(kind, N)
        assert sk.products(words) == self._expect(words, sk)
        dk, key = sk._digits
        assert dk == (9 if N == 4096 else 8)
        assert key.shape == (N, 13 if N == 4096 else 14)

    @pytest.mark.parametrize("N", [4096, 4097])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 24])
    def test_row_blocks_on_and_across_an_edge(self, N, rows):
        # distinct rows, so a row written into the wrong block shows; a
        # block is 3 rows of 109-bit values at N = 4096 and 2 at N = 4097,
        # so 2 to 4 rows end on a block edge or one row past it
        assert lwe._PRODUCT_BLOCK // (4 * N) == (3 if N == 4096 else 2)
        sk = secret_key([(Q109.q - 1) // 2] * N, Q109)
        words = SeededRng(N + rows).uniform_words(Q109, rows, N)
        assert sk.products(words) == self._expect(words, sk)

    def test_one_more_key_digit_bit_overflows(self, monkeypatch):
        # 10-bit key digits at N = 4096: the odd low-half sums against the
        # key's 1023-valued digits pass 2^53
        budget = lwe.digit_budget
        monkeypatch.setattr(lwe, "digit_budget",
                            lambda n, exact: budget(n, exact) + 1)
        N = 4096
        assert 1023 * (N * (2 ** 32 - 1) - 1) > 2 ** 53
        sk = secret_key([(Q109.q - 1) // 2] * N, Q109)
        words = self._words("odd", N)
        assert sk.products(words) != self._expect(words, sk)
        assert sk._digits[0] == 10

    @pytest.mark.parametrize("N", [64, 1024, 4096, 4097])
    def test_plane_products_per_limb(self, N):
        # both 32-bit halves of a word, the sampler's 64-bit limb, against
        # every key digit, in one float64 product
        sk = secret_key([1] * N, Q109)
        dk, key = sk._key_digits()
        assert dk == digit_budget(N, 53) - 32
        assert key.dtype == np.float64
        assert 2 * key.shape[1] == {64: 16, 1024: 20, 4096: 26,
                                    4097: 28}[N]

    @pytest.mark.parametrize("q", [Q97, QBIG, Q109])
    def test_one_word_per_64_bits(self, q):
        # a 109-bit q takes two words per value, so a 6-row batch at
        # N = 4096 is one 24-row float64 product
        words = SeededRng(25).uniform_words(q, 6, 64)
        assert words.shape == (6, 64, -(-q.q.bit_length() // 64))
        sk = keygen(64, q, SeededRng(26))
        assert sk.products(words) == self._expect(words, sk)

    def test_no_rows(self):
        sk = secret_key([1] * 8, Q109)
        assert sk.products(np.zeros((0, 8, 2), dtype=np.uint64)) == []

    def test_key_past_the_float_budget_refused(self):
        # N = 2^20 leaves 1-bit key digits and N = 2^20 + 1 none
        assert digit_budget(lwe.MAX_N, 53) - 32 == 1
        assert digit_budget(lwe.MAX_N + 1, 53) - 32 == 0
        sk = secret_key([1] * (lwe.MAX_N + 1), Q109)
        words = np.zeros((1, lwe.MAX_N + 1, 2), dtype=np.uint64)
        with pytest.raises(LweError, match=f"N <= {2 ** 20}"):
            sk.products(words)
        assert sk._digits is None


# sha256 of `keygen(N, Q109, TestRng(0)).to_bytes()`, recorded before the
# key was held as its words
KEY_GOLDEN = {
    64: "7ca83ab71aff98c814ee0213ae2b13ee9fbe6988980de1ed0ba454f11d2923a6",
    4096: "27d7ceb15e8373bf0d8e795bc7a030a86d6fffac5327cb8dc117f99b9e0b7743",
}


class TestKeygen:
    @pytest.mark.parametrize("N", sorted(KEY_GOLDEN))
    def test_seeded_key_bytes(self, N):
        blob = keygen(N, Q109, SeededRng(0)).to_bytes()
        assert hashlib.sha256(blob).hexdigest() == KEY_GOLDEN[N]
        assert SecretKey.from_bytes(blob).to_bytes() == blob

    def test_key_is_the_sampler_row(self):
        # keygen draws one row of words and the key keeps a copy of it
        words = SeededRng(8).uniform_words(Q109, 1, 16)[0]
        sk = keygen(16, Q109, SeededRng(8))
        assert np.array_equal(sk._words, words)
        assert sk.entries() == tuple(lwe.centred(Q109, words))

    def test_key_keeps_its_own_words(self):
        words = words_of(Q97, [1, 2, 3])
        sk = SecretKey(words, Q97)
        words[...] = 0
        assert sk.entries() == (1, 2, 3)

    @pytest.mark.parametrize("bad", ["rows", "nw", "int64", "list", "empty",
                                     "q", "top"])
    def test_key_words_refused(self, bad):
        # only (N, nw) uint64 words of values below q, N >= 1, make a key
        q = Q109
        words = words_of(q, [1, 2, 3])
        words = {"rows": words[None], "nw": words[:, :1],
                 "int64": words.astype(np.int64), "list": words.tolist(),
                 "empty": words[:0], "q": words_of(q, [1, q.q - 1, 0]),
                 "top": words.copy()}[bad]
        if bad == "q":
            words[1] = [q.q % 2 ** 64, q.q >> 64]
        if bad == "top":
            words[2, 1] = 2 ** 64 - 1
        with pytest.raises(LweError):
            SecretKey(words, q)

    def test_forced_value(self):
        sk = keygen(1, Q97, StubRng([123]))
        assert sk.entries() == (Q97.cmod(123),)

    def test_deterministic_with_seed(self):
        k1 = keygen(8, QBIG, SeededRng(42))
        k2 = keygen(8, QBIG, SeededRng(42))
        assert k1.entries() == k2.entries()

    def test_rejects_empty(self):
        with pytest.raises(LweError):
            keygen(0, Q97, SeededRng(0))

    def test_uniformity_chi_square(self):
        from scipy.stats import chisquare
        q = Modulus(101)
        rng = SeededRng(7)
        sk = keygen(10_000, q, rng)
        counts = [0] * 101
        for v in sk.entries():
            counts[v % 101] += 1
        assert chisquare(counts).pvalue > 0.01


class TestEncryptDecrypt:
    def test_roundtrip_error_bound(self):
        rng = SeededRng(1)
        sk = keygen(16, QBIG, rng)
        for _ in range(50):
            m = ModMatrix.column(centred_draw(rng, QBIG, 3), QBIG)
            ct = standard_ct(m, sk, rng)
            err = dense_decrypt(ct, sk) - m
            assert err.max_abs() <= 19

    def test_forced_zero_randomness(self):
        sk = secret_key([5, 7], Q97)
        m = ModMatrix.column([11], Q97)
        ct = standard_ct(m, sk, StubRng([0, 0]))
        assert ct_matrix(ct).rows == ((11, 0, 0),)
        assert dense_decrypt(ct, sk).column_entries() == (11,)

    def test_worked_example(self):
        sk = secret_key([3], Q97)
        enc, A = encrypt_joined(ModMatrix.column([5], Q97), sk,
                               StubRng([10], error_value=1))
        assert A.rows == ((10,),)
        assert mask_of(enc).column_entries() == (31,)
        assert first_of(enc).column_entries() == (36,)     # m + A sk + e

    def test_encryption_is_its_ciphertext_and_mask_words(self):
        # the standard ciphertext over the sampler's A, and the mask b as
        # its own words, no array held twice
        rng = SeededRng(9)
        sk = keygen(8, Q109, rng)
        m = ModMatrix.column([5, -6, 7], Q109)
        enc = encrypt_with_artifacts(m, sk, NOISE, rng)
        assert enc.ct.kind is CiphertextKind.STANDARD
        assert enc.ct.shared.shape == (3, 8, 2) and enc.mask.shape == (3, 2)
        parts = (enc.ct.first, enc.ct.shared, enc.mask)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(parts)
                       for b in parts[i + 1:])
        assert first_of(enc) == m + mask_of(enc)
        assert mask_of(enc) - error_of(enc) == ModMatrix.column(
            enc.key_product, Q109)

    def test_empty_message(self):
        sk = keygen(3, Q97, SeededRng(0))
        assert centred_draw(SeededRng(1), Q97, 0) == []
        ct = standard_ct(ModMatrix.column([], Q97), sk, SeededRng(1))
        assert (ct.h, ct.N) == (0, 3)
        assert ct_matrix(ct).shape == (0, 4)

    def test_wrong_width_rejected(self):
        # the parts must be h values, h x N values and h values, each of
        # q's word count
        words = np.zeros((2, 4, 1), dtype=np.uint64)
        for first, cancel in ((np.zeros((3, 1), np.uint64), None),
                              (words[:, 0], np.zeros((3, 1), np.uint64)),
                              (np.zeros((2, 2), np.uint64), None)):
            with pytest.raises(DimensionMismatch):
                Ciphertext(Q97, first, words, cancel)
        with pytest.raises(DimensionMismatch):
            Ciphertext(QBIG, words[:, 0, :1], np.zeros((2, 4, 2), np.uint64))

    def test_key_mismatch(self):
        # the mask and the recovery both take A sk from `products`
        sk = keygen(6, Q97, SeededRng(0))
        with pytest.raises(DimensionMismatch):
            sk.products(np.zeros((1, 4, 1), dtype=np.uint64))


class TestModifiedDecrypt:
    def test_column_move_invariance(self):
        # moving any vector from the message column to the extra column
        # (`modified_channels`) leaves the decryption unchanged
        rng = SeededRng(2)
        sk = keygen(6, QBIG, rng)
        std = standard_ct(ModMatrix.column(centred_draw(rng, QBIG, 4), QBIG), sk,
                          rng)
        cancels = rng.uniform_words(QBIG, 3, 4)
        for modified, cancel in zip(modified_channels(std, cancels), cancels):
            assert modified.kind is CiphertextKind.MODIFIED
            assert np.array_equal(modified.cancel, cancel)
            assert dense_decrypt(modified, sk) == dense_decrypt(std, sk)

    def test_standard_has_no_cancel_column(self):
        # N + 1 columns, the last one randomness; a cancel column makes the
        # modified kind, and its blob says so
        sk = keygen(2, Q97, SeededRng(3))
        ct = standard_ct(ModMatrix.column([1], Q97), sk, SeededRng(4))
        assert ct.cancel is None and ct.kind is CiphertextKind.STANDARD
        assert ct_matrix(ct).ncols == sk.N + 1
        assert last_column(ct) == ct_matrix(ct).column_entries(sk.N)
        modified = Ciphertext(Q97, ct.first, ct.shared, ct.first)
        assert modified.kind is CiphertextKind.MODIFIED
        assert modified != ct
        assert Ciphertext.from_bytes(modified.to_bytes()) == modified


class TestSerialization:
    def test_ciphertext_roundtrip(self):
        rng = SeededRng(14)
        sk = keygen(5, QBIG, rng)
        ct = standard_ct(ModMatrix.column([123456789, -42], QBIG), sk, rng)
        back = Ciphertext.from_bytes(ct.to_bytes())
        assert back == ct
        assert ct_matrix(back) == ct_matrix(ct)
        assert back.kind is ct.kind
        assert back.N == ct.N
        for part in (back.first, back.shared):
            assert not part.flags.writeable

    def test_key_roundtrip(self):
        sk = keygen(6, QBIG, SeededRng(15))
        back = SecretKey.from_bytes(sk.to_bytes())
        assert back.entries() == sk.entries()
        assert back.q == sk.q

    def test_zeroize(self):
        sk = keygen(4, Q97, SeededRng(16))
        m = ModMatrix.column([1], Q97)
        words = encrypt_with_artifacts(m, sk, NOISE, SeededRng(17)).ct.shared
        _, digits = sk._digits
        key = sk._words
        assert digits.any() and key.any()
        sk.zeroize()
        assert sk._digits is None and not digits.any()
        assert sk._words is None and not key.any()
        with pytest.raises(LweError):
            sk.entries()
        with pytest.raises(LweError):
            sk.N
        with pytest.raises(LweError):
            sk.to_bytes()
        with pytest.raises(LweError):
            encrypt_with_artifacts(m, sk, NOISE, SeededRng(17))
        with pytest.raises(LweError):
            sk.products(words)

    def test_bad_magic_rejected(self):
        with pytest.raises(LweError):
            Ciphertext.from_bytes(b"XXXX123")
        with pytest.raises(LweError):
            SecretKey.from_bytes(b"bogus")


def _small_ct_blob():
    rng = SeededRng(17)
    sk = keygen(3, QBIG, rng)
    return standard_ct(ModMatrix.column([5, -(QBIG.q - 1) // 2], QBIG), sk,
                       rng).to_bytes()


class TestStrictParsing:
    def test_every_truncation_rejected(self):
        ct_blob = _small_ct_blob()
        key_blob = keygen(3, QBIG, SeededRng(18)).to_bytes()
        for blob, parse in ((ct_blob, Ciphertext.from_bytes),
                            (key_blob, SecretKey.from_bytes)):
            for cut in range(len(blob)):
                with pytest.raises(LweError):
                    parse(blob[:cut])

    def test_short_blob_is_typed(self):
        with pytest.raises(LweError):
            Ciphertext.from_bytes(_small_ct_blob()[:10])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(LweError):
            Ciphertext.from_bytes(_small_ct_blob() + b"\x00")
        with pytest.raises(LweError):
            SecretKey.from_bytes(keygen(3, QBIG, SeededRng(19)).to_bytes()
                                 + b"\x00")

    def test_non_canonical_entries_rejected(self):
        # each value has one encoding, below q: 3 + q is refused
        q = QBIG.q
        head = ct_head(q, 1, 0, 1)
        assert ct_matrix(Ciphertext.from_bytes(
            head + value_list(q, [3, 4]))).rows == ((3, 4),)
        with pytest.raises(LweError, match="not below q"):
            Ciphertext.from_bytes(head + value_list(q, [3 + q, 4]))
        with pytest.raises(LweError, match="not below q"):
            SecretKey.from_bytes(_KEY_MAGIC + modulus_bytes(q)
                                 + value_list(q, [1, q]))

    def test_zero_dimension_rejected(self):
        # keygen refuses N = 0, and a ciphertext with N = 0 has no
        # randomness block: its message plus noise would sit in the clear
        q = QBIG.q
        with pytest.raises(LweError, match="N >= 1"):
            SecretKey.from_bytes(_KEY_MAGIC + modulus_bytes(q)
                                 + value_list(q, []))
        for kind, row in ((0, [3]), (1, [3, 4])):
            with pytest.raises(LweError, match="header"):
                Ciphertext.from_bytes(ct_head(q, 0, kind, 1)
                                      + value_list(q, row))
        # nor a kind other than 0 or 1, or no rows
        for n, kind, h in ((1, 2, 1), (1, 0, 0)):
            with pytest.raises(LweError, match="header"):
                Ciphertext.from_bytes(ct_head(q, n, kind, h)
                                      + value_list(q, [3, 4]))

    def test_composite_modulus_rejected(self):
        with pytest.raises(LweError, match="primality"):
            SecretKey.from_bytes(_KEY_MAGIC + modulus_bytes(91)
                                 + value_list(91, [1]))

    def test_modulus_without_bytes_or_with_a_leading_zero_byte(self):
        # the modulus has one encoding too: no byte count of 0, and no
        # zero top byte, refused before any primality test
        blob = _small_ct_blob()
        size = (QBIG.q.bit_length() + 7) // 8
        rest = blob[6 + size:]
        padded = (_CT_MAGIC + struct.pack("<H", size + 1)
                  + QBIG.q.to_bytes(size + 1, "little") + rest)
        for bad in (padded, _CT_MAGIC + struct.pack("<H", 0) + rest):
            for q in (None, QBIG):
                with pytest.raises(LweError, match="leading zero byte"):
                    Ciphertext.from_bytes(bad, q)
        with pytest.raises(LweError, match="leading zero byte"):
            SecretKey.from_bytes(_KEY_MAGIC + struct.pack("<H", 0)
                                 + value_list(97, [1]))
        assert Ciphertext.from_bytes(blob).to_bytes() == blob

    def test_known_answer_blob(self):
        # one row, N = 1, q = 8191 (13 bits: 2 bytes a value), entries
        # first = -1 and A = 300, byte for byte
        q = Modulus(8191)
        ct = ciphertext([(-1, 300)], q)
        blob = (b"COCT" + b"\x02\x00" + b"\xff\x1f"      # modulus 8191
                + b"\x01\x00\x00\x00" + b"\x00"             # N = 1, standard
                + b"\x01\x00\x00\x00"                       # h = 1
                + b"\x02\x00\x00\x00"                       # 2 values
                + b"\xfe\x1f" + b"\x2c\x01")                 # 8190, 300
        assert ct.to_bytes() == blob
        assert Ciphertext.from_bytes(blob) == ct
        assert ct_matrix(Ciphertext.from_bytes(blob)).rows == ((-1, 300),)
        modified = ciphertext([(-1, 300, 2)], q, modified=True)
        # kind 1, 3 values: the cancel column 2 after A
        assert modified.to_bytes() == (blob[:12] + b"\x01" + blob[13:17]
                                       + b"\x03\x00\x00\x00" + blob[21:]
                                       + b"\x02\x00")
        key = secret_key([-1, 5], q)
        assert key.to_bytes() == (b"COSK" + b"\x02\x00\xff\x1f"
                                  + b"\x02\x00\x00\x00\xfe\x1f\x05\x00")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_blob_is_rejected_or_canonical(self, data):
        blob = bytearray(_small_ct_blob())
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(blob) - 1))
            blob[i] = data.draw(st.integers(0, 255))
        try:
            ct = Ciphertext.from_bytes(bytes(blob))
        except LweError:
            return
        assert ct.to_bytes() == bytes(blob)

    def test_centred_range_edges(self):
        # the centred edges +-(q-1)/2 go on the wire as (q-1)/2 and
        # (q+1)/2; q - 1 is the largest value, q the first refused one,
        # wherever it sits
        q = QBIG.q
        half = (q - 1) // 2
        ct_header = ct_head(q, 2, 0, 1)
        key_header = _KEY_MAGIC + modulus_bytes(q)
        for pos in range(3):
            for wire, centred in ((half, half), (half + 1, -half),
                                  (q - 1, -1)):
                row = [0, 0, 0]
                row[pos] = wire
                expect = [0, 0, 0]
                expect[pos] = centred
                assert ct_matrix(Ciphertext.from_bytes(
                    ct_header + value_list(q, row))).rows == (tuple(expect),)
                assert SecretKey.from_bytes(
                    key_header + value_list(q, row)).entries() == tuple(expect)
            for outside in (q, 2 ** 64 - 1):
                row = [0, 0, 0]
                row[pos] = outside
                with pytest.raises(LweError, match="not below q"):
                    Ciphertext.from_bytes(ct_header + value_list(q, row))
                with pytest.raises(LweError, match="not below q"):
                    SecretKey.from_bytes(key_header + value_list(q, row))

    def test_huge_modulus_refused_at_once(self):
        key_blob = (_KEY_MAGIC + modulus_bytes(HUGE_PRIME)
                    + value_list(HUGE_PRIME, [1]))
        for blob, parse in ((ct_blob(HUGE_PRIME), Ciphertext.from_bytes),
                            (key_blob, SecretKey.from_bytes)):
            start = time.perf_counter()
            with pytest.raises(LweError, match="4423 bits"):
                parse(blob)
            assert time.perf_counter() - start < 1


# moduli of 7, 13, 61, 64, 109 and 127 bits: one byte a value, values
# that end inside a byte or on a word, and two words a value
_CODEC_MODULI = [Q97, Modulus(8191), QBIG, Modulus(2 ** 64 - 59), Q109,
                 Modulus(2 ** 127 - 1)]
_INTS = st.one_of(st.integers(-2 ** 130, 2 ** 130), st.sampled_from(
    [0, 1, -1, 255, 256] + [2 ** k + d for k in (7, 13, 61, 64, 109, 127)
                            for d in (-1, 0, 1)]))


def _decoded(read, blob, q):
    try:
        return read(blob, 0, q)
    except LweError as exc:
        return str(exc)


def _read_centred(buf, offset, q):
    words, end = read_values(buf, offset, q)
    return lwe.centred(q, words), end


class TestIntCodec:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_CODEC_MODULI), st.lists(_INTS, max_size=40),
           st.binary(max_size=6))
    @example(Q109, [], b"")
    def test_matches_reference_codec(self, q, values, prefix):
        blob = reference_pack_values(q, values)
        assert pack_words(q, words_of(q, values)) == blob
        assert _read_centred(prefix + blob, len(prefix), q) == (
            [q.cmod(v) for v in values], len(prefix) + len(blob))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_CODEC_MODULI), st.lists(_INTS, max_size=40),
           st.data())
    def test_damaged_list_decodes_as_reference_does(self, q, values, data):
        # a value, or the same refusal with the same message
        blob = bytearray(reference_pack_values(q, values))
        for _ in range(data.draw(st.integers(0, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(
                st.integers(0, 255))
        blob = bytes(blob[:data.draw(st.integers(0, len(blob)))])
        assert _decoded(_read_centred, blob, q) == _decoded(
            reference_read_values, blob, q)

    @pytest.mark.parametrize("name", sorted(MALFORMED_INT_LISTS))
    def test_malformed_list_rejected(self, name):
        build, message = MALFORMED_INT_LISTS[name]
        for q in (Modulus(11), Modulus(BENCH_Q)):
            for read in (read_values, reference_read_values):
                with pytest.raises(LweError, match=f"^{message}$"):
                    read(build(q.q), 0, q)

    def test_largest_count_allocates_nothing(self):
        # a count of 2^32 - 1 on a 20-byte blob would be 56 GiB of words
        blob = struct.pack("<I", 2 ** 32 - 1) + bytes(16)
        assert len(blob) == 20
        tracemalloc.start()
        try:
            with pytest.raises(LweError, match="truncated value list"):
                read_values(blob, 0, Modulus(BENCH_Q))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_value_equal_to_q_and_bits_above_q_refused(self):
        # q = 2^109 - 31 takes two words a value: q itself ties q's high
        # word and is refused on the low one; a bit above bit 108 in the
        # top byte is refused on the high word, whatever lies below it
        q = Modulus(BENCH_Q)
        below = [q.q - 1, (q.q >> 64) << 64, 2 ** 64 - 1]
        read = read_values(value_list(q.q, below), 0, q)[0]
        assert join_limbs(read.T, 64) == below
        for bad in (q.q, q.q + 1, 1 << 109, 5 | 1 << 111, 2 ** 112 - 1):
            for pos in range(3):
                values = [0, 0, 0]
                values[pos] = bad
                for read in (read_values, reference_read_values):
                    with pytest.raises(LweError, match="^value not below q$"):
                        read(value_list(q.q, values), 0, q)
