"""Additively homomorphic LWE encryption over the centered field Z_q.

A ciphertext for an h-dimensional message is the h x (N+1) matrix
[m + b, A] mod q with masking term b = A sk + e, where e is a small error.
The modified scheme used by the encrypted observer appends one extra column
(the cancellation term), widening ciphertexts to N+2, and subtracts it from
the first column, so both kinds decrypt to first - A sk = m + e mod q, the
modified kind once its extra column is added back.  The observer decrypts
only in recovery (`encobs.recover_encrypted_state`), from each batch's
A sk mod q, held by the key that encrypted the batch and computed once by
any other key, and replays them through the recursion to S_t sk.

Randomness comes from an injected source: `SecureRng` (the default) or
the seedable `TestRng` for reproducible runs; the latter is explicitly not
for production use.  Uniform vectors come from a rejection sampler on the
source's `randbytes` (`_RandomSource.uniform_words`), so every entry is
exactly uniform on Z_q, and stay in little-endian uint64 words,
nw = ceil(bits / 64) per value; `uniforms` centres the same draw into
Python ints.

Ciphertexts keep the randomness A as those words, read-only, also on the
wire: the cloud never reads A, so it is never joined into Python ints or
cut into the observer's limbs.  The mask A sk is a float64 matrix product
(`SecretKey.products`) of the words' 32-bit halves against the key's
signed dk-bit digits, exact whatever order BLAS sums in; keys longer than
`MAX_N` = 2^20 leave no digit bit and are refused.  The key caches each
batch's A sk mod q, held weakly by batch (`cached_products`): the
encryption's own for a batch it encrypted, one product otherwise;
`zeroize` wipes the digits and empties that cache.

Keys and ciphertexts serialize as a magic, the modulus (a uint16 byte
count and its magnitude), a fixed-width header and one value list.  Every
list of Z_q values is a uint32 count, then each value v mod q in
ceil(bits(q) / 8) little-endian bytes (`pack_words`), 14 for the 109-bit
benchmark q.  `read_values` checks the count against the bytes left before
it allocates, cuts the list into words as the sampler cuts its bytes, and
refuses any value not below q; blobs also refuse trailing bytes, so each
value has one encoding.  A modulus with no bytes or a zero top byte is
refused, and one wider than `modring.MAX_MODULUS_BITS` = 1024 bits is
refused by `Modulus` before its primality test, so no blob can stall the
parser; a reader that already knows q passes it instead.
"""

from __future__ import annotations

import enum
import random
import struct
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .modring import DimensionMismatch, ModMatrix, Modulus, PrimalityError, \
    digit_budget, fixed_digits, join_digit_sums, join_limbs

__all__ = [
    "MAX_N",
    "LweError",
    "CiphertextKind",
    "NoiseParams",
    "SecureRng",
    "TestRng",
    "SecretKey",
    "Ciphertext",
    "Encryption",
    "keygen",
    "encrypt_with_artifacts",
]


class LweError(Exception):
    pass


class CiphertextKind(enum.Enum):
    STANDARD = "standard"   # width N + 1
    MODIFIED = "modified"   # width N + 2, extra cancellation column


@dataclass(frozen=True)
class NoiseParams:
    """Error distribution: discrete Gaussian of width Delta/6, rejected to
    stay within floor(Delta) in absolute value, so the bound always holds.
    Delta must be finite and >= 0, or the rejection never accepts."""

    Delta: float

    def __post_init__(self):
        if not 0 <= self.Delta < float("inf"):
            raise LweError(f"noise width Delta must be finite and >= 0, "
                           f"got {self.Delta!r}")

    @property
    def sigma(self) -> float:
        return self.Delta / 6.0

    @property
    def bound(self) -> int:
        return int(self.Delta)


# the longest key whose products stay exact in float64: N 2^32 2^dk <= 2^53
# leaves key digits of dk >= 1 bit
MAX_N = 2 ** 20
_UNIFORM_CHUNK = 4096
# float64 halves per row block of a key product, 384 KB: 3 rows of 109-bit
# values at N = 4096, a whole 24-row batch at N = 64.  A 24-row batch at
# N = 4096 then never holds its 3 MB of halves at once, and in a timeit of
# 6- and 24-row products there (2-vCPU x86-64, OpenBLAS default threads)
# 3-row blocks had the lowest p99 and a median no higher than whole
# batches, whose p99 reached 2.6 and 4.1 ms
_PRODUCT_BLOCK = 3 * 4 * 4096


class _RandomSource:
    """Uniform and error draws from an injected `random.Random`."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def uniform_words(self, q: Modulus, rows: int, count: int) -> np.ndarray:
        """rows x count values exactly uniform on [0, q), drawn row by row,
        as a (rows, count, nw) array of little-endian uint64 words, least
        significant first: the sampler's own words, nw = ceil(bytes / 8).

        Rows request masked bytes (never a biased `% q` of a wide draw) for
        at most 4096 values, cut in groups of at most 4096 values
        (`_cut_words`); each request's values >= q are redrawn by one
        request of its row, made right after its group's requests.
        """
        stride, nw = wire_layout(q)
        out = np.empty((rows, count, nw), dtype=np.uint64)
        filled = [0] * rows
        queue = deque((r, min(count - s, _UNIFORM_CHUNK)) for r in range(rows)
                      for s in range(0, count, _UNIFORM_CHUNK))
        while queue:
            group, size = [], 0
            while queue and size + queue[0][1] <= _UNIFORM_CHUNK:
                group.append(queue.popleft())
                size += group[-1][1]
            words = _cut_words(b"".join(
                [self._rng.randbytes(n * stride) for _, n in group]
                + [bytes(8 * nw - stride)]), size, stride, q.q.bit_length())
            below = _below(words, q)
            redraws, o = [], 0
            for r, n in group:
                kept = words[o:o + n]
                if below is not None:
                    kept = kept[below[o:o + n]]
                out[r, filled[r]:filled[r] + len(kept)] = kept
                filled[r] += len(kept)
                o += n
                if len(kept) < n:
                    redraws.append((r, n - len(kept)))
            queue.extendleft(reversed(redraws))
        return out

    def uniforms(self, q: Modulus, count: int) -> list:
        """`count` values exactly uniform on centred Z_q: one row of the
        word draw, centred."""
        return centred(q, self.uniform_words(q, 1, count)[0])

    def error(self, noise: NoiseParams) -> int:
        while True:
            e = round(self._rng.gauss(0.0, noise.sigma))
            if abs(e) <= noise.bound:
                return int(e)


class SecureRng(_RandomSource):
    """Production randomness: uniform bytes from OpenSSL's CTR_DRBG
    (`ssl.RAND_bytes`), errors from `random.SystemRandom`.

    `ssl` is imported here, not with the module: loading libssl adds about
    5 MB of resident memory, which processes that only build `TestRng`
    must not pay."""

    def __init__(self):
        import ssl
        rng = random.SystemRandom()
        rng.randbytes = ssl.RAND_bytes
        super().__init__(rng)


class TestRng(_RandomSource):
    """Seedable deterministic randomness; insecure, for tests and replays."""

    def __init__(self, seed: int):
        super().__init__(random.Random(seed))


_KEY_MAGIC = b"COSK"
_CT_MAGIC = b"COCT"
_COUNT = struct.Struct("<I")        # list length
_CT_HEAD = struct.Struct("<IBI")    # N, kind (0 standard, 1 modified), h


def wire_layout(q: Modulus) -> Tuple[int, int]:
    """(stride, nw): a value's bytes on the wire, ceil(bits / 8), and its
    uint64 words, ceil(bits / 64)."""
    bits = q.q.bit_length()
    return (bits + 7) // 8, (bits + 63) // 64


def _cut_words(raw: bytes, count: int, stride: int, bits: int) -> np.ndarray:
    """The low `bits` bits of the `count` values of `stride` bytes packed in
    `raw`, padded by 8 nw - stride bytes, as a fresh (count, nw) uint64
    array, through one strided view whose top words are masked."""
    nw = -(-stride // 8)
    view = np.ndarray((count, nw), "<u8", raw, strides=(stride, 8))
    words = np.empty((count, nw), dtype=np.uint64)
    words[:, :-1] = view[:, :-1]
    np.bitwise_and(view[:, -1], np.uint64((1 << bits - 64 * nw + 64) - 1),
                   out=words[:, -1])
    return words


def _below(words: np.ndarray, q: Modulus):
    """Which rows of (n, nw) words hold a value below q, or None when every
    top word is below q's, so all do."""
    q_words = [np.uint64(q.q >> 64 * k & ~(~0 << 64))
               for k in range(words.shape[1])]
    if (words[:, -1] < q_words[-1]).all():
        return None
    # below q on a word, or equal there and below on the lower
    below = words[:, 0] < q_words[0]
    for k in range(1, len(q_words)):
        below = (words[:, k] < q_words[k]) | (
            (words[:, k] == q_words[k]) & below)
    return below


def words_of(q: Modulus, values: Iterable[int]) -> np.ndarray:
    """The (n, nw) uint64 words of each value mod q."""
    (stride, nw), modulus = wire_layout(q), q.q
    raw = [(v % modulus).to_bytes(stride, "little") for v in values]
    return _cut_words(b"".join(raw + [bytes(8 * nw - stride)]), len(raw),
                      stride, 8 * stride)


def centred(q: Modulus, words: np.ndarray) -> List[int]:
    """The centred Python ints of (n, nw) words of values in [0, q)."""
    modulus, half = q.q, q.q >> 1
    return [v - modulus if v > half else v for v in join_limbs(words.T, 64)]


def pack_words(q: Modulus, *parts: np.ndarray) -> bytes:
    """One value list of the nw-word values in [0, q) of `parts` in turn: a
    uint32 count, then every value's ceil(bits / 8) low bytes."""
    stride, nw = wire_layout(q)
    blocks = [np.ascontiguousarray(p, dtype="<u8").reshape(-1, nw)
              for p in parts]
    return b"".join([_COUNT.pack(sum(map(len, blocks)))] + [
        b.view(np.uint8)[:, :stride].tobytes() for b in blocks])


def read_values(buf: bytes, offset: int, q: Modulus) -> Tuple[np.ndarray,
                                                                int]:
    """Strict inverse of `pack_words` at `offset` -> ((count, nw) words,
    end), refusing a list that runs past `buf` before allocating it."""
    stride, nw = wire_layout(q)
    # a count cut short also puts the end past the buffer
    count = int.from_bytes(buf[offset:offset + 4], "little")
    start, end = offset + 4, offset + 4 + count * stride
    if end > len(buf):
        raise LweError("truncated value list")
    words = _cut_words(buf[start:end] + bytes(8 * nw - stride), count, stride,
                       8 * stride)
    below = _below(words, q)
    if below is not None and not below.all():
        raise LweError("value not below q")
    return words, end


def _pack_modulus(q: Modulus) -> bytes:
    size = (q.q.bit_length() + 7) // 8
    return size.to_bytes(2, "little") + q.q.to_bytes(size, "little")


def _read_modulus(buf: bytes, offset: int,
                  q: Modulus | None = None) -> Tuple[Modulus, int]:
    """The modulus at `offset` -> (modulus, end), or the given q, which it
    must equal; `Modulus` refuses a width past `MAX_MODULUS_BITS` first."""
    size = int.from_bytes(buf[offset:offset + 2], "little")
    start, end = offset + 2, offset + 2 + size
    if end > len(buf):
        raise LweError("truncated modulus")
    if not size or not buf[end - 1]:
        raise LweError("modulus with a leading zero byte")
    value = int.from_bytes(buf[start:end], "little")
    if q is None:
        try:
            q = Modulus(value)
        except PrimalityError as exc:
            raise LweError(f"blob modulus refused: {exc}") from exc
    elif value != q.q:
        raise LweError("blob modulus does not match the expected one")
    return q, end


def _read_payload(buf: bytes, offset: int, q: Modulus) -> np.ndarray:
    """The value list that ends a blob."""
    words, end = read_values(buf, offset, q)
    if end != len(buf):
        raise LweError(f"{len(buf) - end} trailing bytes")
    return words


class SecretKey:
    """LWE secret key: an N-vector over centered Z_q.

    `products` computes with the key cut into signed dk-bit digits, cut
    once and kept as a float64 array: dk is what the float64 budget of a
    length-N dot product leaves beside 32-bit halves of words.  The key also
    caches A sk mod q per owner of a read-only randomness block A (an
    encrypted batch), in a `weakref.WeakKeyDictionary`: an entry lives as
    long as its owner, so the cache holds no more than the live batches.
    `encobs.EncryptorSession` seeds the entry of each batch it encrypts
    (`seed_products`); no other module touches the cache.
    `zeroize()` overwrites and drops both the stored entries and those
    digits and empties the cache; callers that keep the key's bytes
    (`to_bytes`) are expected to erase them as part of the same contract.
    """

    def __init__(self, entries: Sequence[int], q: Modulus):
        self._entries = [q.cmod(int(v)) for v in entries]
        self.q = q
        self._digits = None     # (dk, N x P float64 digits), on first use
        self._owned_products = weakref.WeakKeyDictionary()

    def _live(self) -> list:
        if self._entries is None:
            raise LweError("secret key has been zeroized")
        return self._entries

    @property
    def N(self) -> int:
        return len(self._live())

    def entries(self) -> Tuple[int, ...]:
        return tuple(self._live())

    def _key_digits(self) -> Tuple[int, np.ndarray]:
        """(dk, digits): the key's `fixed_digits` of width
        dk = `digit_budget(N, 53)` - 32 as an N x P float64 array, with
        key == sum(digits[:, p] << (dk p)), all below 2^dk in absolute
        value.  LweError when N > `MAX_N` leaves no digit bit."""
        entries = self._live()
        if self._digits is None:
            dk = digit_budget(len(entries), 53) - 32
            if dk < 1:
                raise LweError(f"key products are exact only for "
                               f"N <= {MAX_N}, got N = {len(entries)}")
            digits = fixed_digits(entries, self.q.q.bit_length() - 1, dk)
            self._digits = (dk, digits.T.astype(np.float64))
            digits[...] = 0
        return self._digits

    def products(self, words: np.ndarray) -> List[int]:
        """The exact integers A sk, one per row, for a matrix A held as the
        (rows, N, nw) uint64 words A = sum(words[..., k] << (64 k)), as
        `_RandomSource.uniform_words` draws them.

        The words' 32-bit halves, read through a `<u4` view and all in
        [0, 2^32), meet the key's digits in float64 products of 2 nw rows
        per row of A, one per row block of at most `_PRODUCT_BLOCK`
        halves.  Each of their sums has N terms below 2^32 2^dk in
        absolute value, so every partial sum is an integer below 2^53 and
        the product is exact for any summation order, blocking or thread
        split; only the sums are joined as Python ints.
        """
        dk, key = self._key_digits()
        rows, N, nw = words.shape
        if N != key.shape[0]:
            raise DimensionMismatch("matrix and key disagree on N")
        sums = np.empty((nw, 2, rows, key.shape[1]), dtype=np.int64)
        block = max(1, _PRODUCT_BLOCK // (2 * nw * N))
        for r in range(0, rows, block):
            halves = words[r:r + block].view("<u4").transpose(2, 0, 1).astype(
                np.float64, order="C")
            sums[:, :, r:r + block] = (halves.reshape(-1, N) @ key).reshape(
                nw, 2, -1, key.shape[1])
        return join_digit_sums(sums.transpose(2, 1, 0, 3), 64, dk)

    def cached_products(self, owner, words: np.ndarray) -> Tuple[int, ...]:
        """A sk mod q, centred, for the randomness `owner` holds as the
        read-only words `words`: `products` on a miss, then the cached
        values until `owner` is collected or the key zeroized."""
        self._live()
        values = self._owned_products.get(owner)
        if values is None:
            values = tuple(map(self.q.cmod, self.products(words)))
            self._owned_products[owner] = values
        return values

    def seed_products(self, owner, values: Tuple[int, ...]):
        """Cache the encryptor's `values`, A sk mod q centred, for `owner`."""
        self._owned_products[owner] = values

    def zeroize(self):
        self._owned_products.clear()
        if self._entries is not None:
            for i in range(len(self._entries)):
                self._entries[i] = 0
            self._entries = None
        if self._digits is not None:
            self._digits[1][...] = 0
            self._digits = None

    def to_bytes(self) -> bytes:
        """Magic, modulus, then the entries as one value list."""
        return b"".join([_KEY_MAGIC, _pack_modulus(self.q),
                         pack_words(self.q, words_of(self.q, self.entries()))])

    @classmethod
    def from_bytes(cls, buf: bytes) -> "SecretKey":
        if buf[:4] != _KEY_MAGIC:
            raise LweError("not a secret key blob")
        q, offset = _read_modulus(buf, 4)
        entries = centred(q, _read_payload(buf, offset, q))
        if not entries:
            raise LweError("secret key length is not N >= 1")
        return cls(entries, q)


@dataclass(frozen=True, eq=False)
class Ciphertext:
    """A ciphertext over q as read-only uint64 words of values in [0, q),
    nw = ceil(bits / 64) per value, the sampler's form: the (h, nw) first
    column, the (h, N, nw) randomness A, the very array its batch holds and
    every channel's modified ciphertext shares, and the modified kind's
    (h, nw) cancel column, None for a standard ciphertext.  Ciphertexts are
    equal when their q, kind and words are."""

    q: Modulus
    first: np.ndarray
    shared: np.ndarray
    cancel: Optional[np.ndarray] = None

    def __post_init__(self):
        h, N, nw = self.shared.shape
        if (self.first.shape != (h, nw) or nw != wire_layout(self.q)[1]
                or (self.cancel is not None and self.cancel.shape != (h, nw))):
            raise DimensionMismatch(f"ciphertext parts do not fit a {h} x "
                                    f"{N} block of {nw}-word values")
        for part in (self.first, self.shared, self.cancel):
            if part is not None:
                part.setflags(write=False)

    @property
    def kind(self) -> CiphertextKind:
        return (CiphertextKind.STANDARD if self.cancel is None
                else CiphertextKind.MODIFIED)

    @property
    def N(self) -> int:
        return self.shared.shape[1]

    @property
    def h(self) -> int:
        return self.first.shape[0]

    def first_column(self) -> Tuple[int, ...]:
        return tuple(centred(self.q, self.first))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ciphertext):
            return NotImplemented
        return self.q == other.q and self.kind is other.kind and all(
            a is b or np.array_equal(a, b) for a, b in (
                (self.first, other.first), (self.shared, other.shared),
                (self.cancel, other.cancel)))

    def to_bytes(self) -> bytes:
        """Magic, modulus, N, kind and h, then one value list: the first
        column, A row by row and, modified, the cancel column."""
        modified = self.cancel is not None
        return b"".join([
            _CT_MAGIC, _pack_modulus(self.q),
            _CT_HEAD.pack(self.N, modified, self.h),
            pack_words(self.q, self.first, self.shared,
                       *([self.cancel] if modified else []))])

    @classmethod
    def from_bytes(cls, buf: bytes, q: Modulus | None = None) -> "Ciphertext":
        """A given q is the modulus the blob must name (`_read_modulus`)."""
        if buf[:4] != _CT_MAGIC:
            raise LweError("not a ciphertext blob")
        q, offset = _read_modulus(buf, 4, q)
        if offset + _CT_HEAD.size > len(buf):
            raise LweError("truncated ciphertext header")
        n, kind, h = _CT_HEAD.unpack_from(buf, offset)
        if kind > 1 or n < 1 or h < 1:
            raise LweError("malformed ciphertext header")
        words = _read_payload(buf, offset + _CT_HEAD.size, q)
        if len(words) != h * (n + 1 + kind):
            raise LweError("ciphertext payload size mismatch")
        return cls(q, words[:h], words[h:h + h * n].reshape(h, n, -1),
                   words[h + h * n:] if kind else None)


def keygen(N: int, q: Modulus, rng) -> SecretKey:
    """Uniform secret key over centered Z_q^N from the supplied source."""
    if N < 1:
        raise LweError("N must be >= 1")
    return SecretKey(rng.uniforms(q, N), q)


@dataclass(frozen=True, eq=False)
class Encryption:
    """A standard encryption [m + b, A] mod q with its artifacts.

    `first` is the column m + b, `mask` is b = A sk + e, `error` is e and
    `key_product` is A sk mod q, centred, the key's cache entry for A.
    `randomness` is A as the sampler drew it: the read-only (h, N, nw)
    uint64 words of `_RandomSource.uniform_words`, values in [0, q).  The
    mask, error and key product are for the trusted encryptor role that
    derives the cancellation terms; they must never leave the encrypting
    process or be serialized alongside the ciphertext.
    """

    first: ModMatrix
    mask: ModMatrix
    error: ModMatrix
    randomness: np.ndarray
    key_product: Tuple[int, ...]


def encrypt_with_artifacts(m: ModMatrix, sk: SecretKey, noise: NoiseParams,
                           rng) -> Encryption:
    """Encrypt the column m, keeping A as the sampler's words."""
    if not m.is_column():
        raise DimensionMismatch("message must be a column vector")
    if m.modulus != sk.q:
        raise LweError("message modulus differs from key modulus")
    A = rng.uniform_words(sk.q, m.nrows, sk.N)
    A.setflags(write=False)
    e = [rng.error(noise) for _ in range(m.nrows)]
    key_product = tuple(map(sk.q.cmod, sk.products(A)))
    b = [s + ei for s, ei in zip(key_product, e)]
    return Encryption(
        first=ModMatrix.column([v + bi for (v,), bi in zip(m.rows, b)], sk.q),
        mask=ModMatrix.column(b, sk.q), error=ModMatrix.column(e, sk.q),
        randomness=A, key_product=key_product)
