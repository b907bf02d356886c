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
for production use.  Uniform vectors are drawn in bulk from the source's
`randbytes`, at most 4096 values per request: each value takes
ceil(bits / 8) bytes masked to the bit length of q, and values >= q, found
by a compare on the masked 64-bit words, are rejected and redrawn, so every
entry is exactly uniform on Z_q.  The survivors stay in those
little-endian uint64 words (`_RandomSource.uniform_words`),
nw = ceil(bits / 64) per value; `uniforms` joins and centres the same draw
into Python ints.  Under `SecureRng` the bytes come from OpenSSL's NIST
SP 800-90A CTR_DRBG (`ssl.RAND_bytes`, AES-256, seeded and reseeded by
OpenSSL from system entropy), about 13 times faster than `os.urandom` for
a step's 344 KB at N = 4096; the errors still come from
`random.SystemRandom`.  `ssl` is imported only when a `SecureRng` is
built, since loading it adds about 5 MB of resident memory that processes
using only `TestRng` need not pay.

Encryption keeps the randomness A as those words, read-only: the cloud
never reads A, so it is never cut into the observer's limbs.  The mask
A sk is a float64 matrix product (`SecretKey.products`): the words'
32-bit halves, all in [0, 2^32), against the key's signed dk-bit digits,
with N 2^32 2^dk <= 2^53, so every partial sum is an integer that float64
holds exactly, whatever order or blocking BLAS sums in.  At N = 4096 that
is dk = 9, with 13 key digits, and a 6-row A of 109-bit values is 24 rows
of halves, taken in row blocks of A of at most `_PRODUCT_BLOCK` halves.
The key's digits are cut once per key; keys longer than `MAX_N` = 2^20
leave no digit bit and are refused.  The key caches each batch's A sk mod
q, held weakly by batch (`cached_products`): b - e for a batch it
encrypted, one product otherwise; `zeroize` wipes the digits and empties
that cache.

Keys and ciphertexts serialize as a magic, a header list and a payload
list.  An integer list is a uint32 count, then per value a sign byte, a
uint32 magnitude length and the magnitude's fewest little-endian bytes
(`_pack_ints`).  The reader (`_unpack_ints`, then `_parse_body`) is strict:
it refuses truncation, a sign other than 0 or 1, a magnitude whose top
byte is zero (leading zeros, -0 or no bytes at all), trailing bytes, and a
payload entry outside the centred range of q, found by one `min` and one
`max` per list.  It decodes a 109-bit entry in about 0.4 us (CPython 3.11,
2-vCPU x86-64).  A blob's modulus wider than `modring.MAX_MODULUS_BITS`
= 1024 bits is refused before its primality test, so no blob can stall
the parser; a reader that already knows q passes it, and a blob naming
another modulus is refused with no primality test at all.
"""

from __future__ import annotations

import enum
import random
import struct
import weakref
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .modring import DimensionMismatch, ModMatrix, Modulus, PrimalityError, \
    bytes_to_words, digit_budget, fixed_digits, join_digit_sums, join_limbs

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

        Each row is drawn in bulk as masked bytes with rejection (never a
        biased `% q` of a wide draw), at most 4096 values per request; a
        value >= q is found by comparing its masked words with q's from the
        top word down, and the row's next request replaces it.
        """
        bits = q.q.bit_length()
        stride = (bits + 7) // 8
        q_words = bytes_to_words(q.q.to_bytes(stride, "little"), stride)[0]
        top = np.uint64((1 << (bits - 64 * (len(q_words) - 1))) - 1)
        out = np.empty((rows, count, len(q_words)), dtype=np.uint64)
        for row in out:
            filled = 0
            while filled < count:
                n = min(count - filled, _UNIFORM_CHUNK)
                words = bytes_to_words(self._rng.randbytes(n * stride), stride)
                words[:, -1] &= top
                below = words[:, -1] < q_words[-1]
                if not below.all():
                    # a tie on a word is decided by the words below it
                    equal = words[:, -1] == q_words[-1]
                    for k in range(len(q_words) - 2, -1, -1):
                        below |= equal & (words[:, k] < q_words[k])
                        equal &= words[:, k] == q_words[k]
                    words = words[below]
                row[filled:filled + len(words)] = words
                filled += len(words)
        return out

    def uniforms(self, q: Modulus, count: int) -> list:
        """`count` values exactly uniform on centred Z_q: one row of the
        word draw, joined and centred."""
        modulus, half = q.q, (q.q - 1) // 2
        return [v - modulus if v > half else v for v in
                join_limbs(self.uniform_words(q, 1, count)[0].T, 64)]

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
_ENTRY = struct.Struct("<BI")       # sign byte, magnitude length


def _pack_ints(values: Sequence[int]) -> bytes:
    """Length-prefixed little-endian magnitude with a sign byte per value."""
    out = [_COUNT.pack(len(values))]
    entry = _ENTRY.pack
    for v in values:
        mag = abs(v)
        nbytes = (mag.bit_length() + 7) // 8 or 1
        out.append(entry(v < 0, nbytes))
        out.append(mag.to_bytes(nbytes, "little"))
    return b"".join(out)


def _unpack_ints(buf: bytes, offset: int) -> Tuple[list, int]:
    """Strict inverse of `_pack_ints`: LweError on truncated input, a sign
    byte other than 0 or 1, a magnitude with leading zero bytes, or -0.

    The encoding is canonical exactly when the sign is 0 or 1, the
    magnitude has at least one byte, and its top byte is nonzero unless it
    is the single byte of +0, so the check reads that byte instead of
    measuring the decoded int."""
    size = len(buf)
    if offset + 4 > size:
        raise LweError("truncated integer list")
    (count,) = _COUNT.unpack_from(buf, offset)
    offset += 4
    # every entry takes at least 6 bytes, which also bounds the list below
    if 6 * count > size - offset:
        raise LweError("truncated integer list")
    values = [0] * count
    entry = _ENTRY.unpack_from
    from_bytes = int.from_bytes
    try:
        for i in range(count):
            sign, nbytes = entry(buf, offset)
            start = offset + 5
            offset = start + nbytes
            if offset > size:
                raise LweError("truncated integer")
            if sign > 1 or not nbytes or (
                    not buf[offset - 1] and (nbytes > 1 or sign)):
                raise LweError("non-canonical integer encoding")
            mag = from_bytes(buf[start:offset], "little")
            values[i] = -mag if sign else mag
    except struct.error:    # fewer than 5 bytes left for an entry's header
        raise LweError("truncated integer") from None
    return values, offset


def _parse_body(buf: bytes, header_len: int, q: Modulus | None = None):
    """Magic-stripped blob -> (header ints, modulus, payload ints), checking
    that nothing trails the payload and every entry is centred mod q; a
    given q is compared with the blob's modulus instead of tested again."""
    header, offset = _unpack_ints(buf, 4)
    if len(header) != header_len:
        raise LweError("malformed header")
    if q is None:
        try:
            q = Modulus(header[0])
        except PrimalityError as exc:
            raise LweError(f"blob modulus refused: {exc}") from exc
    elif header[0] != q.q:
        raise LweError("blob modulus does not match the expected one")
    payload, offset = _unpack_ints(buf, offset)
    if offset != len(buf):
        raise LweError(f"{len(buf) - offset} trailing bytes")
    if not q.contains_all(payload):
        raise LweError("entry outside the centred range of q")
    return header, q, payload


class SecretKey:
    """LWE secret key: an N-vector over centered Z_q.

    `products` computes with the key cut into signed dk-bit digits, cut
    once and kept as a float64 array: dk is what the float64 budget of a
    length-N dot product leaves beside 32-bit halves of words.  The key also
    caches A sk mod q per owner of a read-only randomness block A (an
    encrypted batch), in a `weakref.WeakKeyDictionary`: an entry lives as
    long as its owner, so the cache holds no more than the live batches.
    `encobs.EncryptorSession` stores the entry of each batch it encrypts.
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
        return _KEY_MAGIC + _pack_ints([self.q.q, self.N]) + _pack_ints(self.entries())

    @classmethod
    def from_bytes(cls, buf: bytes) -> "SecretKey":
        if buf[:4] != _KEY_MAGIC:
            raise LweError("not a secret key blob")
        (_, n), q, entries = _parse_body(buf, 2)
        if n < 1 or len(entries) != n:
            raise LweError("secret key length is not N >= 1")
        return cls(entries, q)


@dataclass(frozen=True)
class Ciphertext:
    """Role-tagged ciphertext matrix: message+mask column, randomness block,
    and (modified kind only) the cancellation column."""

    body: ModMatrix
    kind: CiphertextKind
    N: int

    def __post_init__(self):
        expected = self.N + (1 if self.kind is CiphertextKind.STANDARD else 2)
        if self.body.ncols != expected:
            raise DimensionMismatch(
                f"{self.kind.value} ciphertext must have {expected} columns, "
                f"got {self.body.ncols}")

    @property
    def h(self) -> int:
        return self.body.nrows

    def first_column(self) -> Tuple[int, ...]:
        return self.body.column_entries(0)

    def to_bytes(self) -> bytes:
        head = _pack_ints([self.body.modulus.q, self.N,
                           0 if self.kind is CiphertextKind.STANDARD else 1,
                           self.h])
        return _CT_MAGIC + head + _pack_ints(self.body.flat())

    @classmethod
    def from_bytes(cls, buf: bytes, q: Modulus | None = None) -> "Ciphertext":
        """A given q is the modulus the blob must name (`_parse_body`)."""
        if buf[:4] != _CT_MAGIC:
            raise LweError("not a ciphertext blob")
        (_, n, kind_flag, h), q, flat = _parse_body(buf, 4, q)
        if kind_flag not in (0, 1) or n < 1 or h < 1:
            raise LweError("malformed ciphertext header")
        kind = CiphertextKind.MODIFIED if kind_flag else CiphertextKind.STANDARD
        width = n + (2 if kind_flag else 1)
        if len(flat) != h * width:
            raise LweError("ciphertext payload size mismatch")
        # consecutive width-tuples of the flat payload, one per row
        rows = zip(*[iter(flat)] * width)
        return cls(body=ModMatrix(rows, q, ncols=width, _reduced=True),
                   kind=kind, N=n)


def keygen(N: int, q: Modulus, rng) -> SecretKey:
    """Uniform secret key over centered Z_q^N from the supplied source."""
    if N < 1:
        raise LweError("N must be >= 1")
    return SecretKey(rng.uniforms(q, N), q)


@dataclass(frozen=True, eq=False)
class Encryption:
    """A standard encryption [m + b, A] mod q with its artifacts.

    `first` is the column m + b, `mask` is b = A sk + e and `error` is e.
    `randomness` is A as the sampler drew it: the read-only (h, N, nw)
    uint64 words of `_RandomSource.uniform_words`, values in [0, q).  The
    mask and error are for the trusted encryptor role that derives the
    cancellation terms; they must never leave the encrypting process or be
    serialized alongside the ciphertext.
    """

    first: ModMatrix
    mask: ModMatrix
    error: ModMatrix
    randomness: np.ndarray


def encrypt_with_artifacts(m: ModMatrix, sk: SecretKey, noise: NoiseParams,
                           rng) -> Encryption:
    """Encrypt the column m, keeping A as the sampler's words."""
    if not m.is_column():
        raise DimensionMismatch("message must be a column vector")
    if m.modulus != sk.q:
        raise LweError("message modulus differs from key modulus")
    A = rng.uniform_words(sk.q, m.nrows, sk.N)
    A.setflags(write=False)
    e = ModMatrix.column([rng.error(noise) for _ in range(m.nrows)], sk.q)
    b = ModMatrix.column([s + ei for s, (ei,) in zip(sk.products(A), e.rows)],
                         sk.q)
    return Encryption(first=m + b, mask=b, error=e, randomness=A)
