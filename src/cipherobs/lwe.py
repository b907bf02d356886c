"""Additively homomorphic LWE encryption over the centered field Z_q.

A ciphertext for an h-dimensional message is the h x (N+1) matrix
[m + b, A] mod q with masking term b = A sk + e, where e is a small error.
The modified scheme used by the encrypted observer appends one extra column
(the cancellation term), widening ciphertexts to N+2; decryption then
re-sums that column, so both kinds decrypt to m + e mod q.

Randomness comes from an injected source: `SecureRng` (system entropy, the
default) or the seedable `TestRng` for reproducible runs; the latter is
explicitly not for production use.  Uniform vectors are drawn in bulk from
the source's `randbytes` (`os.urandom` under `SecureRng`), at most 4096
values per request: each value takes ceil(bits / 8) bytes masked to the
bit length of q, and values >= q, found by a compare on the masked 64-bit
words, are rejected and redrawn, so every entry is exactly uniform on Z_q.
The survivors' words are cut straight into int64 limbs
(`_RandomSource.uniform_limbs`), the form in which the encrypted observer
computes; `uniforms` joins and centres the same draw into Python ints.

Encryption keeps the randomness A in those limbs.  The mask A sk is one
float64 matrix product (`SecretKey.products`): the 32-bit halves of A's
limbs against the key's signed dk-bit digits, with N 2^32 2^dk <= 2^53, so
every partial sum is an integer that float64 holds exactly, whatever order
BLAS sums in.  At N = 4096 that is dk = 9, with 13 key digits.  The key's
digits are cut once per key; keys longer than `MAX_N` = 2^20 leave no
digit bit and are refused.  Python ints for A appear only when a standard
ciphertext or the randomness matrix is asked for (`Encryption.ciphertext`).
"""

from __future__ import annotations

import enum
import random
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .modring import DimensionMismatch, ModMatrix, Modulus, PrimalityError, \
    bytes_to_words, digit_budget, fixed_digits, half_limbs, join_limbs, \
    words_to_limbs

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
    "encrypt",
    "encrypt_with_artifacts",
    "decrypt",
    "ct_add",
    "ct_matmul",
]


class LweError(Exception):
    pass


class CiphertextKind(enum.Enum):
    STANDARD = "standard"   # width N + 1
    MODIFIED = "modified"   # width N + 2, extra cancellation column


@dataclass(frozen=True)
class NoiseParams:
    """Error distribution: discrete Gaussian of width Delta/6, rejected to
    stay within floor(Delta) in absolute value, so the bound always holds."""

    Delta: float

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
# limb width of the draws `uniforms` and `encrypt` join into Python ints:
# the widest `words_to_limbs` cuts, so the fewest limbs
_JOIN_WIDTH = 62


def _centred(values, q: Modulus) -> list:
    """Values in [0, q) moved to the centred range."""
    modulus, half = q.q, (q.q - 1) // 2
    return [v - modulus if v > half else v for v in values]


class _RandomSource:
    """Uniform and error draws from an injected `random.Random`."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def uniform_limbs(self, q: Modulus, width: int, out: np.ndarray):
        """Fill the (L, rows, count) int64 array `out` with the
        base-2^width limbs of rows x count values exactly uniform on
        [0, q), drawn row by row.

        Each row is drawn in bulk as masked bytes with rejection (never a
        biased `% q` of a wide draw), at most 4096 values per request; a
        value >= q is found by comparing its masked words with q's from the
        top word down, and the row's next request replaces it.  The kept
        words of every row are cut into limbs at once.  L * width must
        cover the bit length of q.
        """
        bits = q.q.bit_length()
        stride = (bits + 7) // 8
        q_words = bytes_to_words(q.q.to_bytes(stride, "little"), stride)[0]
        top = np.uint64((1 << (bits - 64 * (len(q_words) - 1))) - 1)
        L, rows, count = out.shape
        kept = []
        for _ in range(rows):
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
                kept.append(words)
                filled += len(words)
        if kept:    # else out has no entries
            out[...] = words_to_limbs(np.concatenate(kept), width,
                                      L).reshape(L, rows, count)

    def uniforms(self, q: Modulus, count: int) -> list:
        """`count` values exactly uniform on centred Z_q: the limb draw,
        joined and centred."""
        limbs = np.empty((-(-q.q.bit_length() // _JOIN_WIDTH), 1, count),
                         dtype=np.int64)
        self.uniform_limbs(q, _JOIN_WIDTH, limbs)
        return _centred(join_limbs(limbs[:, 0], _JOIN_WIDTH), q)

    def error(self, noise: NoiseParams) -> int:
        while True:
            e = round(self._rng.gauss(0.0, noise.sigma))
            if abs(e) <= noise.bound:
                return int(e)


class SecureRng(_RandomSource):
    """Cryptographically seeded randomness (system entropy)."""

    def __init__(self):
        super().__init__(random.SystemRandom())


class TestRng(_RandomSource):
    """Seedable deterministic randomness; insecure, for tests and replays."""

    def __init__(self, seed: int):
        super().__init__(random.Random(seed))


_KEY_MAGIC = b"COSK"
_CT_MAGIC = b"COCT"


def _pack_ints(values: Sequence[int]) -> bytes:
    """Length-prefixed little-endian magnitude with a sign byte per value."""
    out = [struct.pack("<I", len(values))]
    for v in values:
        mag = abs(v)
        raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "little")
        out.append(struct.pack("<BI", 1 if v < 0 else 0, len(raw)))
        out.append(raw)
    return b"".join(out)


def _unpack_ints(buf: bytes, offset: int) -> Tuple[list, int]:
    """Strict inverse of `_pack_ints`: LweError on truncated input, a sign
    byte other than 0 or 1, a magnitude with leading zero bytes, or -0."""
    if offset + 4 > len(buf):
        raise LweError("truncated integer list")
    (count,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    if 6 * count > len(buf) - offset:
        raise LweError("truncated integer list")
    values = []
    for _ in range(count):
        if offset + 5 > len(buf):
            raise LweError("truncated integer")
        sign, nbytes = struct.unpack_from("<BI", buf, offset)
        offset += 5
        end = offset + nbytes
        if end > len(buf):
            raise LweError("truncated integer")
        mag = int.from_bytes(buf[offset:end], "little")
        if sign > 1 or nbytes != ((mag.bit_length() + 7) // 8 or 1) or (
                sign and not mag):
            raise LweError("non-canonical integer encoding")
        offset = end
        values.append(-mag if sign else mag)
    return values, offset


def _parse_body(buf: bytes, header_len: int):
    """Magic-stripped blob -> (header ints, modulus, payload ints), checking
    that nothing trails the payload and every entry is centred mod q."""
    header, offset = _unpack_ints(buf, 4)
    if len(header) != header_len:
        raise LweError("malformed header")
    try:
        q = Modulus(header[0])
    except PrimalityError as exc:
        raise LweError(f"blob modulus is not a prime: {exc}") from exc
    payload, offset = _unpack_ints(buf, offset)
    if offset != len(buf):
        raise LweError(f"{len(buf) - offset} trailing bytes")
    half = (q.q - 1) // 2
    if not all(-half <= v <= half for v in payload):
        raise LweError("entry outside the centred range of q")
    return header, q, payload


class SecretKey:
    """LWE secret key: an N-vector over centered Z_q.

    `products` computes with the key cut into signed dk-bit digits, cut
    once and kept as a float64 array: dk is what the float64 budget of a
    length-N dot product leaves beside 32-bit half limbs.  `zeroize()`
    overwrites and drops both the stored entries and those digits; callers
    holding the key file are expected to delete it as part of the same
    contract.
    """

    def __init__(self, entries: Sequence[int], q: Modulus):
        self._entries = [q.cmod(int(v)) for v in entries]
        self.q = q
        self._digits = None     # (dk, N x P float64 digits), on first use

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

    def products(self, limbs: np.ndarray, width: int) -> List[int]:
        """The exact integers A sk, one per row, for a matrix A held as the
        (L, rows, N) int64 limb stack A = sum(limbs[k] << (width k)),
        whose limbs may hold any int64 value.

        The `half_limbs` of every limb meet the key's digits in one float64
        product.  Each of its sums has N terms below 2^32 2^dk in absolute
        value, so every partial sum is an integer below 2^53 and the
        product is exact for any summation order or thread split; only the
        sums are joined as Python ints.
        """
        dk, key = self._key_digits()
        L, rows, N = limbs.shape
        if N != key.shape[0]:
            raise DimensionMismatch("matrix and key disagree on N")
        P = key.shape[1]
        sums = (half_limbs(limbs, np.float64).reshape(-1, N) @ key).astype(
            np.int64).reshape(2 * L, rows, P)
        shifts = np.array([32 * h + width * k + dk * p for h in range(2)
                           for k in range(L) for p in range(P)],
                          dtype=object)
        return (sums.transpose(1, 0, 2).reshape(rows, len(shifts)).astype(
            object) << shifts).sum(axis=1).tolist()

    def zeroize(self):
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

    def save(self, path):
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "SecretKey":
        return cls.from_bytes(Path(path).read_bytes())


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
    def from_bytes(cls, buf: bytes) -> "Ciphertext":
        if buf[:4] != _CT_MAGIC:
            raise LweError("not a ciphertext blob")
        (_, n, kind_flag, h), q, flat = _parse_body(buf, 4)
        if kind_flag not in (0, 1) or n < 1 or h < 1:
            raise LweError("malformed ciphertext header")
        kind = CiphertextKind.MODIFIED if kind_flag else CiphertextKind.STANDARD
        width = n + (2 if kind_flag else 1)
        if len(flat) != h * width:
            raise LweError("ciphertext payload size mismatch")
        rows = tuple(tuple(flat[i * width:(i + 1) * width]) for i in range(h))
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
    The randomness A stays the (L, h, N) limb stack of width `width` the
    source drew it into, with entries in [0, q).  The mask, error and A
    are for the trusted encryptor role that derives the cancellation terms;
    they must never leave the encrypting process or be serialized alongside
    the ciphertext.
    """

    first: ModMatrix
    mask: ModMatrix
    error: ModMatrix
    randomness: np.ndarray
    width: int

    @cached_property
    def randomness_matrix(self) -> ModMatrix:
        """A as centred Python ints, joined once, a row at a time."""
        q = self.first.modulus
        return ModMatrix((_centred(join_limbs(limbs, self.width), q)
                          for limbs in self.randomness.transpose(1, 0, 2)),
                         q, ncols=self.randomness.shape[2], _reduced=True)

    def ciphertext(self) -> Ciphertext:
        """The standard ciphertext [m + b, A] as Python ints."""
        A = self.randomness_matrix
        return Ciphertext(body=self.first.hstack(A),
                          kind=CiphertextKind.STANDARD, N=A.ncols)


def encrypt_with_artifacts(m: ModMatrix, sk: SecretKey, noise: NoiseParams,
                           rng, randomness: np.ndarray,
                           width: int) -> Encryption:
    """Encrypt the column m, drawing A straight into the (L, h, N) int64
    array `randomness` as limbs of width `width`."""
    if not m.is_column():
        raise DimensionMismatch("message must be a column vector")
    if m.modulus != sk.q:
        raise LweError("message modulus differs from key modulus")
    if randomness.shape[1:] != (m.nrows, sk.N):
        raise DimensionMismatch("randomness limbs must be h x N")
    rng.uniform_limbs(sk.q, width, randomness)
    e = ModMatrix.column([rng.error(noise) for _ in range(m.nrows)], sk.q)
    b = ModMatrix.column([s + ei for s, (ei,) in
                          zip(sk.products(randomness, width), e.rows)],
                         sk.q)
    return Encryption(first=m + b, mask=b, error=e, randomness=randomness,
                      width=width)


def encrypt(m: ModMatrix, sk: SecretKey, noise: NoiseParams, rng) -> Ciphertext:
    """Standard encryption [m + b, A] mod q."""
    limbs = np.empty((-(-sk.q.q.bit_length() // _JOIN_WIDTH), m.nrows, sk.N),
                     dtype=np.int64)
    return encrypt_with_artifacts(m, sk, noise, rng, limbs,
                                  _JOIN_WIDTH).ciphertext()


def decrypt(ct: Ciphertext, sk: SecretKey) -> ModMatrix:
    """Recover m + e mod q; modified ciphertexts re-sum their extra column."""
    if ct.N != sk.N:
        raise DimensionMismatch("ciphertext and key disagree on N")
    # key entries are centered, and the centered range is symmetric
    key = [1] + [-v for v in sk.entries()]
    if ct.kind is CiphertextKind.MODIFIED:
        key.append(1)
    return ct.body @ ModMatrix(((k,) for k in key), sk.q, ncols=1,
                               _reduced=True)


def ct_add(c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Entrywise sum; decrypts to the sum of the decryptions."""
    if c1.kind is not c2.kind or c1.N != c2.N:
        raise LweError("ciphertext kinds or dimensions differ")
    return Ciphertext(body=c1.body + c2.body, kind=c1.kind, N=c1.N)


def ct_matmul(Kmat: ModMatrix, c: Ciphertext) -> Ciphertext:
    """Left multiplication by a Z_q matrix, evaluated on the body."""
    return Ciphertext(body=Kmat @ c.body, kind=c.kind, N=c.N)
