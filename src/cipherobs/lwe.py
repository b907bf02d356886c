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
bit length of q, values >= q are rejected and redrawn, and the survivors are
centred, so every entry is exactly uniform on Z_q.
"""

from __future__ import annotations

import enum
import random
import struct
from dataclasses import dataclass
from operator import mul
from pathlib import Path
from typing import Sequence, Tuple

from .modring import DimensionMismatch, ModMatrix, Modulus, PrimalityError

__all__ = [
    "LweError",
    "CiphertextKind",
    "NoiseParams",
    "SecureRng",
    "TestRng",
    "SecretKey",
    "Ciphertext",
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


_UNIFORM_CHUNK = 4096


class _RandomSource:
    """Uniform and error draws from an injected `random.Random`."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def uniforms(self, q: Modulus, count: int) -> list:
        """`count` values exactly uniform on centred Z_q, drawn in bulk as
        masked bytes with rejection (never a biased `% q` of a wide draw)."""
        modulus, half = q.q, (q.q - 1) // 2
        bits = modulus.bit_length()
        width, mask = (bits + 7) // 8, (1 << bits) - 1
        from_bytes = int.from_bytes
        out = []
        while len(out) < count:
            need = min(count - len(out), _UNIFORM_CHUNK) * width
            raw = self._rng.randbytes(need)
            out += [v - modulus if v > half else v
                    for i in range(0, need, width)
                    if (v := from_bytes(raw[i:i + width], "little") & mask)
                    < modulus]
        return out

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

    `zeroize()` drops the stored entries; callers holding the key file are
    expected to delete it as part of the same contract.
    """

    def __init__(self, entries: Sequence[int], q: Modulus):
        self._entries = [q.cmod(int(v)) for v in entries]
        self.q = q

    def _live(self) -> list:
        if self._entries is None:
            raise LweError("secret key has been zeroized")
        return self._entries

    @property
    def N(self) -> int:
        return len(self._live())

    def entries(self) -> Tuple[int, ...]:
        return tuple(self._live())

    def zeroize(self):
        if self._entries is not None:
            for i in range(len(self._entries)):
                self._entries[i] = 0
            self._entries = None

    def to_bytes(self) -> bytes:
        return _KEY_MAGIC + _pack_ints([self.q.q, self.N]) + _pack_ints(self.entries())

    @classmethod
    def from_bytes(cls, buf: bytes) -> "SecretKey":
        if buf[:4] != _KEY_MAGIC:
            raise LweError("not a secret key blob")
        (_, n), q, entries = _parse_body(buf, 2)
        if len(entries) != n:
            raise LweError("secret key length mismatch")
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

    def cancel_column(self) -> Tuple[int, ...]:
        if self.kind is not CiphertextKind.MODIFIED:
            raise LweError("standard ciphertexts carry no cancellation column")
        return self.body.column_entries(self.N + 1)

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
        if kind_flag not in (0, 1) or n < 0 or h < 1:
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


def _sample_matrix(h: int, N: int, q: Modulus, rng) -> ModMatrix:
    rows = tuple(tuple(rng.uniforms(q, N)) for _ in range(h))
    return ModMatrix(rows, q, ncols=N, _reduced=True)


def encrypt_with_artifacts(m: ModMatrix, sk: SecretKey, noise: NoiseParams,
                           rng) -> Tuple[Ciphertext, ModMatrix, ModMatrix, ModMatrix]:
    """Encrypt and also return (mask b, error e, randomness A).

    The extra values exist for the trusted encryptor role that derives the
    cancellation terms; they must never leave the encrypting process or be
    serialized alongside the ciphertext.
    """
    if not m.is_column():
        raise DimensionMismatch("message must be a column vector")
    if m.modulus != sk.q:
        raise LweError("message modulus differs from key modulus")
    h = m.nrows
    q = sk.q
    A = _sample_matrix(h, sk.N, q, rng)
    e = ModMatrix.column([rng.error(noise) for _ in range(h)], q)
    key = sk.entries()
    b = ModMatrix.column([sum(map(mul, row, key)) + ei
                          for row, (ei,) in zip(A.rows, e.rows)], q)
    body = (m + b).hstack(A)
    return Ciphertext(body=body, kind=CiphertextKind.STANDARD, N=sk.N), b, e, A


def encrypt(m: ModMatrix, sk: SecretKey, noise: NoiseParams, rng) -> Ciphertext:
    """Standard encryption [m + b, A] mod q."""
    ct, _, _, _ = encrypt_with_artifacts(m, sk, noise, rng)
    return ct


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
