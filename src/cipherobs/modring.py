"""Centered modular arithmetic and exact linear algebra over a prime field.

Everything here works on arbitrary-precision integers reduced to the centered
residue range of a prime modulus q, i.e. the integer interval [-q/2, q/2).
Matrices are immutable after construction and all operations are pure, so
values can be shared freely between threads.

Elimination routines use a fixed pivot rule (first nonzero entry scanning
top-to-bottom, left-to-right) so that ranks, basis completions and inverses
are bit-reproducible across runs.

`split_limbs` and `join_limbs` convert between Python ints and exact signed
int64 limbs, the form in which numpy kernels compute over Z_q.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "ModRingError",
    "PrimalityError",
    "DimensionMismatch",
    "ModulusMismatch",
    "SingularMatrix",
    "NotFullRowRank",
    "ZeroRow",
    "Modulus",
    "ModMatrix",
    "cmod",
    "mat_mul_mod",
    "inverse_mod",
    "rank_mod",
    "pivot_columns",
    "complete_basis",
    "right_inverse_row",
    "centered_difference_check",
    "split_limbs",
    "join_limbs",
]


class ModRingError(Exception):
    """Base class for errors raised by this module."""


class PrimalityError(ModRingError):
    pass


class DimensionMismatch(ModRingError):
    pass


class ModulusMismatch(ModRingError):
    pass


class SingularMatrix(ModRingError):
    pass


class NotFullRowRank(ModRingError):
    pass


class ZeroRow(ModRingError):
    pass


_MILLER_RABIN_ROUNDS = 64


@lru_cache(maxsize=1024)
def _is_probable_prime(n: int, rounds: int = _MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin with `rounds` random bases (plus small trial division).

    The bases are seeded from n, so the verdict is a pure function of its
    arguments and is cached: parsers build a Modulus for every blob.
    """
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(0x5EED ^ n)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Modulus:
    """A verified prime modulus with centered reduction.

    The reduction maps any integer a to a - floor((a + q/2)/q) * q, which
    lands in [-q/2, q/2).  For odd primes that interval is the symmetric
    range [-(q-1)/2, (q-1)/2].
    """

    __slots__ = ("q", "_twoq", "_max_abs")

    def __init__(self, q: int):
        if q < 3:
            raise PrimalityError(f"modulus must be >= 3, got {q}")
        if not _is_probable_prime(q):
            raise PrimalityError(f"modulus {q} failed the primality test")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_twoq", 2 * q)
        object.__setattr__(self, "_max_abs", (q - 1) // 2)

    def __setattr__(self, *_):
        raise AttributeError("Modulus is immutable")

    @property
    def half(self) -> Fraction:
        """Exact q/2, the (open) upper edge of the centered range."""
        return Fraction(self.q, 2)

    def cmod(self, a: int) -> int:
        q = self.q
        return a - ((2 * a + q) // self._twoq) * q

    def contains(self, a: int) -> bool:
        return -self._max_abs <= a <= self._max_abs

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a in the centered range."""
        a = a % self.q
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.cmod(pow(a, -1, self.q))

    def __eq__(self, other) -> bool:
        return isinstance(other, Modulus) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Modulus", self.q))

    def __repr__(self) -> str:
        return f"Modulus({self.q})"


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _reduce_rows(rows, q: int):
    """Convert every entry with int() and reduce it to the centered range."""
    twoq = 2 * q
    return tuple(
        tuple((a := int(x)) - ((2 * a + q) // twoq) * q for x in row)
        for row in rows
    )


class ModMatrix:
    """Immutable matrix with centered entries in Z_q.

    Rows are stored as tuples of Python ints; dimensions are fixed at
    construction (zero-row and zero-column shapes are allowed, which the
    normal-form machinery needs for degenerate transforms).
    """

    __slots__ = ("rows", "nrows", "ncols", "modulus")

    def __init__(self, rows: Iterable[Iterable[int]], modulus: Modulus,
                 ncols: int | None = None, _reduced: bool = False):
        # Rows built inside the library with _reduced=True already hold
        # centered ints; everything else is converted and reduced here.
        if _reduced:
            rows = tuple(map(tuple, rows))
        else:
            rows = _reduce_rows(rows, modulus.q)
        if rows:
            ncols_found = len(rows[0])
            if any(len(r) != ncols_found for r in rows):
                raise DimensionMismatch("ragged rows")
            if ncols is not None and ncols != ncols_found:
                raise DimensionMismatch("ncols does not match row length")
            ncols = ncols_found
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, *_):
        raise AttributeError("ModMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int, modulus: Modulus) -> "ModMatrix":
        return cls(((0,) * ncols,) * nrows, modulus, ncols=ncols, _reduced=True)

    @classmethod
    def identity(cls, n: int, modulus: Modulus) -> "ModMatrix":
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(rows, modulus, ncols=n, _reduced=True)

    @classmethod
    def column(cls, entries: Iterable[int], modulus: Modulus) -> "ModMatrix":
        return cls(((a,) for a in entries), modulus, ncols=1)

    @classmethod
    def row_vector(cls, entries: Iterable[int], modulus: Modulus) -> "ModMatrix":
        return cls((entries,), modulus)

    # -- shape helpers -----------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_column(self) -> bool:
        return self.ncols == 1

    def column_entries(self, j: int = 0):
        return tuple(r[j] for r in self.rows)

    def flat(self):
        return tuple(a for row in self.rows for a in row)

    def row(self, i: int) -> "ModMatrix":
        return ModMatrix((self.rows[i],), self.modulus,
                         ncols=self.ncols, _reduced=True)

    def submatrix(self, rows: Sequence[int]) -> "ModMatrix":
        return ModMatrix(tuple(self.rows[i] for i in rows), self.modulus,
                         ncols=self.ncols, _reduced=True)

    def hstack(self, other: "ModMatrix") -> "ModMatrix":
        self._check_mod(other)
        if self.nrows != other.nrows:
            raise DimensionMismatch("hstack needs equal row counts")
        rows = tuple(a + b for a, b in zip(self.rows, other.rows))
        return ModMatrix(rows, self.modulus,
                         ncols=self.ncols + other.ncols, _reduced=True)

    def vstack(self, other: "ModMatrix") -> "ModMatrix":
        self._check_mod(other)
        if self.ncols != other.ncols:
            raise DimensionMismatch("vstack needs equal column counts")
        return ModMatrix(self.rows + other.rows, self.modulus,
                         ncols=self.ncols, _reduced=True)

    def transpose(self) -> "ModMatrix":
        return ModMatrix(tuple(zip(*self.rows)), self.modulus,
                         ncols=self.nrows, _reduced=True)

    # -- arithmetic --------------------------------------------------------

    def _check_mod(self, other: "ModMatrix"):
        if self.modulus != other.modulus:
            raise ModulusMismatch("operands use different moduli")

    def __add__(self, other: "ModMatrix") -> "ModMatrix":
        self._check_mod(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} vs {other.shape}")
        q = self.modulus.q
        twoq = 2 * q
        rows = tuple(
            tuple((s := a + b) - ((2 * s + q) // twoq) * q
                  for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return ModMatrix(rows, self.modulus, ncols=self.ncols, _reduced=True)

    def __sub__(self, other: "ModMatrix") -> "ModMatrix":
        self._check_mod(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"sub {self.shape} vs {other.shape}")
        q = self.modulus.q
        twoq = 2 * q
        rows = tuple(
            tuple((s := a - b) - ((2 * s + q) // twoq) * q
                  for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return ModMatrix(rows, self.modulus, ncols=self.ncols, _reduced=True)

    def __neg__(self) -> "ModMatrix":
        q = self.modulus.q
        twoq = 2 * q
        rows = tuple(
            tuple((s := -a) - ((2 * s + q) // twoq) * q for a in row)
            for row in self.rows
        )
        return ModMatrix(rows, self.modulus, ncols=self.ncols, _reduced=True)

    def scale(self, c: int) -> "ModMatrix":
        q = self.modulus.q
        twoq = 2 * q
        rows = tuple(
            tuple((s := c * a) - ((2 * s + q) // twoq) * q for a in row)
            for row in self.rows
        )
        return ModMatrix(rows, self.modulus, ncols=self.ncols, _reduced=True)

    def __matmul__(self, other: "ModMatrix") -> "ModMatrix":
        return mat_mul_mod(self, other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModMatrix) and self.modulus == other.modulus
                and self.shape == other.shape and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols, self.modulus.q))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def max_abs(self) -> int:
        """Largest absolute entry (the vector infinity norm for columns)."""
        return max((abs(a) for row in self.rows for a in row), default=0)

    def inf_norm(self) -> int:
        """Induced infinity norm: maximum absolute row sum."""
        return max((sum(abs(a) for a in row) for row in self.rows), default=0)

    def __repr__(self) -> str:
        return f"ModMatrix({self.nrows}x{self.ncols} mod {self.modulus.q})"


def cmod(a, q: Modulus):
    """Centered reduction of an integer, nested sequence, or ModMatrix."""
    if isinstance(a, ModMatrix):
        if a.modulus != q:
            return ModMatrix(a.rows, q)
        return a
    if isinstance(a, int):
        return q.cmod(a)
    return ModMatrix(a, q)


def mat_mul_mod(A: ModMatrix, B: ModMatrix) -> ModMatrix:
    """Exact integer product followed by centered reduction."""
    A._check_mod(B)
    if A.ncols != B.nrows:
        raise DimensionMismatch(f"matmul {A.shape} x {B.shape}")
    q = A.modulus.q
    if A.ncols == 0:
        return ModMatrix.zeros(A.nrows, B.ncols, A.modulus)
    twoq = 2 * q
    bcols = tuple(zip(*B.rows))
    rows = tuple(
        tuple((s := _dot(ar, bc)) - ((2 * s + q) // twoq) * q for bc in bcols)
        for ar in A.rows
    )
    return ModMatrix(rows, A.modulus, ncols=B.ncols, _reduced=True)


def _echelon(rows, q: int, reduce_up: bool):
    """In-place echelon form over F_q; returns (rows, pivot columns).

    Pivot rule: scan columns left to right, take the first row (top to
    bottom) with a nonzero entry in that column.
    """
    rows = [list(r % q for r in row) for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] % q:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [(x * inv) % q for x in rows[r]]
        lo = 0 if reduce_up else r + 1
        for i in range(lo, nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [(x - f * y) % q for x, y in zip(ri, rr)]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank_mod(A: ModMatrix) -> int:
    """Rank of A over the field Z_q."""
    _, pivots = _echelon(A.rows, A.modulus.q, reduce_up=False)
    return len(pivots)


def inverse_mod(A: ModMatrix) -> ModMatrix:
    """Inverse over Z_q by Gauss-Jordan elimination.

    Raises SingularMatrix when rank(A) < n.
    """
    if A.nrows != A.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = A.nrows
    if n == 0:
        return A
    q = A.modulus.q
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(A.rows)]
    red, pivots = _echelon(aug, q, reduce_up=True)
    if len(pivots) < n or pivots != list(range(n)):
        raise SingularMatrix(f"matrix of rank {len(pivots)} < {n}")
    return ModMatrix(tuple(tuple(row[n:]) for row in red), A.modulus)


def pivot_columns(T2: ModMatrix) -> List[int]:
    """Pivot columns of a full-row-rank T2, ascending: one per row, and T2
    restricted to them is invertible."""
    _, pivots = _echelon(T2.rows, T2.modulus.q, reduce_up=False)
    if len(pivots) < T2.nrows:
        raise NotFullRowRank(
            f"rank {len(pivots)} < {T2.nrows} rows; cannot complete basis")
    return pivots


def complete_basis(T2: ModMatrix) -> ModMatrix:
    """Standard-basis completion of a full-row-rank T2 to a basis of Z_q^l.

    Returns T1 with one row e_i per non-pivot column i of T2, in ascending
    column order, so that [T1; T2] is invertible.
    """
    l = T2.ncols
    pivot_set = set(pivot_columns(T2))
    rows = tuple(
        tuple(1 if j == c else 0 for j in range(l))
        for c in range(l) if c not in pivot_set
    )
    return ModMatrix(rows, T2.modulus, ncols=l, _reduced=True)


def right_inverse_row(sigma: ModMatrix) -> ModMatrix:
    """Right inverse of a nonzero row vector: sigma @ result == [[1]].

    Uses the first nonzero entry, so the result always exists over a field
    (unlike the Moore-Penrose formula, which breaks when sigma @ sigma^T
    vanishes mod q).
    """
    if sigma.nrows != 1:
        raise DimensionMismatch("expected a single-row matrix")
    row = sigma.rows[0]
    for k, a in enumerate(row):
        if a != 0:
            inv = sigma.modulus.inv(a)
            entries = [0] * sigma.ncols
            entries[k] = inv
            return ModMatrix.column(entries, sigma.modulus)
    raise ZeroRow("zero row has no right inverse")


def centered_difference_check(a: int, b: int, mod: Modulus) -> bool:
    """Check the centered-difference property for a, b in the centered range.

    When |a| + |cmod(a - b)| < q/2 the plain difference and the reduced
    difference agree in absolute value.  Returns True when the hypothesis
    held (and the conclusion was verified), False when the hypothesis did
    not apply.
    """
    if not (mod.contains(a) and mod.contains(b)):
        raise ModRingError("inputs must already lie in the centered range")
    red = mod.cmod(a - b)
    if Fraction(abs(a) + abs(red)) >= mod.half:
        return False
    if abs(a - b) != abs(red):
        raise ModRingError(
            f"centered difference property violated for a={a}, b={b}, q={mod.q}")
    return True


# values converted per pass of `split_limbs`; bounds its temporary bytes
_SPLIT_CHUNK = 4096


def split_limbs(values: Sequence[int], width: int, count: int) -> np.ndarray:
    """Exact signed base-2^width digits of each value as a (count, n) int64
    array: value == sum(out[k] * 2**(width * k)).

    Lower limbs lie in [0, 2^width) and the top limb in
    [-2^(width-1), 2^(width-1)), so every limb is below 2^width in absolute
    value.  Each value must lie in [-2^(width*count-1), 2^(width*count-1));
    `int.to_bytes` raises OverflowError otherwise.  1 <= width <= 62.
    """
    nwords = -(-width * count // 64)
    mask = np.uint64((1 << width) - 1)
    out = np.empty((count, len(values)), dtype=np.int64)
    for start in range(0, len(values), _SPLIT_CHUNK):
        part = values[start:start + _SPLIT_CHUNK]
        buf = b"".join([v.to_bytes(8 * nwords, "little", signed=True)
                        for v in part])
        words = np.frombuffer(buf, dtype="<u8").reshape(len(part), nwords)
        for k in range(count):
            i, o = divmod(width * k, 64)
            field = words[:, i] >> np.uint64(o)
            if o + width > 64:
                field |= words[:, i + 1] << np.uint64(64 - o)
            out[k, start:start + len(part)] = (field & mask).view(np.int64)
    top = out[count - 1]
    top -= (top >> (width - 1)) << width
    return out


def join_limbs(limbs: np.ndarray, width: int) -> List[int]:
    """Exact inverse of `split_limbs` for a (count, n) stack: the Python ints
    sum(limbs[k] * 2**(width * k)).  Limbs may hold any int64 value."""
    acc = limbs[-1].tolist()
    for k in range(limbs.shape[0] - 2, -1, -1):
        acc = [(a << width) + b for a, b in zip(acc, limbs[k].tolist())]
    return acc
