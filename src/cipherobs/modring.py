"""Centered modular arithmetic and exact linear algebra over a prime field.

Everything here works on arbitrary-precision integers reduced to the centered
residue range of a prime modulus q, i.e. the integer interval [-q/2, q/2).
Matrices are immutable after construction and all operations are pure, so
values can be shared freely between threads.

Elimination routines use a fixed pivot rule (first nonzero entry scanning
top-to-bottom, left-to-right) so that pivot columns and inverses are
bit-reproducible across runs.

`words_to_limbs` cuts uint64 words into exact int64 limbs, the form in
which numpy kernels compute over Z_q, and `join_limbs` joins limbs back
into Python ints; `split_limbs` cuts signed ints into such limbs.  Exact dot products of int64
limbs and fixed integers (a key, a map's rows) meet the limbs' 32-bit halves
(`half_limbs`), or differences of halves, which stay below 2^32 too, with
the fixed integers' `fixed_digits`, as narrow as the accumulator's exact
bits allow (`digit_budget`): 63 in int64, 53 in float64, whose BLAS
products are exact for any summation order while every partial sum stays
below 2^53.  Every such product ends in the one join of its sums into
Python ints, `join_digit_sums`.
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import add, itemgetter, mul, sub
from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "ModRingError",
    "PrimalityError",
    "DimensionMismatch",
    "ModulusMismatch",
    "SingularMatrix",
    "Modulus",
    "ModMatrix",
    "MAX_MODULUS_BITS",
    "mat_mul_mod",
    "inverse_mod",
    "words_to_limbs",
    "split_limbs",
    "join_limbs",
    "half_limbs",
    "digit_budget",
    "fixed_digits",
    "join_digit_sums",
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


_MILLER_RABIN_ROUNDS = 64
# The widest modulus a Modulus accepts, checked before Miller-Rabin, whose
# cost grows with the cube of the bit length.  Byte parsers build a Modulus
# for whatever width a blob names: a 600-byte ciphertext carrying the
# Mersenne prime 2^4423 - 1 took about 20 s to test.  1024 bits is about 10
# times the 109-bit benchmark modulus, and a 1024-bit prime tests in about
# 0.3 s.
MAX_MODULUS_BITS = 1024


@lru_cache(maxsize=1024)
def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with _MILLER_RABIN_ROUNDS random bases plus trial division.

    The bases are seeded from n, so the verdict is a pure function of n and
    is cached: parsers build a Modulus for every blob.
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
    for _ in range(_MILLER_RABIN_ROUNDS):
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

    The reduction takes a mod q and subtracts q above q >> 1, so it lands
    in [-(q-1)/2, (q-1)/2]: one `%` per value, equal to the floor formula
    a - floor((a + q/2)/q) q for odd q.  `ModMatrix` reduces by this rule.
    """

    __slots__ = ("q", "_half")

    def __init__(self, q: int):
        if q < 3:
            raise PrimalityError(f"modulus must be >= 3, got {q}")
        if q.bit_length() > MAX_MODULUS_BITS:
            raise PrimalityError(f"modulus has {q.bit_length()} bits, more "
                                 f"than the {MAX_MODULUS_BITS} tested")
        if not _is_probable_prime(q):
            raise PrimalityError(f"modulus {q} failed the primality test")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_half", q >> 1)

    def __setattr__(self, *_):
        raise AttributeError("Modulus is immutable")

    def cmod(self, a: int) -> int:
        a %= self.q
        return a - self.q if a > self._half else a

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


def _reduce_rows(rows, q: int):
    """Convert every entry with int() and reduce it to the centered range."""
    half = q >> 1
    return tuple(
        tuple(a - q if (a := int(x) % q) > half else a for x in row)
        for row in rows
    )


class ModMatrix:
    """Immutable matrix with centered entries in Z_q.

    Rows are stored as tuples of Python ints; dimensions are fixed at
    construction (zero-row and zero-column shapes are allowed, which the
    normal-form machinery needs for degenerate transforms).
    """

    __slots__ = ("rows", "nrows", "ncols", "modulus")

    def __new__(cls, rows: Iterable[Iterable[int]], modulus: Modulus,
                ncols: int | None = None):
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
        return cls._trusted(rows, ncols, modulus)

    @classmethod
    def _trusted(cls, rows: tuple, ncols: int, modulus: Modulus):
        """A matrix of tuple rows of `ncols` reduced ints, unchecked: every
        matrix is made here, by callers that hold such rows too."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "modulus", modulus)
        return self

    def __setattr__(self, *_):
        raise AttributeError("ModMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int, modulus: Modulus) -> "ModMatrix":
        return cls._trusted(((0,) * ncols,) * nrows, ncols, modulus)

    @classmethod
    def identity(cls, n: int, modulus: Modulus) -> "ModMatrix":
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls._trusted(rows, n, modulus)

    @classmethod
    def column(cls, entries: Iterable[int], modulus: Modulus) -> "ModMatrix":
        """`entries` converted with int() and reduced in one list pass."""
        q, half = modulus.q, modulus._half
        return cls._trusted(tuple([(a - q if (a := int(x) % q) > half
                                    else a,) for x in entries]), 1, modulus)

    # -- shape helpers -----------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_column(self) -> bool:
        return self.ncols == 1

    def column_entries(self, j: int = 0):
        return tuple(map(itemgetter(j), self.rows))

    def flat(self):
        return tuple(a for row in self.rows for a in row)

    def row(self, i: int) -> "ModMatrix":
        return self._trusted((self.rows[i],), self.ncols, self.modulus)

    def vstack(self, other: "ModMatrix") -> "ModMatrix":
        self._check_mod(other)
        if self.ncols != other.ncols:
            raise DimensionMismatch("vstack needs equal column counts")
        return self._trusted(self.rows + other.rows, self.ncols, self.modulus)

    # -- arithmetic --------------------------------------------------------

    def _check_mod(self, other: "ModMatrix"):
        if self.modulus != other.modulus:
            raise ModulusMismatch("operands use different moduli")

    def _entrywise(self, other: "ModMatrix", op) -> "ModMatrix":
        self._check_mod(other)
        if self.shape != other.shape:
            raise DimensionMismatch(
                f"{op.__name__} {self.shape} vs {other.shape}")
        return ModMatrix((map(op, ra, rb)
                          for ra, rb in zip(self.rows, other.rows)),
                         self.modulus, ncols=self.ncols)

    def __add__(self, other: "ModMatrix") -> "ModMatrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "ModMatrix") -> "ModMatrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "ModMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "ModMatrix":
        if self.ncols == 1:     # one pass, not a generator per row
            return self.column([c * a for (a,) in self.rows], self.modulus)
        return ModMatrix(((c * a for a in row) for row in self.rows),
                         self.modulus, ncols=self.ncols)

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


def mat_mul_mod(A: ModMatrix, B: ModMatrix) -> ModMatrix:
    """Exact integer product followed by centered reduction."""
    A._check_mod(B)
    if A.ncols != B.nrows:
        raise DimensionMismatch(f"matmul {A.shape} x {B.shape}")
    if A.ncols == 0:
        return ModMatrix.zeros(A.nrows, B.ncols, A.modulus)
    q, half = A.modulus.q, A.modulus._half
    bcols = tuple(zip(*B.rows))
    rows = tuple(tuple(s - q if (s := sum(map(mul, ar, bc)) % q) > half
                       else s for bc in bcols) for ar in A.rows)
    return ModMatrix._trusted(rows, B.ncols, A.modulus)


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


def words_to_limbs(words: np.ndarray, width: int, count: int) -> np.ndarray:
    """The low `width * count` bits of each value of (..., nw) uint64 words
    (least significant word first) cut into `count` fields of `width` bits,
    as a (count, ...) int64 array of values in [0, 2^width).  Every field
    must start inside the words; bits above the top word read as zero.
    1 <= width <= 62."""
    columns = np.ascontiguousarray(words.reshape(-1, words.shape[-1]).T)
    mask = np.uint64((1 << width) - 1)
    out = np.empty((count, columns.shape[1]), dtype=np.int64)
    for k in range(count):
        i, o = divmod(width * k, 64)
        field = columns[i] >> np.uint64(o)
        if o + width > 64 and i + 1 < len(columns):
            field |= columns[i + 1] << np.uint64(64 - o)
        np.bitwise_and(field, mask, out=out[k].view(np.uint64))
    return out.reshape((count,) + words.shape[:-1])


def split_limbs(values: Sequence[int], width: int, count: int) -> np.ndarray:
    """Exact signed base-2^width digits of each value as a (count, n) int64
    array: value == sum(out[k] * 2**(width * k)).

    Lower limbs lie in [0, 2^width) and the top limb in
    [-2^(width-1), 2^(width-1)), so every limb is below 2^width in absolute
    value.  Each value must lie in [-2^(width*count-1), 2^(width*count-1));
    `int.to_bytes` raises OverflowError otherwise.  1 <= width <= 62.
    """
    stride = 8 * -(-width * count // 64)
    buf = b"".join([v.to_bytes(stride, "little", signed=True) for v in values])
    out = words_to_limbs(np.frombuffer(buf, "<u8").reshape(-1, stride // 8),
                         width, count)
    top = out[count - 1]
    top -= (top >> (width - 1)) << width
    return out


def join_limbs(limbs: np.ndarray, width: int) -> List[int]:
    """Exact inverse of `split_limbs` for a (count, n) stack: the Python ints
    sum(limbs[k] * 2**(width * k)).  Limbs may hold any int64 value, or
    any uint64 value, such as words joined at width 64."""
    acc = limbs[-1].tolist()
    for k in range(limbs.shape[0] - 2, -1, -1):
        acc = [(a << width) + b for a, b in zip(acc, limbs[k].tolist())]
    return acc


def half_limbs(values: np.ndarray, dtype) -> np.ndarray:
    """The 32-bit halves of int64 values as a (2,) + values.shape array of
    `dtype`, values == out[0] + (out[1] << 32): the low half in [0, 2^32)
    and the high half signed, in [-2^31, 2^31), both read from a view."""
    halves = values.astype("<i8", copy=False)[..., None].view("<u4")
    out = np.empty((2,) + values.shape, dtype=dtype)
    out[0] = halves[..., 0]
    out[1] = halves[..., 1].view("<i4")
    return out


def digit_budget(n: int, exact: int) -> int:
    """The largest B with n 2^B <= 2^exact.  A sum of n products of a
    half limb and a digit below 2^(B - 32) in absolute value lies strictly
    inside (-2^exact, 2^exact), so an accumulator that holds every integer
    there (exact = 63 for int64, 53 for float64) sums it exactly."""
    return exact - (n - 1).bit_length()


def fixed_digits(values: Sequence[int], bits: int, e: int) -> np.ndarray:
    """Signed base-2^e digits of integers below 2^bits in absolute value,
    each below 2^e in absolute value, as a (P, n) int64 array with values
    == sum(out[p] << (e p)): the values themselves, converted straight to
    int64, when bits <= e, else their `split_limbs` of width e."""
    if bits <= e:
        return np.array(values, dtype=np.int64).reshape(1, -1)
    return split_limbs(values, e, -(-(bits + 1) // e))


def join_digit_sums(sums: np.ndarray, width: int, e: int) -> List[int]:
    """The integers sum(sums[r, h, k, p] << (32 h + width k + e p)), one
    per row r of the (rows, 2, L, P) int64 sums of half h (`half_limbs`)
    of limb k against digit p (`fixed_digits`), as Python ints."""
    rows, _, L, P = sums.shape
    shifts = np.array([32 * h + width * k + e * p for h in range(2)
                       for k in range(L) for p in range(P)], dtype=object)
    return (sums.reshape(rows, shifts.size).astype(object)
            << shifts).sum(axis=1).tolist()
