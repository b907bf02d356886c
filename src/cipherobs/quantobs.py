"""Quantized observer over Z_q: scaling, the state recursion in exact ints,
residue, the detection criterion and parameter validation.

The observer state lives in the centered range of a large prime q.  All
parameter inequalities are evaluated with exact rational arithmetic so that
pass/fail verdicts do not depend on floating-point rounding.

The observer recursion `Z' = Fbar Z + Gbar V` has one owner, the
`BlockGain` that `ModularMaps.gain` builds: `step_quantized` steps it on one
column of Python ints, the encrypted observer on its int64 limbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .modring import ModMatrix, Modulus, join_limbs, words_to_limbs
from .obsdesign import ObserverBank, ResidueMaps, round_half_up, calibrate_M

__all__ = [
    "QuantError",
    "QuantParams",
    "BlockGain",
    "ModularMaps",
    "quantize_initial",
    "quantize_input",
    "step_quantized",
    "residue_quantized",
    "threshold_at",
    "detect",
    "DetectResult",
    "validate_params",
    "ParamReport",
    "BoundCheck",
    "make_params",
]


class QuantError(Exception):
    pass


@dataclass(frozen=True)
class QuantParams:
    """Scales, modulus and the synthesis constants entering the bounds.

    kappa / init_error / signal_bound are the largest pseudo-inverse gain,
    the worst per-sensor initial estimation error, and the attack-free
    supremum of the observer signals; kappa_spectral is the same gain in
    the 2-norm, used only by the calibrated lift bound.
    """

    s1: float
    s2: float
    lift: int
    q: Modulus
    N: int
    Delta: float
    eps: float
    kappa: float
    kappa_spectral: float
    init_error: float
    signal_bound: float
    l_max: int
    l_total: int

    @property
    def resolution(self) -> float:
        """Plaintext value represented by one integer step: s1^2 * s2."""
        return self.s1 * self.s1 * self.s2

    @cached_property
    def lift_inverse(self) -> Optional[int]:
        """lift^-1 mod q, computed once; None if lift shares a factor."""
        return self.q.inv(self.lift) if gcd(self.lift, self.q.q) == 1 else None


@dataclass(frozen=True)
class BlockGain:
    """Z' = Fbar Z + Gbar V over Z_q: Fbar as the block starts of the lower
    shift, Gbar as its `ModMatrix` of centred entries.

    It is the only code that steps the recursion, in two forms.  `step_ints`
    steps one column of Python ints on Gbar's nonzero entries alone (48 of
    144 on the benchmark), so quantized mode takes any Gbar and never
    builds `G` or a limb width.  `step` steps int64 limb stacks, which only
    `cut` makes, of words in [0, q), and `join` reads back: an entry x is
    held as `count` limbs of `width` W, x = sum_k limb_k 2^(W k) (mod q).

    Fbar is nilpotent, so every state entry is a sum of at most b = `depth`
    Gbar V terms plus one initial entry.  With input limbs in [0, 2^W),
    as `cut` makes them, every state limb therefore stays within
    (b ||Gbar||_inf + 1) 2^W for any number of steps.  W is the largest
    width that keeps this bound under 2^63, so the recursion never carries
    between limbs or reduces; values are reduced mod q only when joined.
    This holds for every q.  numpy's int64 `G @ V` sums in its own loop, not
    BLAS, and wraps silently, so its partial sums need the bound too: each
    is bounded by the sum of its terms' absolute values, at most
    ||Gbar||_inf 2^W, in any summation order, and so is each entry of the
    cancellation's outer product (`encobs.ObserverPublic.cancel_step`).
    """

    starts: Tuple[int, ...]
    depth: int          # b, the largest block size: Fbar^b = 0
    Gbar: ModMatrix

    @classmethod
    def build(cls, block_sizes: Sequence[int], Gbar: ModMatrix) -> "BlockGain":
        if sum(block_sizes) != Gbar.nrows:
            raise QuantError("block sizes do not cover the observer state")
        return cls(starts=tuple(accumulate(block_sizes, initial=0))[:-1],
                   depth=max(block_sizes, default=0), Gbar=Gbar)

    @cached_property
    def width(self) -> int:
        """W, the largest limb width that keeps every limb under 2^63."""
        growth = self.depth * self.Gbar.inf_norm() + 1
        if growth.bit_length() > 62:
            raise QuantError(
                f"no int64 limb width fits Gbar (infinity norm "
                f"{self.Gbar.inf_norm()}, largest block {self.depth})")
        return 63 - growth.bit_length()

    @cached_property
    def count(self) -> int:
        """L = ceil(q.bit_length() / W), the limbs of one entry."""
        return -(-self.Gbar.modulus.q.bit_length() // self.width)

    @cached_property
    def G(self) -> np.ndarray:
        """Gbar as one dense read-only (l, h) int64 array, once a limb
        `width` fits Gbar.

        Every limb product is narrow, 1 + n_ch columns in the cloud and
        1 column for the encryptor's message, so one `G @ V` per step costs
        less than a pass over Gbar's nonzero spans, though most of Gbar is
        zero.
        """
        self.width  # QuantError when no limb width fits
        G = np.array(self.Gbar.rows, dtype=np.int64).reshape(self.Gbar.shape)
        G.setflags(write=False)
        return G

    def cut(self, words: np.ndarray) -> np.ndarray:
        """Limbs (L, ...) of (..., nw) words in [0, q), each in [0, 2^W)."""
        return words_to_limbs(words, self.width, self.count)

    def join(self, limbs: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
        """Rows of Python ints congruent mod q to the matrix a limb stack
        (L, rows, cols) holds; not reduced, so reduce before comparing."""
        _, nrows, ncols = limbs.shape
        flat = join_limbs(limbs.reshape(self.count, -1), self.width)
        return tuple(tuple(flat[i * ncols:(i + 1) * ncols])
                     for i in range(nrows))

    @cached_property
    def Fbar(self) -> ModMatrix:
        """The block lower shift as an explicit l x l Z_q matrix."""
        l, starts = self.Gbar.nrows, set(self.starts)
        return ModMatrix._trusted(tuple(
            tuple(int(c == i - 1 and i not in starts) for c in range(l))
            for i in range(l)), l, self.Gbar.modulus)

    def shift(self, Z: np.ndarray) -> np.ndarray:
        """Fbar Z on a limb stack (L, l, w), as a new stack."""
        out = np.empty_like(Z)
        out[:, 1:] = Z[:, :-1]
        out[:, list(self.starts)] = 0
        return out

    def step(self, Z: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Fbar Z + Gbar V on limb stacks, Z (L, l, w) and V (L, h, w): the
        row shift inside each block, then one `G @ V`, identical limb by limb
        to a dense product.  Limbs are added without carry or reduction.
        Every column runs the same recursion, so one call steps every
        channel."""
        if (Z.shape[0] != V.shape[0] or Z.shape[2] != V.shape[2]
                or self.G.shape != (Z.shape[1], V.shape[1])):
            raise QuantError("dimension mismatch in observer update")
        out = self.shift(Z)
        out += self.G @ V
        return out

    @cached_property
    def _entries(self) -> Tuple[Tuple[int, int, int], ...]:
        """Gbar's nonzero entries as (row, column, coefficient)."""
        return tuple((i, k, g) for i, row in enumerate(self.Gbar.rows)
                     for k, g in enumerate(row) if g)

    def step_ints(self, z: Sequence[int], v: Sequence[int]) -> List[int]:
        """Fbar z + Gbar v for columns of Python ints, not reduced."""
        out = [0, *z[:-1]]
        for i in self.starts:
            out[i] = 0
        for i, k, g in self._entries:
            out[i] += g * v[k]
        return out


@dataclass(frozen=True)
class ModularMaps:
    """Integer observer maps wrapped into Z_q matrices."""

    Gbar: ModMatrix
    Hbar: ModMatrix
    PhiPinvBar: ModMatrix
    block_sizes: Tuple[int, ...]

    @classmethod
    def from_integer(cls, maps: ResidueMaps, bank: ObserverBank,
                     q: Modulus) -> "ModularMaps":
        return cls(
            Gbar=ModMatrix(maps.Gbar, q),
            Hbar=ModMatrix(maps.Hbar, q),
            PhiPinvBar=ModMatrix(maps.PhiPinvBar, q),
            block_sizes=bank.block_sizes,
        )

    @cached_property
    def gain(self) -> BlockGain:
        """The observer recursion of these maps, built once."""
        return BlockGain.build(self.block_sizes, self.Gbar)


def quantize_initial(zhat_ini: Sequence[float], params: QuantParams) -> ModMatrix:
    """Scale the observer initial value by 1/(s1 s2), round, and reduce."""
    scale = params.s1 * params.s2
    entries = [round_half_up(float(v) / scale) for v in np.ravel(zhat_ini)]
    return ModMatrix.column(entries, params.q)


def quantize_input(u: Sequence[float], y: Sequence[float],
                   params: QuantParams) -> ModMatrix:
    """Scale the stacked input [u; y] by 1/s2, round, and reduce."""
    stacked = list(np.ravel(u)) + list(np.ravel(y))
    entries = [round_half_up(float(v) / params.s2) for v in stacked]
    return ModMatrix.column(entries, params.q)


def step_quantized(zbar: ModMatrix, vbar: ModMatrix,
                   gain: BlockGain) -> ModMatrix:
    """One observer update of the l x 1 state column over Z_q:
    Fbar z + Gbar v in exact ints, reduced once."""
    if zbar.nrows != gain.Gbar.nrows or vbar.nrows != gain.Gbar.ncols:
        raise QuantError("dimension mismatch in observer update")
    return ModMatrix.column(
        gain.step_ints(zbar.column_entries(), vbar.column_entries()),
        gain.Gbar.modulus)


def residue_quantized(zbar: ModMatrix, Hbar: ModMatrix) -> ModMatrix:
    """Stacked subset-vs-full estimate differences of the state column zbar,
    reduced to Z_q."""
    return Hbar @ zbar


@dataclass(frozen=True)
class DetectResult:
    flag: bool
    lhs: float
    threshold: float


def threshold_at(params: QuantParams, t: int, number=float):
    """Residue threshold at step t, computed in `number` arithmetic
    (`Fraction` gives the exact value of the float parameters).

    It keeps a transient allowance of 2 * kappa * init_error while the
    deadbeat observer is still flushing (t < l_max) and drops to eps
    afterwards.
    """
    threshold = number(params.eps)
    if t < params.l_max:
        threshold += 2 * number(params.kappa) * number(params.init_error)
    return threshold


@lru_cache(maxsize=1024)
def _flag_cutoff(params: QuantParams, t: int) -> int:
    """Largest max|r| that does not flag at step t: the threshold over
    s1^2 s2, both exact rationals of the float parameters, rounded down."""
    resolution = Fraction(params.s1) ** 2 * Fraction(params.s2)
    return threshold_at(params, t, Fraction) // resolution


def detect(rbar: ModMatrix, t: int, params: QuantParams) -> DetectResult:
    """Attack test: flag when the scaled residue norm exceeds the threshold
    at step t.  Equality does not flag; only strict violation does.

    The verdict is exact: s1^2 s2 max|r| is compared with the threshold in
    rational arithmetic over the float parameters.  `lhs` and `threshold`
    report the same comparison in floats.
    """
    max_abs = max(map(abs, rbar.column_entries()), default=0)
    # the threshold changes only at l_max, so later steps share one cutoff
    flag = max_abs > _flag_cutoff(params, min(t, params.l_max))
    return DetectResult(flag=flag, lhs=params.resolution * max_abs,
                        threshold=threshold_at(params, t))


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: Fraction
    rhs: Fraction
    passed: bool

    @property
    def margin(self) -> float:
        """lhs / rhs; > 1 means the strict inequality holds with slack."""
        if self.rhs == 0:
            return float("inf")
        return float(Fraction(self.lhs, self.rhs))


@dataclass(frozen=True)
class ParamReport:
    modulus_bound: BoundCheck          # q vs overflow bound
    lift_bound: BoundCheck             # lift vs calibrated noise budget
    lift_bound_strict: BoundCheck      # lift vs worst-case noise budget
    modulus_lift_bound: BoundCheck     # q vs lift * (overflow bound + 1/2)
    lift_coprime: bool
    gbar_norm: int

    @property
    def all_pass(self) -> bool:
        return (self.modulus_bound.passed and self.lift_bound.passed
                and self.modulus_lift_bound.passed and self.lift_coprime)

    def lines(self):
        out = []
        for chk in (self.modulus_bound, self.lift_bound,
                    self.lift_bound_strict, self.modulus_lift_bound):
            verdict = "pass" if chk.passed else "FAIL"
            out.append(f"{chk.name}: {verdict} (margin {chk.margin:.4g})")
        out.append("lift coprime to q: " + ("yes" if self.lift_coprime else "NO"))
        out.append(f"gbar inf norm: {self.gbar_norm}")
        return out


def _overflow_rhs(params: QuantParams, kappa: Fraction) -> Fraction:
    s1 = Fraction(params.s1)
    s2 = Fraction(params.s2)
    M = Fraction(params.signal_bound)
    zt = Fraction(params.init_error)
    eps = Fraction(params.eps)
    return 2 * (kappa * (M + 2 * zt) + 2 * eps) / (s1 * s1 * s2)


def _lift_rhs(params: QuantParams, kappa: Fraction, noise: Fraction,
              gbar_norm: int) -> Fraction:
    s1 = Fraction(params.s1)
    return (2 * (kappa / s1 + Fraction(params.l_total, 2))
            * (1 + params.l_max * gbar_norm) * noise)


def validate_params(params: QuantParams,
                    Gbar: Sequence[Sequence[int]]) -> ParamReport:
    """Exact rational evaluation of the three parameter inequalities for
    the integer gain rows `ResidueMaps.Gbar`.

    The modulus bounds use the worst-case pseudo-inverse gain (infinity
    norm).  The lift bound is reported twice: the strict worst-case form
    (infinity-norm gain, full error bound) is informational, while the
    calibrated form (spectral gain, one-sigma error scale) is the one the
    benchmark parameters were selected against and the one that gates runs.
    """
    gnorm = max(sum(abs(a) for a in row) for row in Gbar)
    kappa_inf = Fraction(params.kappa)
    kappa_2 = Fraction(params.kappa_spectral)
    delta = Fraction(params.Delta)
    sigma = delta / 6

    q = Fraction(params.q.q)
    lift = Fraction(params.lift)

    overflow = _overflow_rhs(params, kappa_inf)
    chk_q = BoundCheck("modulus overflow bound", q, overflow, q > overflow)

    strict_rhs = _lift_rhs(params, kappa_inf, delta, gnorm)
    chk_lift_strict = BoundCheck("lift noise budget (worst case)",
                                 lift, strict_rhs, lift > strict_rhs)
    calib_rhs = _lift_rhs(params, kappa_2, sigma, gnorm)
    chk_lift = BoundCheck("lift noise budget (calibrated)",
                          lift, calib_rhs, lift > calib_rhs)

    combined = lift * (overflow + Fraction(1, 2))
    chk_ql = BoundCheck("modulus-lift bound", q, combined, q > combined)

    return ParamReport(
        modulus_bound=chk_q,
        lift_bound=chk_lift,
        lift_bound_strict=chk_lift_strict,
        modulus_lift_bound=chk_ql,
        lift_coprime=params.lift_inverse is not None,
        gbar_norm=int(gnorm),
    )


def make_params(bank: ObserverBank, *, s1: float, s2: float, lift: int,
                q: Modulus, N: int, Delta: float, eps: float) -> QuantParams:
    """Fill a QuantParams from a bank for an observer started at zhat = 0.

    The signal bound is calibrated over 10 l_max attack-free steps, and the
    initial estimation error is computed exactly from the known plant
    initial state.
    """
    zhat_ini = np.zeros(bank.l_total)
    return QuantParams(
        s1=s1, s2=s2, lift=lift, q=q, N=N, Delta=Delta, eps=eps,
        kappa=bank.kappa, kappa_spectral=bank.kappa_spectral,
        init_error=bank.ztilde_ini(bank.model.x_ini, zhat_ini),
        signal_bound=calibrate_M(bank, bank.model, 10 * bank.l_max),
        l_max=bank.l_max, l_total=bank.l_total,
    )
