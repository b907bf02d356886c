"""Quantized observer over Z_q: scaling, the state recursion in exact ints,
residue, the detection criterion and parameter validation.

The observer state lives in the centered range of a large prime q.  All
parameter inequalities are evaluated with exact rational arithmetic so that
pass/fail verdicts do not depend on floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd
from operator import mul
from typing import Optional, Sequence, Tuple

import numpy as np

from .modring import ModMatrix, Modulus
from .obsdesign import ObserverBank, ResidueMaps, round_half_up, calibrate_M

__all__ = [
    "QuantError",
    "QuantParams",
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


@lru_cache(maxsize=None)
def _shift_sources(block_sizes: Tuple[int, ...]) -> Tuple[int, ...]:
    """Fbar z for the block lower shift Fbar as indices into (0,) + z: the
    row above, or the leading 0 at the first row of a block."""
    starts = set(accumulate(block_sizes, initial=0))
    return tuple(0 if i in starts else i for i in range(sum(block_sizes)))


def step_quantized(zbar: ModMatrix, vbar: ModMatrix,
                   block_sizes: Sequence[int], Gbar: ModMatrix) -> ModMatrix:
    """One observer update of the l x 1 state column over Z_q:
    Fbar z + Gbar v in exact ints, reduced once."""
    if (sum(block_sizes) != Gbar.nrows or zbar.nrows != Gbar.nrows
            or vbar.nrows != Gbar.ncols):
        raise QuantError("dimension mismatch in observer update")
    padded = (0,) + zbar.column_entries()
    v = vbar.column_entries()
    return ModMatrix.column(
        [padded[i] + sum(map(mul, row, v))
         for i, row in zip(_shift_sources(tuple(block_sizes)), Gbar.rows)],
        Gbar.modulus)


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
    max_abs = rbar.max_abs()
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
