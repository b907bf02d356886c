"""Zero-dynamics machinery for single-output channels over Z_q.

For a channel (H, F, G) with relative degree nu, the state splits into an
output chain of length nu and an internal part.  Holding the output at zero
pins the chain and leaves the internal part evolving autonomously (the
zero-dynamics).  From that recursion one can compute, for any initial
condition and input sequence, exactly which portions must be subtracted so
the channel output vanishes identically; the encrypted observer uses those
cancellation terms to null the masking contribution of its residue.

`channel_maps` is what a deployment builds: the chain rows, H F^nu, Sigma,
its right inverse and V2, all in closed form.  `build_transform` completes
them to the full normal form, which the tests and `cipherobs verify` use as
the oracle for the encrypted observer's cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .modring import (
    DimensionMismatch,
    ModMatrix,
    Modulus,
    inverse_mod,
    pivot_columns,
    right_inverse_row,
)

__all__ = [
    "ZeroDynError",
    "RelativeDegreeUndefined",
    "ChannelMaps",
    "ChannelTransform",
    "CancellationState",
    "relative_degree",
    "channel_maps",
    "build_transform",
    "simulate_channel",
    "cancellation_init",
    "cancellation_step",
]


class ZeroDynError(Exception):
    pass


class RelativeDegreeUndefined(ZeroDynError):
    """Raised when every Markov parameter of the channel vanishes."""


def _output_chain(Hj: ModMatrix, Fbar: ModMatrix,
                  Gbar: ModMatrix) -> Tuple[List[ModMatrix], ModMatrix]:
    """The rows H F^k for k < nu and the first nonzero Markov parameter
    Sigma = H F^(nu-1) G.

    The search stops at the state dimension: by Cayley-Hamilton, once the
    first l Markov parameters vanish they vanish forever.
    """
    if Hj.nrows != 1:
        raise DimensionMismatch("channel output map must be a single row")
    rows = [Hj]
    for _ in range(Fbar.nrows):
        sigma = rows[-1] @ Gbar
        if not sigma.is_zero():
            return rows, sigma
        rows.append(rows[-1] @ Fbar)
    raise RelativeDegreeUndefined(
        "all Markov parameters vanish; the channel never sees the input")


def relative_degree(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix,
                    q: Modulus | None = None) -> int:
    """Smallest nu >= 1 with H F^(nu-1) G nonzero and all earlier ones zero."""
    return len(_output_chain(Hj, Fbar, Gbar)[0])


@dataclass(frozen=True)
class ChannelMaps:
    """The part of one channel's normal form the encrypted observer uses.

    T2 stacks H, HF, ..., HF^(nu-1); V2 is the last nu columns of the
    inverse of [T1; T2], so V2 T2 projects a state onto its chain part.
    """

    j: int
    nu: int
    T2: ModMatrix        # nu x l
    HFnu: ModMatrix      # 1 x l: H F^nu
    Sigma: ModMatrix     # 1 x h: H F^(nu-1) G
    SigmaDag: ModMatrix  # h x 1, Sigma @ SigmaDag == [[1]]
    V2: ModMatrix        # l x nu


def _maps_and_pivots(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix,
                     j: int) -> Tuple[ChannelMaps, List[int]]:
    """Channel maps plus the pivot columns of T2.

    T1 (from the basis completion) is the unit rows of the non-pivot
    columns, so with P = T2 restricted to the pivot columns, the inverse of
    [T1; T2] has P^-1 on the pivot rows of its last nu columns and zeros on
    the other rows: V2 needs one nu x nu inverse, not an l x l one.
    """
    rows, Sigma = _output_chain(Hj, Fbar, Gbar)
    q = Gbar.modulus
    l, nu = Fbar.nrows, len(rows)
    T2 = ModMatrix(tuple(r.rows[0] for r in rows), q, ncols=l, _reduced=True)
    pivots = pivot_columns(T2)
    Pinv = inverse_mod(ModMatrix(tuple(tuple(row[c] for c in pivots)
                                       for row in T2.rows), q, ncols=nu,
                                 _reduced=True))
    at = {c: k for k, c in enumerate(pivots)}
    V2 = ModMatrix(tuple(Pinv.rows[at[i]] if i in at else (0,) * nu
                         for i in range(l)), q, ncols=nu, _reduced=True)
    maps = ChannelMaps(j=j, nu=nu, T2=T2, HFnu=rows[-1] @ Fbar, Sigma=Sigma,
                       SigmaDag=right_inverse_row(Sigma), V2=V2)
    return maps, pivots


def channel_maps(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix,
                 j: int = 0) -> ChannelMaps:
    """Closed-form cancellation maps of channel j; requires a defined
    relative degree."""
    return _maps_and_pivots(Hj, Fbar, Gbar, j)[0]


@dataclass(frozen=True)
class CancellationState:
    """Zero-dynamics state of one channel's mask cancellation."""

    j: int
    b_xi: ModMatrix  # (l - nu) x 1
    step: int


@dataclass(frozen=True)
class ChannelTransform:
    """Per-channel normal-form data over Z_q.

    T2 stacks H, HF, ..., HF^(nu-1); T1 completes it to a basis, and
    [V1, V2] is the inverse of the stacked transform.  The S/Psi/Gamma/Sigma
    blocks are the normal-form coefficients, SigmaDag a right inverse of
    Sigma, and S the zero-dynamics state matrix S1 - S3 SigmaDag Psi.
    """

    j: int
    nu: int
    T1: ModMatrix
    T2: ModMatrix
    V1: ModMatrix
    V2: ModMatrix
    S1: ModMatrix
    S2: ModMatrix
    S3: ModMatrix
    Psi: ModMatrix
    Gamma: ModMatrix
    Sigma: ModMatrix
    SigmaDag: ModMatrix
    S: ModMatrix
    input_projector: ModMatrix  # I - SigmaDag Sigma

    @property
    def l(self) -> int:
        return self.T2.ncols

    def initial_state(self, b_ini: ModMatrix) -> CancellationState:
        return CancellationState(j=self.j, b_xi=self.T1 @ b_ini, step=0)


def build_transform(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix,
                    q: Modulus | None = None, j: int = 0) -> ChannelTransform:
    """Construct the channel transform; requires a defined relative degree.

    Starts from `channel_maps`.  T1 is the unit rows of the non-pivot
    columns of T2 and V1 the same columns of I - V2 T2, so [V1, V2] inverts
    [T1; T2] without an elimination.
    """
    m, pivots = _maps_and_pivots(Hj, Fbar, Gbar, j)
    q = Gbar.modulus
    l, nu = Fbar.nrows, m.nu
    free = [c for c in range(l) if c not in pivots]
    eye = ModMatrix.identity(l, q)
    T1 = eye.submatrix(free)
    V1 = ModMatrix(tuple(tuple(row[c] for c in free)
                         for row in (eye - m.V2 @ m.T2).rows),
                   q, ncols=l - nu, _reduced=True)
    T1F = T1 @ Fbar
    S1 = T1F @ V1
    S3 = T1 @ Gbar
    Psi = m.HFnu @ V1
    return ChannelTransform(
        j=j, nu=nu, T1=T1, T2=m.T2, V1=V1, V2=m.V2, S1=S1, S2=T1F @ m.V2,
        S3=S3, Psi=Psi, Gamma=m.HFnu @ m.V2, Sigma=m.Sigma,
        SigmaDag=m.SigmaDag, S=S1 - S3 @ m.SigmaDag @ Psi,
        input_projector=(ModMatrix.identity(Gbar.ncols, q)
                         - m.SigmaDag @ m.Sigma),
    )


def simulate_channel(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix,
                     b_ini: ModMatrix,
                     b_v: Sequence[ModMatrix]) -> List[int]:
    """Reference channel simulation; returns the output at steps 0..len(b_v).

    Used as the independent oracle for every zero-dynamics test.
    """
    state = b_ini
    outputs = [(Hj @ state).rows[0][0]]
    for v in b_v:
        state = Fbar @ state + Gbar @ v
        outputs.append((Hj @ state).rows[0][0])
    return outputs


def cancellation_init(ct: ChannelTransform,
                      b_ini: ModMatrix) -> Tuple[ModMatrix, CancellationState]:
    """Initial cancellation: the chain part of b_ini plus the starting
    zero-dynamics state."""
    if not b_ini.is_column() or b_ini.nrows != ct.l:
        raise DimensionMismatch(f"b_ini must be a {ct.l}-vector column")
    return ct.T2 @ b_ini, ct.initial_state(b_ini)


def cancellation_step(ct: ChannelTransform, state: CancellationState,
                      b_v: ModMatrix) -> Tuple[int, CancellationState]:
    """One cancellation update.

    Emits the scalar input-cancellation term for the current step and
    advances the zero-dynamics state driven by the same input.
    """
    if not b_v.is_column() or b_v.nrows != ct.Sigma.ncols:
        raise DimensionMismatch("input vector has wrong length")
    tilde = (ct.Sigma @ b_v + ct.Psi @ state.b_xi).rows[0][0]
    nxt = ct.S @ state.b_xi + ct.S3 @ (ct.input_projector @ b_v)
    return tilde, CancellationState(j=state.j, b_xi=nxt, step=state.step + 1)
