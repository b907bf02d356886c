"""Closed-form cancellation maps of single-output channels over Z_q.

For a channel (H, F, G) with relative degree nu, the state splits into an
output chain of length nu (the coordinates H F^k x for k < nu) and an
internal part, and the input first reaches the output through
Sigma = H F^(nu-1) G.  Removing the chain part of a column and then, at
each step, the input that drives the chain's bottom keeps the output at
zero; the encrypted observer applies exactly that to its mask
(`encobs.ObserverPublic.cancel_initial` and `cancel_step`, on the
observer's own recursion), so the mask adds nothing to the residue's first
column.

`channel_maps` builds what that cancellation reads in closed form: the chain
rows T2, whose last row H F^(nu-1) reads the chain's bottom, Sigma, V2, and
Sigma's right inverse s e_k, s = Sigma[k]^-1 for Sigma's first nonzero
entry Sigma[k].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .modring import (
    DimensionMismatch,
    ModMatrix,
    inverse_mod,
    pivot_columns,
)

__all__ = [
    "ZeroDynError",
    "RelativeDegreeUndefined",
    "ChannelMaps",
    "channel_maps",
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


@dataclass(frozen=True)
class ChannelMaps:
    """The part of one channel's normal form the encrypted observer uses.

    T2 stacks H, HF, ..., HF^(nu-1); V2 is the last nu columns of the
    inverse of [T1; T2], so V2 T2 projects a state onto its chain part.
    nu is the relative degree: the smallest nu >= 1 with H F^(nu-1) G
    nonzero.
    """

    nu: int
    T2: ModMatrix        # nu x l
    Sigma: ModMatrix     # 1 x h: H F^(nu-1) G
    k: int               # Sigma[k] is Sigma's first nonzero entry
    s: int               # Sigma[k]^-1, so Sigma @ (s e_k) == [[1]]
    V2: ModMatrix        # l x nu


def channel_maps(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix) -> ChannelMaps:
    """Closed-form cancellation maps of the channel (Hj, Fbar, Gbar); raises
    RelativeDegreeUndefined when it has no relative degree.

    T1 (from the basis completion) is the unit rows of the non-pivot
    columns of T2, so with P = T2 restricted to its pivot columns, the
    inverse of [T1; T2] has P^-1 on the pivot rows of its last nu columns
    and zeros on the other rows: V2 needs one nu x nu inverse, not an
    l x l one.
    """
    rows, Sigma = _output_chain(Hj, Fbar, Gbar)
    q = Gbar.modulus
    l, nu = Fbar.nrows, len(rows)
    T2 = ModMatrix._trusted(tuple(r.rows[0] for r in rows), l, q)
    pivots = pivot_columns(T2)
    Pinv = inverse_mod(ModMatrix._trusted(
        tuple(tuple(row[c] for c in pivots) for row in T2.rows), nu, q))
    at = {c: k for k, c in enumerate(pivots)}
    V2 = ModMatrix._trusted(tuple(Pinv.rows[at[i]] if i in at else (0,) * nu
                                  for i in range(l)), nu, q)
    k = next(i for i, a in enumerate(Sigma.rows[0]) if a)
    return ChannelMaps(nu=nu, T2=T2, Sigma=Sigma, k=k,
                       s=q.inv(Sigma.rows[0][k]), V2=V2)
