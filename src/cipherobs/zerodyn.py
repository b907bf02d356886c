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

`all_channel_maps` builds what that cancellation reads, for every row of
the residue map at once, in closed form: the chain rows T2, whose last row
H F^(nu-1) reads the chain's bottom, Sigma, V2, and Sigma's right inverse
s e_k, s = Sigma[k]^-1 for Sigma's first nonzero entry Sigma[k].
`channel_maps` is its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .modring import DimensionMismatch, ModMatrix, _echelon

__all__ = [
    "ZeroDynError",
    "RelativeDegreeUndefined",
    "ChannelMaps",
    "all_channel_maps",
    "channel_maps",
]


class ZeroDynError(Exception):
    pass


class RelativeDegreeUndefined(ZeroDynError):
    """Raised when every Markov parameter of the channel vanishes."""


def _output_chains(H: ModMatrix, Fbar: ModMatrix,
                   Gbar: ModMatrix) -> Tuple[List[list], List[tuple]]:
    """Per row H_j of H, the rows H_j F^k for k < nu_j and the first
    nonzero Markov parameter Sigma_j = H_j F^(nu_j - 1) G, taken with one
    product per depth over the rows whose depth is still unknown.

    The search stops at the state dimension: by Cayley-Hamilton, once the
    first l Markov parameters vanish they vanish forever.
    """
    chains, sigmas = [[row] for row in H.rows], [None] * H.nrows
    todo, rows = list(range(H.nrows)), H
    for _ in range(Fbar.nrows):
        for j, sigma in zip(todo, (rows @ Gbar).rows):
            sigmas[j] = sigma if any(sigma) else None
        todo = [j for j in todo if sigmas[j] is None]
        if not todo:
            return chains, sigmas
        rows = ModMatrix._trusted(tuple(chains[j][-1] for j in todo),
                                  H.ncols, H.modulus) @ Fbar
        for j, row in zip(todo, rows.rows):
            chains[j].append(row)
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


def all_channel_maps(H: ModMatrix, Fbar: ModMatrix,
                     Gbar: ModMatrix) -> Tuple[ChannelMaps, ...]:
    """Closed-form cancellation maps of the channels (H_j, Fbar, Gbar), one
    per row H_j of H; raises RelativeDegreeUndefined when a row has no
    relative degree.

    T1 (from the basis completion) is the unit rows of the non-pivot
    columns of T2, so with P = T2 restricted to its pivot columns, the
    inverse of [T1; T2] has P^-1 on the pivot rows of its last nu columns
    and zeros on the other rows: V2 needs one nu x nu inverse, not an
    l x l one.  One elimination of [T2 | I] gives both: a relative degree
    makes T2's rows independent, so every pivot lies in T2, and the right
    half E of the result has E T2 = its left half, so E P = I.
    """
    q, l = Gbar.modulus, Fbar.nrows
    out = []
    for rows, sigma in zip(*_output_chains(H, Fbar, Gbar)):
        nu = len(rows)
        reduced, pivots = _echelon(
            [row + (0,) * i + (1,) + (0,) * (nu - 1 - i)
             for i, row in enumerate(rows)], q.q, reduce_up=True)
        Pinv = ModMatrix((row[l:] for row in reduced), q, ncols=nu).rows
        at = dict(zip(pivots, Pinv))
        k = next(i for i, a in enumerate(sigma) if a)
        out.append(ChannelMaps(
            nu=nu, T2=ModMatrix._trusted(tuple(rows), l, q),
            Sigma=ModMatrix._trusted((sigma,), len(sigma), q), k=k,
            s=q.inv(sigma[k]), V2=ModMatrix._trusted(tuple(
                at.get(i, (0,) * nu) for i in range(l)), nu, q)))
    return tuple(out)


def channel_maps(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix) -> ChannelMaps:
    """`all_channel_maps` of the single row Hj."""
    if Hj.nrows != 1:
        raise DimensionMismatch("channel output map must be a single row")
    return all_channel_maps(Hj, Fbar, Gbar)[0]
