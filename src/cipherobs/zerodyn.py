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

from .modring import DimensionMismatch, ModMatrix

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


def _chain_inverse(rows, q: int):
    """Pivot columns of independent rows T2 over F_q and P^-1 centred, P = T2
    on them, as `modring._echelon([T2 | I], q, reduce_up=True)` gives them:
    Gauss-Jordan under its pivot rule, updating T2 only right of a pivot and
    while a later one reads it (nu = 1: one scan, one inverse)."""
    nu, l, half = len(rows), len(rows[0]), q >> 1
    rows, pivots, c = [list(row) for row in rows], [], -1
    inv = [[int(i == k) for k in range(nu)] for i in range(nu)]
    for r in range(nu):
        c, i = next((d, i) for d in range(c + 1, l) for i in range(r, nu)
                    if rows[i][d])      # reduced entries: nonzero mod q
        rows[r], rows[i], inv[r], inv[i] = rows[i], rows[r], inv[i], inv[r]
        s, tail = pow(rows[r][c], -1, q), slice(c + 1, l if r + 1 < nu else 0)
        inv[r] = [a * s % q for a in inv[r]]
        rows[r][tail] = [a * s % q for a in rows[r][tail]]
        for j in range(nu):
            if j != r and (f := rows[j][c]):
                inv[j] = [(a - f * b) % q for a, b in zip(inv[j], inv[r])]
                rows[j][tail] = [(a - f * b) % q for a, b
                                 in zip(rows[j][tail], rows[r][tail])]
        pivots.append(c)
    return pivots, [tuple(a - q if a > half else a for a in v) for v in inv]


def all_channel_maps(H: ModMatrix, Fbar: ModMatrix,
                     Gbar: ModMatrix) -> Tuple[ChannelMaps, ...]:
    """Closed-form cancellation maps of the channels (H_j, Fbar, Gbar), one
    per row H_j of H; raises RelativeDegreeUndefined when a row has no
    relative degree.

    T1 (from the basis completion) is the unit rows of the non-pivot
    columns of T2, so with P = T2 on its pivot columns, [T1; T2]^-1 has
    P^-1 on the pivot rows of its last nu columns and zeros elsewhere: V2
    needs one nu x nu inverse (`_chain_inverse`), whose pivots all lie in
    T2, as a relative degree makes T2's rows independent.
    """
    q, l, out = Gbar.modulus, Fbar.nrows, []
    for rows, sigma in zip(*_output_chains(H, Fbar, Gbar)):
        nu = len(rows)
        pivots, Pinv = _chain_inverse(rows, q.q)
        V2 = [(0,) * nu] * l
        for c, row in zip(pivots, Pinv):
            V2[c] = row
        k = next(i for i, a in enumerate(sigma) if a)
        out.append(ChannelMaps(
            nu=nu, T2=ModMatrix._trusted(tuple(rows), l, q),
            Sigma=ModMatrix._trusted((sigma,), len(sigma), q), k=k,
            s=q.inv(sigma[k]),
            V2=ModMatrix._trusted(tuple(V2), nu, q)))
    return tuple(out)


def channel_maps(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix) -> ChannelMaps:
    """`all_channel_maps` of the single row Hj."""
    if Hj.nrows != 1:
        raise DimensionMismatch("channel output map must be a single row")
    return all_channel_maps(Hj, Fbar, Gbar)[0]
