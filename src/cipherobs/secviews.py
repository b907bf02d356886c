"""Adversary views and the deterministic transformations between them.

View 1 is what an eavesdropper on the standard scheme plus the residue
disclosure sees; view 2 is what an eavesdropper on the modified scheme
sees.  Both transformations below use only the public maps, ciphertexts
and disclosed residues (never the secret key), and reproduce the other
view bit for bit, which is the operational content of the equivalence
claim: neither party learns more than the other.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import mul
from typing import Sequence, Tuple

import numpy as np

from .encobs import EncryptedBatch, ObserverPublic
from .lwe import Ciphertext, CiphertextKind, LweError, _pack_ints, \
    _unpack_ints
from .modring import ModMatrix
from .quantobs import QuantParams, observer_update

__all__ = [
    "ViewError",
    "InconsistentChannels",
    "HorizonTooShort",
    "View1",
    "View2",
    "f2_view2_to_view1",
    "f1_view1_to_view2",
]


class ViewError(Exception):
    pass


class InconsistentChannels(ViewError):
    pass


class HorizonTooShort(ViewError):
    pass


_HEADER_LEN = 13   # 5-byte magic, then two uint32 counts


def _read_header(buf: bytes, magic: bytes) -> Tuple[int, int]:
    if buf[:5] != magic:
        raise ViewError(f"not a {magic.decode()} transcript")
    if len(buf) < _HEADER_LEN:
        raise ViewError("truncated transcript header")
    return struct.unpack_from("<II", buf, 5)


def _read_ciphertexts(buf: bytes, count: int):
    """`count` size-prefixed ciphertext blobs after the header ->
    (ciphertexts, offset past the last one)."""
    offset = _HEADER_LEN
    cts = []
    for _ in range(count):
        if offset + 4 > len(buf):
            raise ViewError("truncated ciphertext size field")
        (size,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        if offset + size > len(buf):
            raise ViewError("ciphertext size runs past the transcript")
        try:
            cts.append(Ciphertext.from_bytes(buf[offset:offset + size]))
        except LweError as exc:
            raise ViewError(f"malformed ciphertext: {exc}") from exc
        offset += size
    return cts, offset


def _check_end(buf: bytes, offset: int):
    if offset != len(buf):
        raise ViewError(f"{len(buf) - offset} trailing bytes")


@dataclass(frozen=True)
class View1:
    """Standard ciphertexts plus the disclosed residues.

    Residues run one step past the inputs: with T input ciphertexts there
    are T + 1 residue vectors (steps 0..T).
    """

    init_ct: Ciphertext
    input_cts: Tuple[Ciphertext, ...]
    residues: Tuple[ModMatrix, ...]

    def to_bytes(self) -> bytes:
        parts = [b"VIEW1", struct.pack("<II", len(self.input_cts),
                                       len(self.residues))]
        for blob in [self.init_ct.to_bytes()] + [c.to_bytes()
                                                 for c in self.input_cts]:
            parts.append(struct.pack("<I", len(blob)))
            parts.append(blob)
        for r in self.residues:
            parts.append(_pack_ints(r.column_entries()))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buf: bytes, q) -> "View1":
        n_inputs, n_res = _read_header(buf, b"VIEW1")
        cts, offset = _read_ciphertexts(buf, n_inputs + 1)
        residues = []
        try:
            for _ in range(n_res):
                vals, offset = _unpack_ints(buf, offset)
                if not all(map(q.contains, vals)):
                    raise ViewError("residue entry outside the centred range")
                residues.append(ModMatrix(((v,) for v in vals), q, ncols=1,
                                          _reduced=True))
        except LweError as exc:
            raise ViewError(f"malformed residue: {exc}") from exc
        _check_end(buf, offset)
        return cls(init_ct=cts[0], input_cts=tuple(cts[1:]),
                   residues=tuple(residues))


@dataclass(frozen=True)
class View2:
    """Per-channel modified ciphertexts (initial plus one list per step)."""

    init_cts: Tuple[Ciphertext, ...]                 # one per channel
    input_cts: Tuple[Tuple[Ciphertext, ...], ...]    # [step][channel]

    def to_bytes(self) -> bytes:
        n_ch = len(self.init_cts)
        parts = [b"VIEW2", struct.pack("<II", n_ch, len(self.input_cts))]
        blobs = [c.to_bytes() for c in self.init_cts]
        for step in self.input_cts:
            blobs.extend(c.to_bytes() for c in step)
        for blob in blobs:
            parts.append(struct.pack("<I", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "View2":
        n_ch, n_steps = _read_header(buf, b"VIEW2")
        blobs, offset = _read_ciphertexts(buf, n_ch * (n_steps + 1))
        _check_end(buf, offset)
        init = tuple(blobs[:n_ch])
        steps = tuple(tuple(blobs[n_ch * (1 + t):n_ch * (2 + t)])
                      for t in range(n_steps))
        return cls(init_cts=init, input_cts=steps)


def _merge_to_standard(ct: Ciphertext) -> Ciphertext:
    """Fold the cancellation column back into the message column."""
    q = ct.body.modulus
    first = ct.first_column()
    cancel = ct.cancel_column()
    merged = tuple(q.cmod(a + b) for a, b in zip(first, cancel))
    rows = tuple((m,) + r[1:1 + ct.N] for m, r in zip(merged, ct.body.rows))
    body = ModMatrix(rows, q, ncols=ct.N + 1, _reduced=True)
    return Ciphertext(body=body, kind=CiphertextKind.STANDARD, N=ct.N)


def _check_ciphertexts(cts: Sequence[Ciphertext], nrows: int,
                       public: ObserverPublic):
    """Every ciphertext must be over the public modulus and dimension and
    have `nrows` rows."""
    for ct in cts:
        if ct.body.modulus != public.q:
            raise ViewError("ciphertext modulus does not match the public maps")
        if ct.N != public.N:
            raise ViewError(
                "ciphertext dimension does not match the public maps")
        if ct.body.nrows != nrows:
            raise ViewError("ciphertext rows do not match the public maps")


def f2_view2_to_view1(v2: View2, public: ObserverPublic,
                      params: QuantParams,
                      verify_consistency: bool = True) -> View1:
    """Reconstruct the standard-plus-residue view from modified ciphertexts.

    Standard ciphertexts follow from the construction identity (message and
    cancellation columns re-sum).  Residues come from running the observer
    recursion on each channel's first column and stripping the lift factor.
    """
    n_ch = public.n_channels
    if len(v2.init_cts) != n_ch or any(len(s) != n_ch for s in v2.input_cts):
        raise InconsistentChannels("channel count does not match the public maps")
    _check_ciphertexts(v2.init_cts, public.Gbar.nrows, public)
    _check_ciphertexts([ct for step in v2.input_cts for ct in step],
                       public.Gbar.ncols, public)

    def fold_all(cts: Sequence[Ciphertext]) -> Ciphertext:
        std = _merge_to_standard(cts[0])
        if verify_consistency:
            for other in cts[1:]:
                if _merge_to_standard(other).body != std.body:
                    raise InconsistentChannels(
                        "channels disagree on the underlying standard ciphertext")
        return std

    init_std = fold_all(v2.init_cts)
    input_std = tuple(fold_all(step) for step in v2.input_cts)

    q = public.q
    inv_lift = q.inv(params.lift)
    kernel = public.kernel

    def firsts(cts: Sequence[Ciphertext]) -> np.ndarray:
        """Limbs of the channels' first columns side by side."""
        return kernel.split(tuple(zip(*(ct.first_column() for ct in cts))))

    def residue(Z: np.ndarray) -> ModMatrix:
        """Channel j's residue row on column j, without the lift."""
        cols = zip(*kernel.join(Z))
        return ModMatrix.column(
            [q.cmod(inv_lift * sum(map(mul, hrow, col)))
             for hrow, col in zip(public.Hbar.rows, cols)], q)

    Z = firsts(v2.init_cts)
    residues = [residue(Z)]
    for step in v2.input_cts:
        Z = observer_update(Z, firsts(step), kernel.block_sizes, kernel.gain)
        residues.append(residue(Z))
    return View1(init_ct=init_std, input_cts=input_std,
                 residues=tuple(residues))


def f1_view1_to_view2(v1: View1, public: ObserverPublic,
                      params: QuantParams) -> View2:
    """Reconstruct the modified ciphertexts from the standard view.

    The encryptor's cancellation is linear in its mask, and the mask is the
    observed first column f_t minus the lifted message.  So each channel's
    cancellation splits into a combined part, the encryptor's recursion
    driven by f_t, minus a message part, the same recursion driven by the
    message.  The message part needs only the disclosed residues: lifted,
    they are H_j of the message state, and the first nu_j of them are its
    chain coordinates.

    Both recursions run for all channels as one l x 2 n_ch state [C | D]
    through the observer kernel, with C the encryptor's cancelled state
    driven by f_t and D the message state minus its cancelled state:

        C_0 = f_0 - V2 T2 f_0,          D_0 = V2 lifted[0:nu],
        comb = H F^nu C + Sigma f_t,    msg = lifted[t + nu] - H F^nu D,
        cancel = SigmaDag (comb - msg),
        C' = F C + G (f_t - SigmaDag comb),   D' = F D + G SigmaDag msg.
    """
    steps = len(v1.input_cts)
    q = public.q
    lift = params.lift
    channels = public.channels
    n_ch = len(channels)
    nu_max = max(m.nu for m in channels)
    if len(v1.residues) < steps + nu_max:
        needed = steps - 1 + nu_max
        raise HorizonTooShort(
            f"need residues through step {needed} to reconstruct all "
            f"{steps} input steps (have {len(v1.residues)})")
    _check_ciphertexts((v1.init_ct,), public.Gbar.nrows, public)
    _check_ciphertexts(v1.input_cts, public.Gbar.ncols, public)
    if any(r.modulus != q or r.shape != (n_ch, 1) for r in v1.residues):
        raise ViewError("residues do not match the public maps")

    # lifted[t][j] = lift * residue of channel j at step t
    lifted = [[q.cmod(lift * a) for a in r.column_entries()]
              for r in v1.residues]
    f0 = ModMatrix.column(v1.init_ct.first_column(), q)
    init_cancels = []
    C, D = [], []
    for j, m in enumerate(channels):
        comb = m.V2 @ (m.T2 @ f0)
        msg = m.V2 @ ModMatrix.column([lifted[t][j] for t in range(m.nu)], q)
        init_cancels.append((comb - msg).column_entries())
        C.append((f0 - comb).column_entries())
        D.append(msg.column_entries())
    Z = ModMatrix(tuple(zip(*C, *D)), q, ncols=2 * n_ch, _reduced=True)

    kernel = public.kernel
    step_cancels = []
    for t, ct in enumerate(v1.input_cts):
        f = ct.first_column()
        cols = tuple(zip(*Z.rows))
        cancels, drive_c, drive_d = [], [], []
        for j, m in enumerate(channels):
            p = m.HFnu.rows[0]
            comb = sum(map(mul, p, cols[j])) + sum(map(mul, m.Sigma.rows[0], f))
            msg = lifted[t + m.nu][j] - sum(map(mul, p, cols[n_ch + j]))
            dag = m.SigmaDag.column_entries()
            cancels.append(tuple(q.cmod(a * (comb - msg)) for a in dag))
            drive_c.append(tuple(q.cmod(x - a * comb) for x, a in zip(f, dag)))
            drive_d.append(tuple(q.cmod(a * msg) for a in dag))
        step_cancels.append(cancels)
        Z = kernel.update(Z, ModMatrix(tuple(zip(*drive_c, *drive_d)), q,
                                       ncols=2 * n_ch, _reduced=True))

    def channels_of(std_ct: Ciphertext, cancels) -> Tuple[Ciphertext, ...]:
        batch = EncryptedBatch.from_standard(std_ct, cancels)
        return tuple(batch.channel(j) for j in range(batch.n_channels))

    return View2(init_cts=channels_of(v1.init_ct, init_cancels),
                 input_cts=tuple(channels_of(std_ct, cancels)
                                 for std_ct, cancels
                                 in zip(v1.input_cts, step_cancels)))
