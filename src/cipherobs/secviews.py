"""Adversary views and the deterministic transformations between them.

View 1 is what an eavesdropper on the standard scheme plus the residue
disclosure sees; view 2 is what an eavesdropper on the modified scheme
sees.  Channel j's modified ciphertext is the standard one with its first
column split as `[first - cancel_j | shared | cancel_j]`, so View 2 holds
each step's standard ciphertext and the channels' cancel columns once, and
both views serialize as standard ciphertexts plus one list of Z_q values
per step, in `lwe`'s fixed-width encoding.  The cancel columns stay the
uint64 words that the cancellation makes and the wire carries, never
Python ints.  Both transformations below use
only the public maps, ciphertexts and disclosed residues (never the secret
key), and reproduce the other view bit for bit, which is the operational
content of the equivalence claim: neither party learns more than the
other.  Neither re-implements the deployment: f1 runs the encryptor's
cancellation with the message as a known offset, and f2 runs the deployed
encrypted observer and disclosure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .encobs import EncObserverState, EncryptedBatch, ObserverPublic, \
    disclose_residue, modified_channels, residue_first_column, step_encrypted
from .lwe import Ciphertext, CiphertextKind, LweError, pack_words, \
    read_values, words_of
from .modring import ModMatrix, Modulus, join_limbs
from .quantobs import QuantParams

__all__ = [
    "ViewError",
    "HorizonTooShort",
    "View1",
    "View2",
    "f2_view2_to_view1",
    "f1_view1_to_view2",
]


class ViewError(Exception):
    pass


class HorizonTooShort(ViewError):
    pass


_HEADER_LEN = 13   # 5-byte magic, then two uint32 counts


def _check_ciphertexts(cts: Sequence[Ciphertext], q: Modulus, N: int):
    """Every ciphertext must be standard and over the modulus q and the
    dimension N."""
    for ct in cts:
        if ct.kind is not CiphertextKind.STANDARD:
            raise ViewError(f"{ct.kind.value} ciphertext in a transcript "
                            "of standard ones")
        if ct.q != q:
            raise ViewError("ciphertext modulus does not match")
        if ct.N != N:
            raise ViewError("ciphertext dimension does not match")


def _write(magic: bytes, counts: Tuple[int, int],
           cts: Sequence[Ciphertext], lists) -> bytes:
    """Both views' encoding: magic, two uint32 counts, the size-prefixed
    ciphertexts, then one value list over the first ciphertext's modulus
    per word array of `lists`."""
    parts = [magic, struct.pack("<II", *counts)]
    for ct in cts:
        blob = ct.to_bytes()
        parts += [struct.pack("<I", len(blob)), blob]
    parts += [pack_words(cts[0].q, words) for words in lists]
    return b"".join(parts)


def _read_header(buf: bytes, magic: bytes) -> Tuple[int, int]:
    if buf[:5] != magic:
        raise ViewError(f"not a {magic.decode()} transcript")
    if len(buf) < _HEADER_LEN:
        raise ViewError("truncated transcript header")
    return struct.unpack_from("<II", buf, 5)


def _read_body(buf: bytes, n_cts: int, n_lists: int, q: Modulus | None):
    """Strict inverse of `_write` past the header -> (ciphertexts, word
    lists).  The ciphertexts must be standard, over one modulus and one N,
    and every list value must be below that modulus.  Each ciphertext's
    modulus is compared with q, or else with the first one's, before any
    primality test, so a transcript naming many primes costs one at most."""
    offset = _HEADER_LEN
    cts, lists = [], []
    try:
        for _ in range(n_cts):
            if offset + 4 > len(buf):
                raise ViewError("truncated ciphertext size field")
            (size,) = struct.unpack_from("<I", buf, offset)
            offset += 4
            if offset + size > len(buf):
                raise ViewError("ciphertext size runs past the transcript")
            cts.append(Ciphertext.from_bytes(buf[offset:offset + size], q))
            q = cts[-1].q
            offset += size
        _check_ciphertexts(cts, q, cts[0].N)
        for _ in range(n_lists):
            words, offset = read_values(buf, offset, q)
            lists.append(words)
    except LweError as exc:
        raise ViewError(f"malformed transcript entry: {exc}") from exc
    if offset != len(buf):
        raise ViewError(f"{len(buf) - offset} trailing bytes")
    return cts, lists


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
        q = self.init_ct.q
        return _write(b"VIEW1", (len(self.input_cts), len(self.residues)),
                      (self.init_ct,) + self.input_cts,
                      [words_of(q, r.column_entries()) for r in self.residues])

    @classmethod
    def from_bytes(cls, buf: bytes, q: Modulus) -> "View1":
        n_inputs, n_res = _read_header(buf, b"VIEW1")
        cts, lists = _read_body(buf, n_inputs + 1, n_res, q)
        return cls(init_ct=cts[0], input_cts=tuple(cts[1:]),
                   residues=tuple(ModMatrix.column(join_limbs(words.T, 64), q)
                                  for words in lists))


@dataclass(frozen=True, eq=False)
class View2:
    """Each step's standard ciphertext (step 0 holds the initial state)
    and every channel's cancel column for it, as one read-only
    (n_ch, h, nw) word array per step.  `init_cts` and `input_cts` write
    the channels' modified ciphertexts from them."""

    standard_cts: Tuple[Ciphertext, ...]
    cancels: Tuple[np.ndarray, ...]   # [step]: (channel, row, word)

    def __post_init__(self):
        for words in self.cancels:
            words.setflags(write=False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, View2)
                and self.standard_cts == other.standard_cts
                and len(self.cancels) == len(other.cancels)
                and all(map(np.array_equal, self.cancels, other.cancels)))

    @property
    def init_cts(self) -> Tuple[Ciphertext, ...]:
        return modified_channels(self.standard_cts[0], self.cancels[0])

    @property
    def input_cts(self) -> Tuple[Tuple[Ciphertext, ...], ...]:
        """[step][channel]"""
        return tuple(map(modified_channels, self.standard_cts[1:],
                         self.cancels[1:]))

    def states(self, public: ObserverPublic) -> Iterator[EncObserverState]:
        """Every encrypted state of the recorded run, stepped by the deployed
        `step_encrypted` on the batches of the recorded words."""
        for t, (ct, c) in enumerate(zip(self.standard_cts, self.cancels)):
            batch = EncryptedBatch(ct, c, public.gain, t)
            state = (step_encrypted(state, batch, public) if t
                     else EncObserverState.from_initial(batch))
            yield state

    def to_bytes(self) -> bytes:
        return _write(b"VIEW2", (len(self.cancels[0]),
                                 len(self.standard_cts) - 1),
                      self.standard_cts, self.cancels)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "View2":
        n_ch, n_steps = _read_header(buf, b"VIEW2")
        cts, lists = _read_body(buf, n_steps + 1, n_steps + 1, None)
        if any(len(words) != n_ch * ct.h for ct, words in zip(cts, lists)):
            raise ViewError("cancel count is not the channel count times "
                            "the ciphertext rows")
        return cls(standard_cts=tuple(cts), cancels=tuple(
            words.reshape(n_ch, ct.h, words.shape[1])
            for ct, words in zip(cts, lists)))


def _check_public(cts: Sequence[Ciphertext], public: ObserverPublic):
    """The standard ciphertexts of steps 0..T must be over the public
    modulus and dimension, the initial one with l rows and the others with
    one row per input."""
    _check_ciphertexts(cts, public.q, public.N)
    rows = [public.gain.Gbar.nrows] + [public.gain.Gbar.ncols] * (len(cts) - 1)
    if [ct.h for ct in cts] != rows:
        raise ViewError("ciphertext rows do not match the public maps")


def f2_view2_to_view1(v2: View2, public: ObserverPublic,
                      params: QuantParams) -> View1:
    """Reconstruct the standard-plus-residue view from modified ciphertexts.

    The standard ciphertexts are View 2's own.  Residues come from the
    deployed encrypted observer on each step's first column and cancel
    columns, the only columns the residue reads, and its disclosure.
    """
    _check_public(v2.standard_cts, public)
    if len(v2.cancels) != len(v2.standard_cts) or any(
            step.shape != (public.n_channels,) + ct.first.shape
            for ct, step in zip(v2.standard_cts, v2.cancels)):
        raise ViewError("cancel columns do not match the channel count and "
                        "the ciphertext rows")
    return View1(init_ct=v2.standard_cts[0], input_cts=v2.standard_cts[1:],
                 residues=tuple(disclose_residue(residue_first_column(
                     state, public), params) for state in v2.states(public)))


def f1_view1_to_view2(v1: View1, public: ObserverPublic,
                      params: QuantParams) -> View2:
    """Reconstruct the modified ciphertexts from the standard view.

    The encryptor's cancellation is linear in its mask, the observed first
    column f_t minus the lifted message.  So f1 runs the encryptor's own
    recursion (`ObserverPublic.cancel_initial` and `cancel_step`) on the
    f_t, with the message's chain coordinates as the known offset: the
    lifted residues, H_j Z_t of the lifted message state Z_t.  As
    H_j F^i G = 0 for i < nu_j - 1, T2_j Z_0 is the lifted residues of steps
    0..nu_j - 1, and after input step t the chain's bottom is
    H_j F^(nu_j - 1) Z_{t+1} = H_j Z_{t+nu_j}, the lifted residue of step
    t + nu_j.  View 2's cancel columns are the words the cancellation
    returns.
    """
    steps = len(v1.input_cts)
    channels = public.channels
    nu_max = max(m.nu for m in channels)
    if len(v1.residues) < steps + nu_max:
        needed = steps - 1 + nu_max
        raise HorizonTooShort(
            f"need residues through step {needed} to reconstruct all "
            f"{steps} input steps (have {len(v1.residues)})")
    _check_public((v1.init_ct,) + v1.input_cts, public)
    if any(r.modulus != public.q or r.shape != (len(channels), 1)
           for r in v1.residues):
        raise ViewError("residues do not match the public maps")

    # lifted[t][j] = lift * residue of channel j at step t, unreduced
    lifted = [[params.lift * a for a in r.column_entries()]
              for r in v1.residues]
    block, state = public.cancel_initial(
        v1.init_ct.first,
        [[lifted[t][j] for t in range(m.nu)] for j, m in enumerate(channels)])
    blocks = [block]
    for t, ct in enumerate(v1.input_cts):
        block, state = public.cancel_step(
            state, ct.first,
            [lifted[t + m.nu][j] for j, m in enumerate(channels)])
        blocks.append(block)
    return View2(standard_cts=(v1.init_ct,) + v1.input_cts,
                 cancels=tuple(blocks))
