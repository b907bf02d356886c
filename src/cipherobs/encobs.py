"""Encrypted observer: the modified encryption scheme, the batched
ciphertext recursion, residue disclosure, and encrypted state recovery.

One residue channel is run per row of the residue map.  All channels share
each step's randomness block and masking term; they differ only in the
cancellation column derived from their own zero-dynamics, which forces the
mask contribution of every residue's first column to zero.  Each input
batch and the observer state are therefore stored as one matrix
`[firsts | shared | lasts]`: every channel's first column, the shared middle
block once, then every channel's last column.  One step of the observer is
one application of `Z' = Fbar Z + Gbar V` to that whole matrix.

From the first step on, the state stays resident as the exact int64 limbs of
`quantobs.LimbKernel`; Python ints appear only when a channel is
materialized, when the first columns are read for disclosure, and in the
recovered sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .lwe import (
    Ciphertext,
    CiphertextKind,
    NoiseParams,
    SecretKey,
    SecureRng,
    decrypt,
    encrypt_with_artifacts,
)
from .modring import DimensionMismatch, ModMatrix, Modulus, join_limbs, \
    split_limbs
from .quantobs import LimbKernel, ModularMaps, QuantParams, observer_update
from .zerodyn import ChannelMaps, channel_maps

__all__ = [
    "EncObsError",
    "SessionNotFresh",
    "ObserverPublic",
    "EncryptedBatch",
    "StepArtifacts",
    "EncryptorSession",
    "EncObserverState",
    "step_encrypted",
    "encrypted_residue",
    "disclose_residue",
    "decrypt_channel_state",
    "recover_encrypted_state",
    "build_fbar",
]


class EncObsError(Exception):
    pass


class SessionNotFresh(EncObsError):
    pass


def build_fbar(block_sizes: Sequence[int], q: Modulus) -> ModMatrix:
    """Block-diagonal lower-shift state matrix as an explicit Z_q matrix."""
    l = sum(block_sizes)
    rows = [[0] * l for _ in range(l)]
    o = 0
    for li in block_sizes:
        for h in range(1, li):
            rows[o + h][o + h - 1] = 1
        o += li
    return ModMatrix(rows, q, ncols=l, _reduced=True)


@dataclass(frozen=True)
class ObserverPublic:
    """Everything public the encrypted observer needs: the observer maps
    over Z_q plus each residue channel's closed-form cancellation maps."""

    q: Modulus
    N: int
    lift: int
    block_sizes: Tuple[int, ...]
    Fbar: ModMatrix
    Gbar: ModMatrix
    Hbar: ModMatrix
    channels: Tuple[ChannelMaps, ...]

    @classmethod
    def build(cls, maps: ModularMaps, params: QuantParams,
              N: Optional[int] = None) -> "ObserverPublic":
        q = maps.Gbar.modulus
        Fbar = build_fbar(maps.block_sizes, q)
        channels = tuple(channel_maps(maps.Hbar.row(j), Fbar, maps.Gbar, j=j)
                         for j in range(maps.Hbar.nrows))
        return cls(q=q, N=params.N if N is None else N, lift=params.lift,
                   block_sizes=maps.block_sizes, Fbar=Fbar, Gbar=maps.Gbar,
                   Hbar=maps.Hbar, channels=channels)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @cached_property
    def kernel(self) -> LimbKernel:
        """The observer recursion on int64 limbs for these maps."""
        return LimbKernel.build(self.block_sizes, self.Gbar)


def _channel_row(row: Tuple[int, ...], n_ch: int, j: int) -> Tuple[int, ...]:
    """Channel j's columns of one `[firsts | shared | lasts]` row."""
    return (row[j],) + row[n_ch:len(row) - n_ch] + (row[len(row) - n_ch + j],)


@dataclass(frozen=True, eq=False)
class _ChannelBody:
    """A matrix over all channels laid out as `[firsts | shared | lasts]`.

    Column j and column n_ch + N + j are channel j's first and last
    columns; the N shared middle columns are common to every channel.  The
    layout stays inside this module: other modules read a channel only
    through `channel(j)`.
    """

    body: ModMatrix     # rows x (n_ch + N + n_ch)
    n_channels: int

    @property
    def N(self) -> int:
        return self.body.shape[-1] - 2 * self.n_channels

    def _channel_body(self, j: int) -> ModMatrix:
        return ModMatrix(
            tuple(_channel_row(row, self.n_channels, j)
                  for row in self.body.rows),
            self.body.modulus, ncols=self.N + 2, _reduced=True)

    def channel(self, j: int) -> Ciphertext:
        """Channel j's modified ciphertext: [first | shared | last]."""
        if not 0 <= j < self.n_channels:
            raise EncObsError(f"no channel {j} among {self.n_channels}")
        return Ciphertext(body=self._channel_body(j),
                          kind=CiphertextKind.MODIFIED, N=self.N)


@dataclass(frozen=True)
class EncryptedBatch(_ChannelBody):
    """Per-step modified ciphertexts for all channels.

    The randomness block is shared; channels differ only in the first
    (message + mask - cancellation) and last (cancellation) columns.
    """

    @classmethod
    def from_standard(cls, std_ct: Ciphertext,
                      cancels: Sequence[Tuple[int, ...]]) -> "EncryptedBatch":
        """Split a standard ciphertext into one modified ciphertext per
        cancellation column: first = (message + mask) - cancel."""
        q = std_ct.body.modulus
        rows = tuple(
            tuple(q.cmod(row[0] - c[i]) for c in cancels) + row[1:]
            + tuple(c[i] for c in cancels)
            for i, row in enumerate(std_ct.body.rows))
        return cls(body=ModMatrix(rows, q, ncols=std_ct.N + 2 * len(cancels),
                                  _reduced=True),
                   n_channels=len(cancels))


@dataclass
class StepArtifacts:
    """Trusted-encryptor record of one encryption: mask, error, randomness,
    the standard ciphertext, and the per-channel cancellation terms.
    Only kept when a session is created with record_artifacts=True."""

    mask: ModMatrix
    error: ModMatrix
    randomness: ModMatrix
    standard_ct: Ciphertext
    cancel_terms: Tuple


class EncryptorSession:
    """Stateful trusted encryptor for one observer run.

    Holds every channel's cancelled mask state as one l x n_ch matrix B:
    column j is the mask part of channel j's observer state once its
    cancellation is applied.  Its chain coordinates stay zero, so channel
    j's next cancellation is `H_j F^nu_j B[:, j] + Sigma_j mask`, the same
    value `zerodyn.cancellation_step` computes from the zero-dynamics state
    `T1_j B[:, j]`.  All channels then advance through one observer update.
    Losing a step invalidates the session, so B can be checkpointed and
    restored.
    """

    def __init__(self, sk: SecretKey, params: QuantParams,
                 public: ObserverPublic, rng=None,
                 record_artifacts: bool = False):
        if sk.N != public.N:
            raise EncObsError("secret key length differs from configured N")
        self.sk = sk
        self.params = params
        self.public = public
        self.noise = NoiseParams(params.Delta)
        self.rng = rng if rng is not None else SecureRng()
        self.record_artifacts = record_artifacts
        self.step = -1  # -1 = fresh, >= 0 after enc_initial
        self.cancel_state: Optional[ModMatrix] = None   # B, l x n_ch
        self.artifacts: List[StepArtifacts] = []
        # per channel: (H_j F^nu_j, Sigma_j, SigmaDag_j) as int tuples
        self._cancel_maps = tuple(
            (m.HFnu.rows[0], m.Sigma.rows[0], m.SigmaDag.column_entries())
            for m in public.channels)

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> dict:
        return {"step": self.step, "cancel_state": self.cancel_state}

    def restore(self, snap: dict):
        self.step = snap["step"]
        self.cancel_state = snap["cancel_state"]

    # -- encryption --------------------------------------------------------

    def _encrypt(self, v: ModMatrix):
        return encrypt_with_artifacts(v.scale(self.params.lift), self.sk,
                                      self.noise, self.rng)

    def _record(self, std_ct, mask, err, rand, cancel_terms):
        if self.record_artifacts:
            self.artifacts.append(StepArtifacts(
                mask=mask, error=err, randomness=rand, standard_ct=std_ct,
                cancel_terms=tuple(cancel_terms)))

    def _cancelled(self, mask: ModMatrix, cancels) -> ModMatrix:
        """mask 1^T - [cancel columns]: each channel's cancelled mask."""
        q = self.public.q
        return ModMatrix(
            (tuple(q.cmod(m - c[i]) for c in cancels)
             for i, m in enumerate(mask.column_entries())),
            q, ncols=len(cancels), _reduced=True)

    def enc_initial(self, zbar_ini: ModMatrix) -> EncryptedBatch:
        """Encrypt the lifted initial state once for every channel."""
        if self.step != -1:
            raise SessionNotFresh("enc_initial may only be called once")
        std_ct, mask, err, rand = self._encrypt(zbar_ini)
        tildes = [m.T2 @ mask for m in self.public.channels]
        cancels = [(m.V2 @ tilde).column_entries()
                   for m, tilde in zip(self.public.channels, tildes)]
        self.cancel_state = self._cancelled(mask, cancels)
        self.step = 0
        self._record(std_ct, mask, err, rand, tildes)
        return EncryptedBatch.from_standard(std_ct, cancels)

    def enc_input(self, vbar: ModMatrix) -> EncryptedBatch:
        """Encrypt the lifted input for every channel and advance the
        cancelled mask states."""
        if self.step < 0:
            raise EncObsError("call enc_initial before enc_input")
        std_ct, mask, err, rand = self._encrypt(vbar)
        q = self.public.q
        m = mask.column_entries()
        tildes = [q.cmod(sum(map(mul, p, b)) + sum(map(mul, sigma, m)))
                  for (p, sigma, _), b in
                  zip(self._cancel_maps, zip(*self.cancel_state.rows))]
        cancels = [tuple(q.cmod(a * t) for a in dag)
                   for (_, _, dag), t in zip(self._cancel_maps, tildes)]
        self.cancel_state = self.public.kernel.update(
            self.cancel_state, self._cancelled(mask, cancels))
        self.step += 1
        self._record(std_ct, mask, err, rand, tildes)
        return EncryptedBatch.from_standard(std_ct, cancels)


@dataclass(frozen=True, eq=False)
class EncObserverState(_ChannelBody):
    """Encrypted observer state for all channels at one step.

    Channel j's logical state is the l x (N+2) matrix `channel(j).body`;
    its decryption is the lifted plaintext state plus the encryption error.

    At step 0 the state is the initial batch: `body` is its ModMatrix and
    `kernel` is None, since `from_initial` does not see the observer gain
    that fixes the limb width.  `step_encrypted` splits it once; from then
    on `body` is the kernel's (L, l, n_ch + N + n_ch) int64 limb stack.
    Those limbs are lazy (not reduced, not canonical), so states compare
    only through the values `channel(j)` materializes.
    """

    body: Union[ModMatrix, np.ndarray]
    n_channels: int
    step: int
    kernel: Optional[LimbKernel]

    @classmethod
    def from_initial(cls, batch: EncryptedBatch) -> "EncObserverState":
        return cls(body=batch.body, n_channels=batch.n_channels, step=0,
                   kernel=None)

    def _rows(self, cols: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
        """Rows of the body restricted to the given columns, as ints
        congruent mod q to its entries."""
        if self.kernel is None:
            return tuple(tuple(row[c] for c in cols) for row in self.body.rows)
        return self.kernel.join(self.body[:, :, list(cols)])

    def _channel_body(self, j: int) -> ModMatrix:
        if self.kernel is None:
            return super()._channel_body(j)
        n_ch, N = self.n_channels, self.N
        return ModMatrix(self._rows([j, *range(n_ch, n_ch + N), n_ch + N + j]),
                         self.kernel.q, ncols=N + 2)

    def _limbs(self, kernel: LimbKernel, cols: range) -> np.ndarray:
        """The kernel's limb stack of the given columns; the initial state
        is split here."""
        if self.kernel is None:
            return kernel.split(self._rows(cols))
        if (self.kernel.q, self.kernel.width, self.kernel.block_sizes) != (
                kernel.q, kernel.width, kernel.block_sizes):
            raise EncObsError("state limbs come from another observer")
        return self.body[:, :, cols.start:cols.stop]

    def _shared_digits(self, d: int) -> Iterator[Tuple[int, np.ndarray]]:
        """(shift, digits) pairs with shared block == sum(digits << shift):
        each digits array is l x N int64 with entries below 2^d in absolute
        value.  Lazy limbs are cut into d-bit digits one limb at a time."""
        n_ch, N = self.n_channels, self.N
        if self.kernel is None:
            shared = self._rows(range(n_ch, n_ch + N))
            count = -(-self.body.modulus.q.bit_length() // d)
            digits = split_limbs([a for row in shared for a in row], d, count)
            for m in range(count):
                yield d * m, digits[m].reshape(len(shared), N)
            return
        mask = (1 << d) - 1
        top = -(-63 // d) - 1
        for k in range(self.kernel.count):
            limb = self.body[k, :, n_ch:n_ch + N]
            for m in range(top):
                yield self.kernel.width * k + d * m, (limb >> (d * m)) & mask
            yield self.kernel.width * k + d * top, limb >> (d * top)


def step_encrypted(state: EncObserverState, batch: EncryptedBatch,
                   public: ObserverPublic) -> EncObserverState:
    """One encrypted observer update for every channel: the observer
    recursion applied to the whole `[firsts | shared | lasts]` body, on
    int64 limbs; the batch is split into limbs once per step."""
    if (batch.n_channels, batch.N) != (state.n_channels, state.N):
        raise EncObsError("channel counts or widths differ between state "
                          "and batch")
    kernel = public.kernel
    Z = state._limbs(kernel, range(state.N + 2 * state.n_channels))
    body = observer_update(Z, kernel.split(batch.body.rows),
                           kernel.block_sizes, kernel.gain)
    return EncObserverState(body=body, n_channels=state.n_channels,
                            step=state.step + 1, kernel=kernel)


def encrypted_residue(state: EncObserverState,
                      public: ObserverPublic) -> Tuple[ModMatrix, ModMatrix]:
    """Stacked per-channel residue rows and their first column.

    Row j applies channel j's residue row to that channel's state.
    """
    width = state.N + 2 * state.n_channels
    body = ModMatrix(state._rows(range(width)), public.q, ncols=width)
    full = public.Hbar @ body
    rows = tuple(_channel_row(row, state.n_channels, j)
                 for j, row in enumerate(full.rows))
    R = ModMatrix(rows, public.q, ncols=state.N + 2, _reduced=True)
    return R, ModMatrix.column(R.column_entries(0), public.q)


def residue_first_column(state: EncObserverState,
                         public: ObserverPublic) -> ModMatrix:
    """First column of the encrypted residue only (cheap per-step path):
    channel j's residue row applied to column j, O(n_ch * l).  Only the
    channels' first columns are joined from the limbs."""
    q = public.q
    kernel = public.kernel
    firsts = state._limbs(kernel, range(state.n_channels))
    l = firsts.shape[1]
    cols = join_limbs(firsts.transpose(0, 2, 1).reshape(kernel.count, -1),
                      kernel.width)
    r1 = [q.cmod(sum(map(mul, hrow, cols[j * l:(j + 1) * l])))
          for j, hrow in enumerate(public.Hbar.rows)]
    return ModMatrix.column(r1, q)


def disclose_residue(r1: ModMatrix, params: QuantParams) -> ModMatrix:
    """Recover the plaintext residue by multiplying with lift^-1 mod q."""
    q = params.q
    if gcd(params.lift, q.q) != 1:
        raise EncObsError("lift shares a factor with the modulus")
    inv = q.inv(params.lift)
    return r1.scale(inv)


def decrypt_channel_state(state: EncObserverState, j: int,
                          sk: SecretKey) -> ModMatrix:
    """Dec' of channel j's state: first - shared @ sk + last, reduced."""
    return decrypt(state.channel(j), sk)


def recover_encrypted_state(state: EncObserverState, j: int, sk: SecretKey,
                            params: QuantParams,
                            phi_pinv_bar: ModMatrix) -> ModMatrix:
    """Decrypt channel j and strip the lift factor by exact rounding.

    The decryption is `decrypt_channel_state`, computed without joining the
    shared block: it and the key are cut into signed d-bit digits with
    N 2^(2d) < 2^63, so every digit product sums exactly in int64, and only
    the l sums are joined as Python ints.

    When the detection criterion held at this step (and the parameter
    bounds are valid) the result equals the plaintext observer's scaled
    estimate bit for bit; otherwise it is still returned and the caller
    decides how much to trust it.
    """
    if not 0 <= j < state.n_channels:
        raise EncObsError(f"no channel {j} among {state.n_channels}")
    N, n_ch = state.N, state.n_channels
    if sk.N != N:
        raise DimensionMismatch("ciphertext and key disagree on N")
    q = params.q
    d = (63 - N.bit_length()) // 2
    key = split_limbs(sk.entries(), d, -(-q.q.bit_length() // d)).T
    first_last = state._rows([j, n_ch + N + j])
    masked = [0] * len(first_last)
    for shift, digits in state._shared_digits(d):
        for m, part in enumerate((digits @ key).T.tolist()):
            masked = [a + (b << (shift + d * m)) for a, b in zip(masked, part)]
    dec = ModMatrix.column([f + g - s for (f, g), s in zip(first_last, masked)],
                           q)
    scaled = phi_pinv_bar @ dec
    lift = params.lift
    entries = [q.cmod((2 * v + lift) // (2 * lift))
               for v in scaled.column_entries()]
    return ModMatrix.column(entries, q)
