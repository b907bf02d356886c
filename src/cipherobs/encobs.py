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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .lwe import (
    Ciphertext,
    CiphertextKind,
    NoiseParams,
    SecretKey,
    SecureRng,
    decrypt,
    encrypt_with_artifacts,
)
from .modring import ModMatrix, Modulus
from .quantobs import ModularMaps, QuantParams, observer_update
from .zerodyn import (
    CancellationState,
    ChannelTransform,
    build_transform,
    cancellation_init,
    cancellation_step,
)

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
    over Z_q plus one zero-dynamics transform per residue channel."""

    q: Modulus
    N: int
    lift: int
    block_sizes: Tuple[int, ...]
    Fbar: ModMatrix
    Gbar: ModMatrix
    Hbar: ModMatrix
    transforms: Tuple[ChannelTransform, ...]

    @classmethod
    def build(cls, maps: ModularMaps, params: QuantParams,
              N: Optional[int] = None) -> "ObserverPublic":
        q = maps.Gbar.modulus
        Fbar = build_fbar(maps.block_sizes, q)
        transforms = tuple(
            build_transform(maps.Hbar.row(j), Fbar, maps.Gbar, j=j)
            for j in range(maps.Hbar.nrows)
        )
        return cls(q=q, N=params.N if N is None else N, lift=params.lift,
                   block_sizes=maps.block_sizes, Fbar=Fbar, Gbar=maps.Gbar,
                   Hbar=maps.Hbar, transforms=transforms)

    @property
    def n_channels(self) -> int:
        return len(self.transforms)


def _channel_row(row: Tuple[int, ...], n_ch: int, j: int) -> Tuple[int, ...]:
    """Channel j's columns of one `[firsts | shared | lasts]` row."""
    return (row[j],) + row[n_ch:len(row) - n_ch] + (row[len(row) - n_ch + j],)


@dataclass(frozen=True)
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
        return self.body.ncols - 2 * self.n_channels

    def channel(self, j: int) -> Ciphertext:
        """Channel j's modified ciphertext: [first | shared | last]."""
        if not 0 <= j < self.n_channels:
            raise EncObsError(f"no channel {j} among {self.n_channels}")
        rows = tuple(_channel_row(row, self.n_channels, j)
                     for row in self.body.rows)
        return Ciphertext(
            body=ModMatrix(rows, self.body.modulus, ncols=self.N + 2,
                           _reduced=True),
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

    Holds the per-channel zero-dynamics cancellation states; losing a step
    invalidates the session, so the state can be checkpointed and restored.
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
        self.cancel_states: List[CancellationState] = []
        self.artifacts: List[StepArtifacts] = []

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> dict:
        return {
            "step": self.step,
            "cancel_states": tuple(self.cancel_states),
        }

    def restore(self, snap: dict):
        self.step = snap["step"]
        self.cancel_states = list(snap["cancel_states"])

    # -- encryption --------------------------------------------------------

    def _encrypt(self, v: ModMatrix):
        return encrypt_with_artifacts(v.scale(self.params.lift), self.sk,
                                      self.noise, self.rng)

    def _record(self, std_ct, mask, err, rand, cancel_terms):
        if self.record_artifacts:
            self.artifacts.append(StepArtifacts(
                mask=mask, error=err, randomness=rand, standard_ct=std_ct,
                cancel_terms=tuple(cancel_terms)))

    def enc_initial(self, zbar_ini: ModMatrix) -> EncryptedBatch:
        """Encrypt the lifted initial state once for every channel."""
        if self.step != -1:
            raise SessionNotFresh("enc_initial may only be called once")
        std_ct, mask, err, rand = self._encrypt(zbar_ini)
        inits = [cancellation_init(ct, mask) for ct in self.public.transforms]
        cancels = [(ct.V2 @ tilde).column_entries()
                   for ct, (tilde, _) in zip(self.public.transforms, inits)]
        self.cancel_states = [state for _, state in inits]
        self.step = 0
        self._record(std_ct, mask, err, rand, [tilde for tilde, _ in inits])
        return EncryptedBatch.from_standard(std_ct, cancels)

    def enc_input(self, vbar: ModMatrix) -> EncryptedBatch:
        """Encrypt the lifted input for every channel and advance the
        cancellation states."""
        if self.step < 0:
            raise EncObsError("call enc_initial before enc_input")
        std_ct, mask, err, rand = self._encrypt(vbar)
        steps = [cancellation_step(ct, state, mask) for ct, state in
                 zip(self.public.transforms, self.cancel_states)]
        cancels = [ct.SigmaDag.scale(tilde).column_entries()
                   for ct, (tilde, _) in zip(self.public.transforms, steps)]
        self.cancel_states = [state for _, state in steps]
        self.step += 1
        self._record(std_ct, mask, err, rand, [tilde for tilde, _ in steps])
        return EncryptedBatch.from_standard(std_ct, cancels)


@dataclass(frozen=True)
class EncObserverState(_ChannelBody):
    """Encrypted observer state for all channels at one step.

    Channel j's logical state is the l x (N+2) matrix `channel(j).body`;
    its decryption is the lifted plaintext state plus the encryption error.
    """

    step: int

    @classmethod
    def from_initial(cls, batch: EncryptedBatch) -> "EncObserverState":
        return cls(body=batch.body, n_channels=batch.n_channels, step=0)


def step_encrypted(state: EncObserverState, batch: EncryptedBatch,
                   public: ObserverPublic) -> EncObserverState:
    """One encrypted observer update for every channel: the observer
    recursion applied to the whole `[firsts | shared | lasts]` body."""
    if (batch.n_channels, batch.N) != (state.n_channels, state.N):
        raise EncObsError("channel counts or widths differ between state "
                          "and batch")
    body = observer_update(state.body, batch.body, public.block_sizes,
                           public.Gbar)
    return EncObserverState(body=body, n_channels=state.n_channels,
                            step=state.step + 1)


def encrypted_residue(state: EncObserverState,
                      public: ObserverPublic) -> Tuple[ModMatrix, ModMatrix]:
    """Stacked per-channel residue rows and their first column.

    Row j applies channel j's residue row to that channel's state.
    """
    full = public.Hbar @ state.body
    rows = tuple(_channel_row(row, state.n_channels, j)
                 for j, row in enumerate(full.rows))
    R = ModMatrix(rows, public.q, ncols=state.N + 2, _reduced=True)
    return R, ModMatrix.column(R.column_entries(0), public.q)


def residue_first_column(state: EncObserverState,
                         public: ObserverPublic) -> ModMatrix:
    """First column of the encrypted residue only (cheap per-step path):
    channel j's residue row applied to column j, O(n_ch * l)."""
    q = public.q
    r1 = [q.cmod(sum(map(mul, hrow, state.body.column_entries(j))))
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

    When the detection criterion held at this step (and the parameter
    bounds are valid) the result equals the plaintext observer's scaled
    estimate bit for bit; otherwise it is still returned and the caller
    decides how much to trust it.
    """
    dec = decrypt_channel_state(state, j, sk)
    scaled = phi_pinv_bar @ dec
    lift = params.lift
    q = params.q
    entries = [q.cmod((2 * v + lift) // (2 * lift))
               for v in scaled.column_entries()]
    return ModMatrix.column(entries, q)
