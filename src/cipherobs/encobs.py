"""Encrypted observer: the modified encryption scheme, the batched
ciphertext recursion, residue disclosure, and encrypted state recovery.

One residue channel is run per row of the residue map.  All channels share
each step's randomness block and masking term; they differ only in the
cancellation column derived from their own zero-dynamics, which forces the
mask contribution of every residue's first column to zero.  That recursion
is written once, as `ObserverPublic.cancel_initial` and `cancel_step`.
After step 0 channel j cancels with one scalar c_j at one row k_j, and its
cancelled state steps as b_j' = Fbar b_j + Gbar x - c_j Gbar[:, k_j]
(`ObserverPublic.column_step`), in plain ints that are never reduced.

Channel j's modified ciphertext is the standard one with its first column
split as `[first - cancel_j | shared | cancel_j]`; only `modified_channels`
forms that difference.  Each input batch and the observer state are one
matrix `[first | shared | cancels]`, the standard ciphertext and then every
channel's cancel column, and one observer step is one application of
`Z' = Fbar Z + Gbar V` to all of it.  The residue reads the first and
cancel columns as they are, and one decryption, first - shared sk, serves
every channel.

Batches and states are int64 limbs of `LimbKernel` and nothing else: the
encryptor draws the shared randomness block straight into them and
`EncryptedBatch._write` splits the first and cancel columns beside it.
Python ints appear only when a channel is materialized (`channel(j)` joins
and centres the whole body once per batch or state) and in the residue's
and the recovery's sums, which are summed in int64 on digits of the limbs.
This module is the only one that knows the limb layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul, sub
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .lwe import (
    Ciphertext,
    CiphertextKind,
    NoiseParams,
    SecretKey,
    SecureRng,
    encrypt_with_artifacts,
)
from .modring import DimensionMismatch, ModMatrix, Modulus, \
    ModulusMismatch, digit_planes, join_limbs, split_limbs
from .quantobs import ModularMaps, QuantParams, shift_sources
from .zerodyn import ChannelMaps, channel_maps

__all__ = [
    "EncObsError",
    "SessionNotFresh",
    "LimbKernel",
    "observer_update",
    "ObserverPublic",
    "EncryptedBatch",
    "modified_channels",
    "StepArtifacts",
    "EncryptorSession",
    "EncObserverState",
    "step_encrypted",
    "residue_first_column",
    "disclose_residue",
    "recover_encrypted_state",
    "build_fbar",
]


class EncObsError(Exception):
    pass


class SessionNotFresh(EncObsError):
    pass


def observer_update(Z: np.ndarray, V: np.ndarray, block_sizes: Sequence[int],
                    gain: np.ndarray) -> np.ndarray:
    """Z' = Fbar Z + Gbar V on limb stacks: Z is (L, l, w), V is (L, h, w)
    and `gain` is Gbar as an l x h int64 array.

    Fbar is the block lower shift, so its action is a row shift inside each
    block; the result is identical to a dense product, limb by limb.  Limbs
    are added without carry or reduction (`LimbKernel` bounds them).  Every
    column runs the same recursion, so one call steps every channel.
    """
    if (Z.shape[0] != V.shape[0] or Z.shape[2] != V.shape[2]
            or gain.shape != (Z.shape[1], V.shape[1])
            or sum(block_sizes) != Z.shape[1]):
        raise EncObsError("dimension mismatch in observer update")
    out = np.matmul(gain, V)
    o = 0
    for li in block_sizes:
        out[:, o + 1:o + li] += Z[:, o:o + li - 1]
        o += li
    return out


@dataclass(frozen=True, eq=False)
class LimbKernel:
    """The observer recursion over Z_q on exact int64 limbs.

    An entry x is held as L limbs of width W with x = sum_k limb_k 2^(W k)
    (mod q).  Fbar is nilpotent, so every state entry is a sum of at most
    b_max (the largest block size) Gbar V terms plus one initial entry.  With
    input limbs below 2^W in absolute value, every state limb therefore stays
    within (b_max ||Gbar||_inf + 1) 2^W for any number of steps.  W is the
    largest width that keeps this bound under 2^63, so the recursion never
    carries between limbs or reduces; values are reduced mod q only when
    joined.  This holds for every q.
    """

    q: Modulus
    gain: np.ndarray    # Gbar, l x h int64
    width: int          # W
    count: int          # L = ceil(q.bit_length() / W)

    @classmethod
    def build(cls, block_sizes: Sequence[int], Gbar: ModMatrix) -> "LimbKernel":
        if sum(block_sizes) != Gbar.nrows:
            raise EncObsError("block sizes do not cover the observer state")
        growth = max(block_sizes, default=0) * Gbar.inf_norm() + 1
        width = 63 - growth.bit_length()
        if width < 1:
            raise EncObsError(
                f"no int64 limb width fits Gbar (infinity norm "
                f"{Gbar.inf_norm()}, largest block {max(block_sizes)})")
        q = Gbar.modulus
        gain = np.array(Gbar.rows, dtype=np.int64).reshape(Gbar.shape)
        return cls(q=q, gain=gain, width=width,
                   count=-(-q.q.bit_length() // width))

    def split(self, rows: Sequence[Sequence[int]]) -> np.ndarray:
        """Limb stack (L, rows, cols) of a matrix of centred entries."""
        ncols = len(rows[0]) if rows else 0
        flat = [a for row in rows for a in row]
        return split_limbs(flat, self.width, self.count).reshape(
            self.count, len(rows), ncols)

    def join(self, limbs: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
        """Rows of Python ints congruent mod q to the matrix a limb stack
        (L, rows, cols) holds; not reduced, so reduce before comparing."""
        _, nrows, ncols = limbs.shape
        flat = join_limbs(limbs.reshape(self.count, -1), self.width)
        return tuple(tuple(flat[i * ncols:(i + 1) * ncols])
                     for i in range(nrows))


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
    block_sizes: Tuple[int, ...]
    Fbar: ModMatrix
    Gbar: ModMatrix
    Hbar: ModMatrix
    channels: Tuple[ChannelMaps, ...]

    @classmethod
    def build(cls, maps: ModularMaps, params: QuantParams) -> "ObserverPublic":
        """The public data for `maps` at the LWE dimension `params.N`."""
        q = maps.Gbar.modulus
        Fbar = build_fbar(maps.block_sizes, q)
        channels = tuple(channel_maps(maps.Hbar.row(j), Fbar, maps.Gbar)
                         for j in range(maps.Hbar.nrows))
        return cls(q=q, N=params.N, block_sizes=maps.block_sizes, Fbar=Fbar,
                   Gbar=maps.Gbar, Hbar=maps.Hbar, channels=channels)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @cached_property
    def kernel(self) -> LimbKernel:
        """The observer recursion on int64 limbs for these maps."""
        return LimbKernel.build(self.block_sizes, self.Gbar)

    @cached_property
    def _hbar_digits(self) -> Tuple[int, int, np.ndarray]:
        """(d, w, planes): Hbar as (P_H, n_ch, l) digit planes of width w,
        each below 2^e in absolute value (one plane for small entries), and
        the largest limb digit width d with l 2^d 2^e < 2^63."""
        l = self.Hbar.ncols
        budget = 63 - l.bit_length()
        bits = self.Hbar.max_abs().bit_length()
        e = min(bits, budget // 2)
        w, count = (bits + 1, 1) if e == bits else (e, -(-(bits + 1) // e))
        planes = split_limbs(self.Hbar.flat(), w, count)
        return budget - e, w, planes.reshape(count, self.Hbar.nrows, l)

    @cached_property
    def _columns(self):
        """Each row's index in (0,) + b for Fbar b, and Gbar's columns."""
        return shift_sources(self.block_sizes), tuple(zip(*self.Gbar.rows))

    def column_step(self, b: Tuple[int, ...], shared: Sequence[int], c: int,
                    k: int) -> Tuple[int, ...]:
        """b' = Fbar b + shared - c Gbar[:, k] in plain ints, not reduced.

        A cancelled state steps so with shared = Gbar x.  Fbar is nilpotent,
        so an entry sums at most b_max terms: input terms, each at most
        (||Gbar||_inf + max|Gbar|) (q-1)/2 for centred x and c, or the
        initial x - cancel, at most q - 1 (no more for nonzero Gbar).  So
        every entry stays within b_max (||Gbar||_inf + max|Gbar|) (q-1)/2.
        """
        shift, gain = self._columns
        padded = (0,) + b
        return tuple([padded[i] + a - c * g
                      for i, a, g in zip(shift, shared, gain[k])])

    def cancel_initial(self, x: ModMatrix):
        """Every channel's initial cancellation of the column x.

        Channel j's term is tilde_j = T2_j x, the chain coordinates of x,
        and its cancel column is V2_j tilde_j, so x minus that column has
        zero chain coordinates.  Returns (tildes, cancels, B) with B the
        cancelled states x - cancel_j, one int tuple per channel.
        """
        tildes = [m.T2 @ x for m in self.channels]
        cancels = [(m.V2 @ tilde).column_entries()
                   for m, tilde in zip(self.channels, tildes)]
        xs = x.column_entries()
        return tildes, cancels, tuple(tuple(map(sub, xs, c)) for c in cancels)

    def cancel_step(self, B: Tuple[Tuple[int, ...], ...], x: ModMatrix):
        """One step of every channel's cancellation of the input column x.

        B[j] is channel j's cancelled state; its chain coordinates are
        zero, so channel j's term is tilde_j = H_j F^nu_j B[j] + Sigma_j x
        and its cancel column c_j e_k_j with c_j = s_j tilde_j.  Returns
        (tildes, cancels, B') with B'[j] the `column_step` of B[j].
        """
        q = self.q
        xs = x.column_entries()
        shared = tuple(sum(map(mul, row, xs)) for row in self.Gbar.rows)
        tildes, cancels, nxt = [], [], []
        for m, b in zip(self.channels, B):
            t = q.cmod(sum(map(mul, m.HFnu.rows[0], b))
                       + sum(map(mul, m.Sigma.rows[0], xs)))
            c = q.cmod(m.s * t)
            tildes.append(t)
            cancels.append(m.cancel_column(c))
            nxt.append(self.column_step(b, shared, c, m.k))
        return tildes, cancels, tuple(nxt)


class _ChannelBody:
    """A matrix over all channels laid out as `[first | shared | cancels]`.

    Columns 0..N are a standard ciphertext, common to every channel, and
    column N + 1 + j is channel j's cancel column.  `body` holds the matrix
    as the (L, rows, N + 1 + n_ch) int64 limb stack of `kernel`, and `rows`
    as centred Python ints, joined from the limbs once on first use.  The
    layout stays inside this module: other modules read a channel only
    through `channel(j)`.
    """

    def __init__(self, body: np.ndarray, n_channels: int,
                 kernel: LimbKernel):
        self.body = body
        self.n_channels = n_channels
        self.kernel = kernel

    @property
    def N(self) -> int:
        return self.body.shape[-1] - 1 - self.n_channels

    @cached_property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        cmod = self.kernel.q.cmod
        return tuple(tuple(map(cmod, row))
                     for row in self.kernel.join(self.body))

    def channel(self, j: int) -> Ciphertext:
        """Channel j's modified ciphertext, from `modified_channels`."""
        if not 0 <= j < self.n_channels:
            raise EncObsError(f"no channel {j} among {self.n_channels}")
        N = self.N
        std = Ciphertext(body=ModMatrix(tuple(row[:N + 1] for row in self.rows),
                                        self.kernel.q, ncols=N + 1,
                                        _reduced=True),
                         kind=CiphertextKind.STANDARD, N=N)
        return modified_channels(std, [tuple(row[N + 1 + j]
                                             for row in self.rows)])[0]


class EncryptedBatch(_ChannelBody):
    """Per-step modified ciphertexts for all channels: the standard
    ciphertext and every channel's cancel column.  Every limb is below 2^W
    in absolute value, the kernel's input bound."""

    @classmethod
    def _write(cls, first: Sequence[int], cancels: Sequence[Tuple[int, ...]],
               kernel: LimbKernel,
               body: Optional[np.ndarray] = None) -> "EncryptedBatch":
        """Split the first column and the cancel columns into `body`, whose
        shared block already holds the randomness; without `body`, the
        batch has no shared block (N = 0)."""
        n_ch = len(cancels)
        limbs = kernel.split([(f,) + c for f, c in zip(first, zip(*cancels))])
        if body is None:
            return cls(limbs, n_ch, kernel)
        body[:, :, :1] = limbs[:, :, :1]
        body[:, :, body.shape[-1] - n_ch:] = limbs[:, :, 1:]
        return cls(body, n_ch, kernel)


def modified_channels(std_ct: Ciphertext,
                      cancels: Sequence[Tuple[int, ...]]
                      ) -> Tuple[Ciphertext, ...]:
    """Channel j's modified ciphertext [first - cancel_j | shared | cancel_j]
    for each cancellation column cancel_j of the standard ciphertext
    `std_ct`, as Python ints."""
    q, N = std_ct.body.modulus, std_ct.N
    return tuple(
        Ciphertext(body=ModMatrix(
            tuple((q.cmod(row[0] - a),) + row[1:] + (a,)
                  for row, a in zip(std_ct.body.rows, cancel)),
            q, ncols=N + 2, _reduced=True),
            kind=CiphertextKind.MODIFIED, N=N)
        for cancel in cancels)


@dataclass
class StepArtifacts:
    """Trusted-encryptor record of one encryption: mask, error, the
    standard ciphertext, and every channel's cancellation column.  Only
    kept when a session is created with record_artifacts=True."""

    mask: ModMatrix
    error: ModMatrix
    standard_ct: Ciphertext
    cancels: Tuple[Tuple[int, ...], ...]


class EncryptorSession:
    """Stateful trusted encryptor for one observer run.

    Holds every channel's cancelled mask state B, one immutable int tuple
    per channel: B[j] is the mask part of channel j's observer state once
    its cancellation is applied, as `ObserverPublic.cancel_initial` and
    `cancel_step` compute it with the mask as their input.  Losing a step
    invalidates the session, so B can be checkpointed and restored.
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
        self.cancel_state: Optional[Tuple[Tuple[int, ...], ...]] = None
        self.artifacts: List[StepArtifacts] = []

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> dict:
        return {"step": self.step, "cancel_state": self.cancel_state}

    def restore(self, snap: dict):
        """Return to `snap`, dropping the artifacts of the steps after it."""
        self.step = snap["step"]
        self.cancel_state = snap["cancel_state"]
        del self.artifacts[self.step + 1:]

    # -- encryption --------------------------------------------------------

    def _encrypt(self, v: ModMatrix, cancel) -> EncryptedBatch:
        """Encrypt the lifted column v for every channel: the randomness is
        drawn straight into the shared block of a new batch body, and
        `cancel(mask)` gives the cancel columns and the next cancelled mask
        state.  Records the step's artifacts on request."""
        public, kernel = self.public, self.public.kernel
        N = public.N
        body = np.empty((kernel.count, v.nrows, N + 1 + public.n_channels),
                        dtype=np.int64)
        enc = encrypt_with_artifacts(v.scale(self.params.lift), self.sk,
                                     self.noise, self.rng,
                                     body[:, :, 1:N + 1], kernel.width)
        _, cancels, self.cancel_state = cancel(enc.mask)
        if self.record_artifacts:
            self.artifacts.append(StepArtifacts(
                mask=enc.mask, error=enc.error, standard_ct=enc.ciphertext(),
                cancels=tuple(cancels)))
        return EncryptedBatch._write(enc.first.column_entries(), cancels,
                                     kernel, body)

    def enc_initial(self, zbar_ini: ModMatrix) -> EncryptedBatch:
        """Encrypt the lifted initial state once for every channel."""
        if self.step != -1:
            raise SessionNotFresh("enc_initial may only be called once")
        batch = self._encrypt(zbar_ini, self.public.cancel_initial)
        self.step = 0
        return batch

    def enc_input(self, vbar: ModMatrix) -> EncryptedBatch:
        """Encrypt the lifted input for every channel and advance the
        cancelled mask states."""
        if self.step < 0:
            raise EncObsError("call enc_initial before enc_input")
        batch = self._encrypt(vbar, lambda mask: self.public.cancel_step(
            self.cancel_state, mask))
        self.step += 1
        return batch


class EncObserverState(_ChannelBody):
    """Encrypted observer state for all channels at one step.

    Channel j's logical state is the l x (N+2) matrix `channel(j).body`;
    its decryption is the lifted plaintext state plus the encryption error.
    The limbs are lazy from the first step on (not reduced, not
    canonical), so states compare only through the values `channel(j)`
    materializes.
    """

    @classmethod
    def from_initial(cls, batch: EncryptedBatch) -> "EncObserverState":
        return cls(batch.body, batch.n_channels, batch.kernel)


def _check_limbs(kernel: LimbKernel, *parts: _ChannelBody):
    """Every part must hold limbs of `kernel`'s modulus and width."""
    for part in parts:
        if (part.kernel.q, part.kernel.width) != (kernel.q, kernel.width):
            raise EncObsError("limbs come from another observer")


def step_encrypted(state: EncObserverState, batch: EncryptedBatch,
                   public: ObserverPublic) -> EncObserverState:
    """One encrypted observer update for every channel: the observer
    recursion applied to the whole `[first | shared | cancels]` limb stack
    of the state and the batch."""
    if (batch.n_channels, batch.N) != (state.n_channels, state.N):
        raise EncObsError("channel counts or widths differ between state "
                          "and batch")
    kernel = public.kernel
    _check_limbs(kernel, state, batch)
    body = observer_update(state.body, batch.body, public.block_sizes,
                           kernel.gain)
    return EncObserverState(body, state.n_channels, kernel)


def _first_column_dots(first: np.ndarray, cancels: np.ndarray, width: int,
                       d: int, h_width: int, h_planes: np.ndarray) -> List[int]:
    """Hbar_j first - Hbar_j cancel_j per channel j, exact, from the (L, l)
    first-column limbs, the (L, l, n_ch) cancel-column limbs and Hbar's
    digit planes: every d-bit digit plane of the limbs meets every Hbar
    plane in int64, and only the sums are joined.  Each sum has l terms, so
    it is exact when l 2^d 2^e < 2^63 for Hbar digits below 2^e; a lazy sum
    may come near 2^63, so the two terms are subtracted as Python ints."""
    L, l, n_ch = cancels.shape
    # lazy limbs: any int64 value
    f_digits = digit_planes(first, d, 63)
    f_sums = np.einsum("ai,mji->jam", f_digits.reshape(-1, l), h_planes)
    c_sums = np.einsum("aij,mji->jam", digit_planes(cancels, d, 63).reshape(
        -1, l, n_ch), h_planes)
    shifts = np.array([d * p + width * k + h_width * m
                       for p in range(len(f_digits)) for k in range(L)
                       for m in range(len(h_planes))], dtype=object)
    diff = f_sums.reshape(n_ch, -1).astype(object) - c_sums.reshape(n_ch, -1)
    return (diff << shifts).sum(axis=1).tolist()


def residue_first_column(state: EncObserverState,
                         public: ObserverPublic) -> ModMatrix:
    """First column of the encrypted residue (cheap per-step path): channel
    j's residue row on its first column, first - cancel_j, summed on digit
    planes of limbs."""
    _check_limbs(public.kernel, state)
    return ModMatrix.column(_first_column_dots(
        state.body[:, :, 0], state.body[:, :, state.N + 1:],
        public.kernel.width, *public._hbar_digits), public.q)


def disclose_residue(r1: ModMatrix, params: QuantParams) -> ModMatrix:
    """Recover the plaintext residue by multiplying with lift^-1 mod q."""
    q = params.q
    if gcd(params.lift, q.q) != 1:
        raise EncObsError("lift shares a factor with the modulus")
    inv = q.inv(params.lift)
    return r1.scale(inv)


def recover_encrypted_state(state: EncObserverState, j: int, sk: SecretKey,
                            params: QuantParams,
                            phi_pinv_bar: ModMatrix) -> ModMatrix:
    """Decrypt channel j and strip the lift factor by exact rounding.

    Dec' of channel j is (first - cancel_j) - shared @ sk + cancel_j, that
    is first - shared @ sk for every j, so j is only checked.  The product
    is computed without joining the shared block: `SecretKey.products`
    sums it from d-bit digits of the state's limbs and the key's cached
    digits exactly in int64, and only the l sums are joined as Python ints.

    When the detection criterion held at this step (and the parameter
    bounds are valid) the result equals the plaintext observer's scaled
    estimate bit for bit; otherwise it is still returned and the caller
    decides how much to trust it.
    """
    if not 0 <= j < state.n_channels:
        raise EncObsError(f"no channel {j} among {state.n_channels}")
    N = state.N
    if sk.N != N:
        raise DimensionMismatch("ciphertext and key disagree on N")
    if sk.q != state.kernel.q:
        raise ModulusMismatch("ciphertext and key disagree on q")
    q = params.q
    first = state.kernel.join(state.body[:, :, :1])
    # lazy limbs may take any int64 value
    masked = sk.products(state.body[:, :, 1:N + 1], state.kernel.width, 63)
    dec = ModMatrix.column([f - s for (f,), s in zip(first, masked)], q)
    scaled = phi_pinv_bar @ dec
    lift = params.lift
    entries = [q.cmod((2 * v + lift) // (2 * lift))
               for v in scaled.column_entries()]
    return ModMatrix.column(entries, q)
