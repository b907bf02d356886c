"""Encrypted observer: the modified encryption scheme, the batched
ciphertext recursion, residue disclosure, and encrypted state recovery.

One residue channel is run per row of the residue map.  All channels share
each step's randomness block and masking term; they differ only in the
cancel column derived from their own zero-dynamics, which keeps the mask
out of every residue's first column.  Channel j's modified ciphertext is
the standard one with its first column split as
`[first - cancel_j | shared | cancel_j]`; only `modified_channels` forms
that difference.

The observer is one recursion, `Z' = Fbar Z + Gbar V` (`observer_update`),
on the int64 limbs of `LimbKernel`; its `Gbar V` is one einsum, which
numpy runs faster than its int64 matmul (that has no BLAS path).  Each
input batch and the observer state are one matrix
`[first | shared | cancels]`: the standard ciphertext, then every
channel's cancel column.  The cancellation
(`ObserverPublic.cancel_initial` and `cancel_step`) steps `[m | cancels]`,
the same layout with no shared block, through the same recursion, and
after step 0 cancels channel j with one scalar at one row.  It and the
residue take their per-channel dot products from `_first_column_dots`.  One
decryption, first - shared sk, serves every channel.

Python ints appear only when a channel is materialized (`channel(j)`), for
the cancellation's scalars, and in the residue's and recovery's sums, which
are summed exactly on the 32-bit halves of the limbs and joined by
`modring.join_digit_sums`: in float64 against digits of the key, and in
one int64 einsum against digits of Hbar, on the differences of the first
column's halves and each cancel column's, which stay below 2^32.  This
module is the only one that knows the limb layout.

A run is recorded only as its batches: `standard_and_cancels` reads what
View 2 holds of one, and `EncryptedBatch._write` turns that back into a
batch, so the transcript rebuilds every encrypted state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul
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
    ModulusMismatch, digit_budget, fixed_digits, half_limbs, \
    join_digit_sums, join_limbs, split_limbs
from .quantobs import ModularMaps, QuantParams
from .zerodyn import ChannelMaps, channel_maps

__all__ = [
    "EncObsError",
    "SessionNotFresh",
    "LimbKernel",
    "observer_update",
    "ObserverPublic",
    "EncryptedBatch",
    "modified_channels",
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
    out = np.einsum("ik,lkw->liw", gain, V)
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
    def _hbar_digits(self) -> Tuple[int, np.ndarray]:
        return _row_digits(self.Hbar)

    @cached_property
    def _chains(self):
        """Every T2_j stacked into one matrix, and each V2_j as the
        (row, entries) pairs of its nonzero rows."""
        T2 = ModMatrix(tuple(row for m in self.channels for row in m.T2.rows),
                       self.q, ncols=self.Fbar.ncols, _reduced=True)
        V2 = tuple(tuple((i, row) for i, row in enumerate(m.V2.rows)
                         if any(row)) for m in self.channels)
        return T2, V2

    @cached_property
    def _chain_ends(self):
        """`_row_digits` of the rows R_j = H_j F^(nu_j - 1), the last rows
        of the T2_j, and every channel's k_j and s_j."""
        R = ModMatrix(tuple(m.T2.rows[-1] for m in self.channels), self.q,
                      ncols=self.Fbar.ncols, _reduced=True)
        return (_row_digits(R), np.array([m.k for m in self.channels]),
                tuple(m.s for m in self.channels))

    def cancel_initial(self, x: ModMatrix, known=None):
        """Every channel's initial cancellation of the column x.

        Channel j's cancel column is V2_j (T2_j x - known_j), so x minus it
        has chain coordinates known_j (default 0).  Every T2_j x comes from
        one product with the stacked T2_j, and each V2_j is applied on its
        nonzero rows only (one row when nu_j = 1).  Returns (block, state):
        the (L, l, n_ch) limbs of the cancel columns, and the state
        [x | cancels] that `cancel_step` steps.
        """
        q, kernel = self.q, self.kernel
        T2, V2 = self._chains
        chains = iter((T2 @ x).column_entries())
        cancels = [[0] * self.n_channels for _ in range(x.nrows)]
        for j, (m, rows) in enumerate(zip(self.channels, V2)):
            tilde = [next(chains) - (known[j][i] if known else 0)
                     for i in range(m.nu)]
            for i, row in rows:
                cancels[i][j] = q.cmod(sum(map(mul, row, tilde)))
        block = kernel.split(cancels)
        return block, EncObserverState(
            np.concatenate([kernel.split(x.rows), block], axis=2),
            self.n_channels, kernel)

    def cancel_step(self, state: "EncObserverState", x: ModMatrix,
                    known=None):
        """One step of every channel's cancellation of the input column x.

        `state` is [m | cancels], so channel j's cancelled state m - cancel_j
        has zero chain coordinates.  It steps with [x | 0]; then the chain's
        bottom is tilde_j = R_j (m' - cancel_j') - known_j, and channel j
        cancels c_j = s_j tilde_j at row k_j.  Returns (block, state'): the
        (L, h, n_ch) limbs of the columns c_j e_k_j, and the state with
        `Gbar @ block` added to its cancel columns.
        """
        kernel, n_ch = self.kernel, self.n_channels
        (e, planes), ks, ss = self._chain_ends
        drive = np.zeros((kernel.count, x.nrows, 1 + n_ch), dtype=np.int64)
        drive[:, :, :1] = kernel.split(x.rows)
        body = observer_update(state.body, drive, self.block_sizes,
                               kernel.gain)
        dots = _first_column_dots(body[:, :, 0], body[:, :, 1:],
                                  kernel.width, e, planes)
        block = np.zeros((kernel.count, x.nrows, n_ch), dtype=np.int64)
        block[:, ks, np.arange(n_ch)] = split_limbs(
            [self.q.cmod(s * (a - b))
             for s, a, b in zip(ss, dots, known or (0,) * n_ch)],
            kernel.width, kernel.count)
        body[:, :, 1:] += np.einsum("ik,lkw->liw", kernel.gain, block)
        return block, EncObserverState(body, n_ch, kernel)


def _row_digits(rows: ModMatrix) -> Tuple[int, np.ndarray]:
    """(e, planes): `rows` as (P, n, l) `fixed_digits` of width
    e = `digit_budget(l, 63)` - 32, each below 2^e in absolute value (one
    plane for small entries), so l 2^32 2^e <= 2^63 for the 32-bit half
    limbs they meet."""
    e = digit_budget(rows.ncols, 63) - 32
    planes = fixed_digits(rows.flat(), rows.max_abs().bit_length(), e)
    return e, planes.reshape(len(planes), rows.nrows, rows.ncols)


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

    def standard_and_cancels(self) -> Tuple[Ciphertext,
                                            Tuple[Tuple[int, ...], ...]]:
        """The standard ciphertext `[first | shared]` and every channel's
        cancel column, as Python ints: what View 2 records of a batch."""
        N = self.N
        std = Ciphertext(body=ModMatrix(tuple(row[:N + 1] for row in self.rows),
                                        self.kernel.q, ncols=N + 1,
                                        _reduced=True),
                         kind=CiphertextKind.STANDARD, N=N)
        return std, tuple(zip(*(row[N + 1:] for row in self.rows)))

    def channel(self, j: int) -> Ciphertext:
        """Channel j's modified ciphertext, from `modified_channels`."""
        if not 0 <= j < self.n_channels:
            raise EncObsError(f"no channel {j} among {self.n_channels}")
        std, cancels = self.standard_and_cancels()
        return modified_channels(std, cancels[j:j + 1])[0]


class EncryptedBatch(_ChannelBody):
    """Per-step modified ciphertexts for all channels: the standard
    ciphertext and every channel's cancel column.  Every limb is below 2^W
    in absolute value, the kernel's input bound."""

    @classmethod
    def _write(cls, std_rows: Sequence[Tuple[int, ...]],
               cancels: Sequence[Tuple[int, ...]],
               kernel: LimbKernel) -> "EncryptedBatch":
        """The batch of the standard ciphertext's rows, or of just their
        first entries (a batch with no shared block, N = 0), and the
        cancel columns."""
        limbs = kernel.split([row + c
                              for row, c in zip(std_rows, zip(*cancels))])
        return cls(limbs, len(cancels), kernel)


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


class EncryptorSession:
    """Stateful trusted encryptor for one observer run.

    `cancel_state` is the `[m | cancels]` state of `ObserverPublic`'s
    cancellation driven by the masks, so m - cancel_j is the mask part of
    channel j's observer state; each step's cancel block goes into the
    batch as it is.  The batches are the only record of the run: the
    session keeps no mask, error or ciphertext.  The state is never
    written in place, so a checkpoint keeps it; losing a step invalidates
    the session.
    """

    def __init__(self, sk: SecretKey, params: QuantParams,
                 public: ObserverPublic, rng=None):
        if sk.N != public.N:
            raise EncObsError("secret key length differs from configured N")
        self.sk = sk
        self.params = params
        self.public = public
        self.noise = NoiseParams(params.Delta)
        self.rng = rng if rng is not None else SecureRng()
        self.step = -1  # -1 = fresh, >= 0 after enc_initial
        self.cancel_state: Optional[EncObserverState] = None

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> dict:
        return {"step": self.step, "cancel_state": self.cancel_state}

    def restore(self, snap: dict):
        self.step = snap["step"]
        self.cancel_state = snap["cancel_state"]

    # -- encryption --------------------------------------------------------

    def _encrypt(self, v: ModMatrix, nrows: int, cancel) -> EncryptedBatch:
        """Encrypt the lifted column v for every channel: the randomness is
        drawn straight into the shared block of a new batch body, and
        `cancel(mask)` gives the cancel block and the next cancel state.
        A v without `nrows` rows is refused before anything is drawn."""
        if v.nrows != nrows:
            raise EncObsError(f"message has {v.nrows} rows, the observer "
                              f"takes {nrows}")
        public, kernel = self.public, self.public.kernel
        N = public.N
        body = np.empty((kernel.count, nrows, N + 1 + public.n_channels),
                        dtype=np.int64)
        enc = encrypt_with_artifacts(v.scale(self.params.lift), self.sk,
                                     self.noise, self.rng,
                                     body[:, :, 1:N + 1], kernel.width)
        block, self.cancel_state = cancel(enc.mask)
        body[:, :, :1] = kernel.split(enc.first.rows)
        body[:, :, N + 1:] = block
        return EncryptedBatch(body, public.n_channels, kernel)

    def enc_initial(self, zbar_ini: ModMatrix) -> EncryptedBatch:
        """Encrypt the lifted initial state (l rows) once for every
        channel."""
        if self.step != -1:
            raise SessionNotFresh("enc_initial may only be called once")
        batch = self._encrypt(zbar_ini, self.public.Gbar.nrows,
                              self.public.cancel_initial)
        self.step = 0
        return batch

    def enc_input(self, vbar: ModMatrix) -> EncryptedBatch:
        """Encrypt the lifted input (h rows) for every channel and advance
        the cancel state."""
        if self.step < 0:
            raise EncObsError("call enc_initial before enc_input")
        batch = self._encrypt(vbar, self.public.Gbar.ncols,
                              lambda mask: self.public.cancel_step(
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
                       e: int, h_planes: np.ndarray) -> List[int]:
    """Hbar_j (first - cancel_j) per channel j, exact, from the (L, l)
    first-column limbs, the (L, l, n_ch) cancel-column limbs and Hbar's
    e-bit digit planes: the limbs' `half_limbs` differ by less than 2^32,
    so one int64 einsum of the differences is exact if l 2^32 2^e <= 2^63."""
    diff = (half_limbs(first[..., None], np.int64)
            - half_limbs(cancels, np.int64))
    return join_digit_sums(np.einsum("hkij,mji->jhkm", diff, h_planes),
                           width, e)


def residue_first_column(state: EncObserverState,
                         public: ObserverPublic) -> ModMatrix:
    """First column of the encrypted residue (cheap per-step path): channel
    j's residue row on its first column, first - cancel_j, summed on the
    half limbs."""
    _check_limbs(public.kernel, state)
    return ModMatrix.column(_first_column_dots(
        state.body[:, :, 0], state.body[:, :, state.N + 1:],
        public.kernel.width, *public._hbar_digits), public.q)


def disclose_residue(r1: ModMatrix, params: QuantParams) -> ModMatrix:
    """Recover the plaintext residue by multiplying with lift^-1 mod q."""
    q = params.q
    if r1.modulus != q:
        raise ModulusMismatch("residue and parameters disagree on q")
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
    sums it exactly in one float64 product of the 32-bit halves of the
    state's lazy limbs and the key's cached dk-bit digits (at N = 4096,
    13 digits of 9 bits), and only the l sums are joined as Python ints.

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
    q = state.kernel.q
    if sk.q != q:
        raise ModulusMismatch("ciphertext and key disagree on q")
    if params.q != q or phi_pinv_bar.modulus != q:
        raise ModulusMismatch("ciphertext and recovery maps disagree on q")
    first = state.kernel.join(state.body[:, :, :1])
    masked = sk.products(state.body[:, :, 1:N + 1], state.kernel.width)
    dec = ModMatrix.column([f - s for (f,), s in zip(first, masked)], q)
    scaled = phi_pinv_bar @ dec
    lift = params.lift
    entries = [q.cmod((2 * v + lift) // (2 * lift))
               for v in scaled.column_entries()]
    return ModMatrix.column(entries, q)
