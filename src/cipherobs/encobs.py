"""Encrypted observer: the modified encryption scheme, the batched
ciphertext recursion, residue disclosure, and encrypted state recovery.

One residue channel is run per row of the residue map.  All channels share
each step's randomness block and masking term; they differ only in the
cancel column derived from their own zero-dynamics, which keeps the mask
out of every residue's first column.  Channel j's modified ciphertext is
the standard one with its first column split as
`[first - cancel_j | shared | cancel_j]`; only `modified_channels` forms
that difference.

The observer is one recursion, `Z' = Fbar Z + Gbar V`, the
`quantobs.BlockGain` that quantized mode steps too (`ModularMaps.gain`).
It owns the int64 limbs too: it splits, steps (one shift and one `G @ V`
per step) and joins them, at a limb width it derives from Gbar.
Each batch holds the limbs of `[first | cancels]` (the standard
ciphertext's first column, then every channel's cancel column) beside the
randomness block A, kept as the sampler's uint64 words.  The observer
state is narrow: `step_encrypted` steps only the limbs, the only columns
a residue reads.  The state's shared block S_t = Fbar S_(t-1) + Gbar A_t
is a function of the public randomness alone, and Fbar^b = 0 for the
largest block size b, so the state keeps references to its last b
batches instead (`EncObserverState.window`), and recovery replays their
A sk to S_t sk.  A batch's step index refuses a missed, repeated or
reordered batch.
The cancellation (`ObserverPublic.cancel_initial` and `cancel_step`) steps
`[m | cancels]`, the same narrow layout, through the same recursion, and
after step 0 cancels channel j with one scalar c_j at one row k_j, which it
steps as one outer product, G[:, k_j] times c_j.  It and the residue take
their per-channel dot products from `_first_column_dots`.  One decryption,
first - S_t sk, serves every channel.

Python ints appear only for the first and cancel columns when View 2
reads or writes a batch (A stays words, also on the wire), for the
cancellation's scalars, in the residue's sums, and in recovery.  The
residue is summed exactly in one int64 einsum of the 32-bit halves of the
first and cancel columns' limbs against digits of Hbar, on differences
that stay below 2^32, and joined by `modring.join_digit_sums`.  Recovery
takes each batch's A sk mod q from the key's per-batch cache, which the
encrypting key holds from encryption on (`SecretKey.seed_products`) and
any other key computes once (`cached_products`), and replays the window's
values through the recursion in Python ints (`BlockGain.step_ints`).
This module is the only one that knows the batch layout.

A run is recorded only as its batches: `standard_and_cancels` reads what
View 2 holds of one, and `EncryptedBatch._write` turns that back into
batch t, so the transcript rebuilds every encrypted state
(`secviews.View2.states`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .lwe import (
    Ciphertext,
    NoiseParams,
    SecretKey,
    SecureRng,
    encrypt_with_artifacts,
    words_of,
)
from .modring import DimensionMismatch, ModMatrix, Modulus, \
    ModulusMismatch, digit_budget, fixed_digits, half_limbs, \
    join_digit_sums, split_limbs
from .quantobs import BlockGain, ModularMaps, QuantParams
from .zerodyn import ChannelMaps, channel_maps

__all__ = [
    "EncObsError",
    "SessionNotFresh",
    "ObserverPublic",
    "EncryptedBatch",
    "modified_channels",
    "EncryptorSession",
    "EncObserverState",
    "step_encrypted",
    "residue_first_column",
    "disclose_residue",
    "recover_encrypted_state",
]


class EncObsError(Exception):
    pass


class SessionNotFresh(EncObsError):
    pass


@dataclass(frozen=True)
class ObserverPublic:
    """Everything public the encrypted observer needs: the observer maps
    over Z_q plus each residue channel's closed-form cancellation maps."""

    q: Modulus
    N: int
    gain: BlockGain     # the observer recursion, `ModularMaps.gain`
    Hbar: ModMatrix
    channels: Tuple[ChannelMaps, ...]

    @classmethod
    def build(cls, maps: ModularMaps, params: QuantParams) -> "ObserverPublic":
        """The public data for `maps` at the LWE dimension `params.N`."""
        gain = maps.gain
        channels = tuple(channel_maps(maps.Hbar.row(j), gain.Fbar, gain.Gbar)
                         for j in range(maps.Hbar.nrows))
        return cls(q=gain.Gbar.modulus, N=params.N, gain=gain,
                   Hbar=maps.Hbar, channels=channels)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @cached_property
    def _hbar_digits(self) -> Tuple[int, np.ndarray]:
        return _row_digits(self.Hbar)

    @cached_property
    def _chains(self):
        """Every T2_j stacked into one matrix, and each V2_j as the
        (row, entries) pairs of its nonzero rows."""
        T2 = ModMatrix(tuple(row for m in self.channels for row in m.T2.rows),
                       self.q, ncols=self.gain.Gbar.nrows, _reduced=True)
        V2 = tuple(tuple((i, row) for i, row in enumerate(m.V2.rows)
                         if any(row)) for m in self.channels)
        return T2, V2

    @cached_property
    def _chain_ends(self):
        """`_row_digits` of the rows R_j = H_j F^(nu_j - 1), the last rows
        of the T2_j, every channel's k_j and s_j, and the (l, n_ch) gain
        columns G[:, k_j]: a cancel block is nonzero only at rows k_j."""
        R = ModMatrix(tuple(m.T2.rows[-1] for m in self.channels), self.q,
                      ncols=self.gain.Gbar.nrows, _reduced=True)
        ks = np.array([m.k for m in self.channels], dtype=np.intp)
        return (_row_digits(R), ks, tuple(m.s for m in self.channels),
                self.gain.G[:, ks])

    def cancel_initial(self, x: ModMatrix, known=None):
        """Every channel's initial cancellation of the column x.

        Channel j's cancel column is V2_j (T2_j x - known_j), so x minus it
        has chain coordinates known_j (default 0).  Every T2_j x comes from
        one product with the stacked T2_j, and each V2_j is applied on its
        nonzero rows only (one row when nu_j = 1).  Returns (block, state):
        the (L, l, n_ch) limbs of the cancel columns, and the
        (L, l, 1 + n_ch) limbs of the state [x | cancels] that
        `cancel_step` steps.
        """
        q, gain = self.q, self.gain
        T2, V2 = self._chains
        chains = iter((T2 @ x).column_entries())
        cancels = [[0] * self.n_channels for _ in range(x.nrows)]
        for j, (m, rows) in enumerate(zip(self.channels, V2)):
            tilde = [next(chains) - (known[j][i] if known else 0)
                     for i in range(m.nu)]
            for i, row in rows:
                cancels[i][j] = q.cmod(sum(map(mul, row, tilde)))
        block = gain.split(cancels)
        return block, np.concatenate([gain.split(x.rows), block], axis=2)

    def cancel_step(self, state: np.ndarray, x: ModMatrix, known=None):
        """One step of every channel's cancellation of the input column x.

        `state` is [m | cancels], so channel j's cancelled state m - cancel_j
        has zero chain coordinates.  It steps with [x | 0], so Gbar x is
        added to the first column alone; then the chain's bottom is
        tilde_j = R_j (m' - cancel_j') - known_j, and channel j
        cancels c_j = s_j tilde_j at row k_j.  Returns (block, state'): the
        (L, h, n_ch) limbs of the columns c_j e_k_j, and the state with
        `Gbar @ block` added to its cancel columns as one outer product,
        G[:, k_j] times the limbs of c_j.
        """
        gain, n_ch = self.gain, self.n_channels
        if x.nrows != gain.Gbar.ncols:
            raise EncObsError("dimension mismatch in cancellation step")
        (e, planes), ks, ss, cancel_gain = self._chain_ends
        body = gain.shift(state)
        body[:, :, :1] += gain.G @ gain.split(x.rows)
        dots = _first_column_dots(body[:, :, 0], body[:, :, 1:],
                                  gain.width, e, planes)
        c = split_limbs([self.q.cmod(s * (a - b))
                         for s, a, b in zip(ss, dots, known or (0,) * n_ch)],
                        gain.width, gain.count)
        body[:, :, 1:] += cancel_gain * c[:, None, :]
        block = np.zeros((gain.count, x.nrows, n_ch), dtype=np.int64)
        block[:, ks, np.arange(n_ch)] = c
        return block, body


def _row_digits(rows: ModMatrix) -> Tuple[int, np.ndarray]:
    """(e, planes): `rows` as (P, n, l) `fixed_digits` of width
    e = `digit_budget(l, 63)` - 32, each below 2^e in absolute value (one
    plane for small entries), so l 2^32 2^e <= 2^63 for the 32-bit half
    limbs they meet."""
    e = digit_budget(rows.ncols, 63) - 32
    planes = fixed_digits(rows.flat(), rows.max_abs().bit_length(), e)
    return e, planes.reshape(len(planes), rows.nrows, rows.ncols)


class EncryptedBatch:
    """Per-step modified ciphertexts for all channels, batch `t` of a run
    (0 for the initial one), each part in the form its reader takes.

    `body` is the (L, rows, 1 + n_ch) int64 limb stack of `gain` of
    `[first | cancels]`, channel j's cancel column at 1 + j, every limb
    below 2^W in absolute value, the recursion's input bound: the cloud
    steps it whole.  `shared` is the randomness block A that every channel
    shares, as the (rows, N, nw) uint64 words the sampler drew, values in
    [0, q): only `SecretKey.products` reads it.  Both are read-only once
    the batch holds them, so the key's cache of the batch's A sk never
    goes stale; A is never joined into Python ints.  The layout stays
    inside this module: other modules write a batch with `_write` and read
    one with `standard_and_cancels`.
    """

    def __init__(self, body: np.ndarray, shared: np.ndarray,
                 gain: BlockGain, t: int):
        body.setflags(write=False)
        shared.setflags(write=False)
        self.body, self.shared, self.gain, self.t = body, shared, gain, t

    @property
    def n_channels(self) -> int:
        return self.body.shape[-1] - 1

    @property
    def N(self) -> int:
        return self.shared.shape[1]

    def standard_and_cancels(self) -> Tuple[Ciphertext,
                                            Tuple[Tuple[int, ...], ...]]:
        """The standard ciphertext, sharing the batch's A, and every cancel
        column in centred Python ints: what View 2 records of a batch."""
        q = self.gain.Gbar.modulus
        first, *cancels = zip(*self.gain.join(self.body))
        return (Ciphertext(q, words_of(q, first), self.shared),
                tuple(tuple(map(q.cmod, c)) for c in cancels))

    @classmethod
    def _write(cls, std: Ciphertext, cancels: Sequence[Tuple[int, ...]],
               gain: BlockGain, t: int) -> "EncryptedBatch":
        """Batch t of the standard ciphertext `std`, sharing its A, and the
        cancel columns."""
        return cls(gain.split([(f,) + c for f, c
                               in zip(std.first_column(), zip(*cancels))]),
                   std.shared, gain, t)


def modified_channels(std_ct: Ciphertext,
                      cancels: Sequence[Tuple[int, ...]]
                      ) -> Tuple[Ciphertext, ...]:
    """Channel j's modified ciphertext [first - cancel_j | shared | cancel_j]
    for each cancel column cancel_j of the standard ciphertext `std_ct`:
    the two columns are new words, and every channel shares A."""
    q, first = std_ct.q, std_ct.first_column()
    words = words_of(q, [v for cancel in cancels
                         for v in [f - a for f, a in zip(first, cancel)]
                         + list(cancel)])
    return tuple(Ciphertext(q, w[0], std_ct.shared, w[1]) for w in
                 words.reshape(len(cancels), 2, std_ct.h, words.shape[1]))


class EncryptorSession:
    """Stateful trusted encryptor for one observer run.

    `cancel_state` holds the (L, l, 1 + n_ch) limbs of the `[m | cancels]`
    state of `ObserverPublic`'s cancellation driven by the masks, so
    m - cancel_j is the mask part of channel j's observer state; each
    step's cancel block goes into the batch as it is.  The session is fresh
    exactly while `cancel_state` is None.  The batches are the only record
    of the run: the session keeps no mask, error or ciphertext.
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
        self.cancel_state: Optional[np.ndarray] = None
        self.t = -1     # the step index of the last batch encrypted

    def _encrypt(self, v: ModMatrix, nrows: int, cancel) -> EncryptedBatch:
        """Encrypt the lifted column v for every channel as the next batch:
        `cancel(mask)` gives the cancel block and the next cancel state.
        A v without `nrows` rows is refused before anything is drawn."""
        if v.nrows != nrows:
            raise EncObsError(f"message has {v.nrows} rows, the observer "
                              f"takes {nrows}")
        gain = self.public.gain
        enc = encrypt_with_artifacts(v.scale(self.params.lift), self.sk,
                                     self.noise, self.rng)
        block, self.cancel_state = cancel(enc.mask)
        batch = EncryptedBatch(
            np.concatenate([gain.split(enc.first.rows), block], axis=2),
            enc.randomness, gain, self.t + 1)
        self.t = batch.t
        self.sk.seed_products(batch, enc.key_product)
        return batch

    def enc_initial(self, zbar_ini: ModMatrix) -> EncryptedBatch:
        """Encrypt the lifted initial state (l rows) once for every
        channel."""
        if self.cancel_state is not None:
            raise SessionNotFresh("enc_initial may only be called once")
        return self._encrypt(zbar_ini, self.public.gain.Gbar.nrows,
                             self.public.cancel_initial)

    def enc_input(self, vbar: ModMatrix) -> EncryptedBatch:
        """Encrypt the lifted input (h rows) for every channel and advance
        the cancel state."""
        if self.cancel_state is None:
            raise EncObsError("call enc_initial before enc_input")
        return self._encrypt(vbar, self.public.gain.Gbar.ncols,
                             lambda mask: self.public.cancel_step(
                                 self.cancel_state, mask))


@dataclass(frozen=True, eq=False)
class EncObserverState:
    """Encrypted observer state for all channels at step t, held narrow.

    `body` holds the (L, l, 1 + n_ch) limbs of `[first | cancels]`, the
    columns `step_encrypted` steps and the only ones a residue reads.  The
    limbs are lazy from the first step on (not reduced, not canonical).
    The state's shared block S_t, the l x N block every channel's
    ciphertext shares, is not held: S_0 = A_0 and
    S_t = Fbar S_(t-1) + Gbar A_t depend on the public randomness alone,
    and only through the last b = `BlockGain.depth` batches, since
    Fbar^b = 0.  `window` holds those batches oldest first, the initial
    batch among them while t < b, and recovery replays their A sk to
    S_t sk.  So channel j's logical state, the l x (N+2) modified
    ciphertext whose decryption is the lifted plaintext state plus the
    encryption error, is what replaying the window through
    `BlockGain.step` gives.
    """

    body: np.ndarray
    n_channels: int
    gain: BlockGain
    N: int
    t: int
    window: Tuple[EncryptedBatch, ...]

    @classmethod
    def from_initial(cls, batch: EncryptedBatch) -> "EncObserverState":
        if batch.t != 0:
            raise EncObsError(f"a state starts at batch 0, not {batch.t}")
        return cls(batch.body, batch.n_channels, batch.gain, N=batch.N,
                   t=0, window=(batch,))


def _check_gain(public: ObserverPublic, *parts):
    """Every part (a batch or state) must hold limbs of the public's gain,
    not those of another one over the same q and limb width."""
    for part in parts:
        if part.gain != public.gain:
            raise EncObsError("limbs come from another observer")


def step_encrypted(state: EncObserverState, batch: EncryptedBatch,
                   public: ObserverPublic) -> EncObserverState:
    """One encrypted observer update for every channel: the observer
    recursion applied to the `[first | cancels]` limbs of the state and
    the batch.  The batch must be the one after the state's step (a
    missed, repeated or reordered batch is refused), and it joins the
    state's window, which keeps the last `public.gain.depth` batches.  The
    batch must have the public's LWE dimension."""
    if (batch.n_channels, batch.N) != (state.n_channels, state.N):
        raise EncObsError("channel counts or widths differ between state "
                          "and batch")
    if batch.N != public.N:
        raise EncObsError(f"batch of LWE dimension {batch.N} stepped "
                          f"through an observer of dimension {public.N}")
    if batch.t != state.t + 1:
        raise EncObsError(f"batch {batch.t} does not follow step {state.t}")
    _check_gain(public, state, batch)
    gain = public.gain
    return EncObserverState(gain.step(state.body, batch.body),
                            state.n_channels, gain, N=state.N, t=state.t + 1,
                            window=(state.window + (batch,))[-gain.depth:])


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
    _check_gain(public, state)
    return ModMatrix.column(_first_column_dots(
        state.body[:, :, 0], state.body[:, :, 1:],
        public.gain.width, *public._hbar_digits), public.q)


def disclose_residue(r1: ModMatrix, params: QuantParams) -> ModMatrix:
    """Recover the plaintext residue by multiplying with lift^-1 mod q,
    which `params` computes once."""
    if r1.modulus != params.q:
        raise ModulusMismatch("residue and parameters disagree on q")
    if params.lift_inverse is None:
        raise EncObsError("lift shares a factor with the modulus")
    return r1.scale(params.lift_inverse)


def _shared_key_product(state: EncObserverState, sk: SecretKey) -> List[int]:
    """Integers congruent to S_t sk, for the shared block S_t the state does
    not hold: the window's A sk from the key's cache, replayed through the
    recursion from A_0 sk while the initial batch is in the window and from
    zero after (the window then holds the last b batches, and Fbar^b = 0)."""
    gain = state.gain
    products = [sk.cached_products(batch, batch.shared)
                for batch in state.window]
    if len(products) == state.t + 1:    # A_0 is still in the window
        shared, products = list(products[0]), products[1:]
    else:
        shared = [0] * gain.Gbar.nrows
    for a in products:
        shared = gain.step_ints(shared, a)
    return shared


def recover_encrypted_state(state: EncObserverState, j: int, sk: SecretKey,
                            params: QuantParams,
                            phi_pinv_bar: ModMatrix) -> ModMatrix:
    """Decrypt channel j and strip the lift factor by exact rounding.

    Dec' of channel j is (first - cancel_j) - S_t sk + cancel_j, that is
    first - S_t sk for every j, so j is only checked.  S_t sk is summed
    from the A sk of the state's window (`_shared_key_product`), cached
    with the key: from encryption on under the encrypting key, so a step
    adds no key product, else after one float64 `SecretKey.products` per
    batch.  Each step replays the window on Gbar's 48 nonzeros.
    The key holder trusts that the cloud stepped the first column as the
    recursion says and kept the batches it was sent: the paper's
    honest-but-curious cloud.

    When the detection criterion held at this step (and the parameter
    bounds are valid) the result equals the plaintext observer's scaled
    estimate bit for bit; otherwise it is still returned and the caller
    decides how much to trust it.
    """
    if not 0 <= j < state.n_channels:
        raise EncObsError(f"no channel {j} among {state.n_channels}")
    if sk.N != state.N:
        raise DimensionMismatch("ciphertext and key disagree on N")
    q = state.gain.Gbar.modulus
    if sk.q != q:
        raise ModulusMismatch("ciphertext and key disagree on q")
    if params.q != q or phi_pinv_bar.modulus != q:
        raise ModulusMismatch("ciphertext and recovery maps disagree on q")
    if phi_pinv_bar.ncols != state.body.shape[1]:
        raise DimensionMismatch("recovery map and state disagree on rows")
    first = state.gain.join(state.body[:, :, :1])
    masked = _shared_key_product(state, sk)
    dec = [f - s for (f,), s in zip(first, masked)]
    lift = params.lift
    return ModMatrix.column(
        [(2 * q.cmod(sum(map(mul, row, dec))) + lift) // (2 * lift)
         for row in phi_pinv_bar.rows], q)
