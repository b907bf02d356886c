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
It owns the int64 limbs too: it cuts them from words, steps them (one
shift and one `G @ V` per step) and joins them, at a limb width it
derives from Gbar.  A batch holds the encryption's standard ciphertext,
the cancel words and the limbs of `[first | cancels]` cut once from them
(`EncryptedBatch`).  The observer state is narrow: `step_encrypted` steps
only those limbs, the only columns a residue reads.  The state's shared
block S_t = Fbar S_(t-1) + Gbar A_t is a function of the public
randomness alone, and Fbar^b = 0 for the largest block size b, so the
state keeps references to its last b batches instead
(`EncObserverState.window`), and recovery replays their A sk to S_t sk.
A batch's step index refuses a missed, repeated or reordered batch, and
`cloud_states` is the one loop that starts and steps states.  The
cancellation (`ObserverPublic.cancel_initial` and `cancel_step`) takes
the words of the column it cancels and steps `[m | cancels]`, the same
narrow layout, through the same recursion; after step 0 it cancels channel
j with one scalar c_j at one row k_j, stepped as one outer product,
G[:, k_j] times c_j.  It returns the cancel columns as words and steps the
limbs a batch cuts from them.  It and the residue take their exact
per-channel dot products on half limbs from `_first_column_dots`.  One
decryption, first - S_t sk, serves every channel; recovery replays the
key's cached A sk in Python ints (`BlockGain.step_ints`).

Python ints appear only for the encryptor's columns, the cancellation's
scalars, the residue's sums and recovery.  Cancel columns stay words from
the cancellation through batches and View 2 to the wire and back; only
`modified_channels` joins them, to form first - cancel_j.  This module is
the only one that knows the batch layout.  A run is recorded only as its
batches: View 2 records each one's `Ciphertext` and cancel words, and a
batch of those is batch t again, so the same loop over the transcript's
batches rebuilds every encrypted state (`secviews.View2.states`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator, List, Optional, Tuple

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
    join_digit_sums, join_limbs
from .quantobs import BlockGain, ModularMaps, QuantParams
from .zerodyn import ChannelMaps, all_channel_maps

__all__ = [
    "EncObsError",
    "SessionNotFresh",
    "ObserverPublic",
    "EncryptedBatch",
    "modified_channels",
    "EncryptorSession",
    "EncObserverState",
    "step_encrypted",
    "cloud_states",
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
        """The public data for `maps` at the LWE dimension `params.N`: the
        maps of every channel, built in one pass over Hbar."""
        gain = maps.gain
        public = cls(q=gain.Gbar.modulus, N=params.N, gain=gain,
                     Hbar=maps.Hbar, channels=all_channel_maps(
                         maps.Hbar, gain.Fbar, gain.Gbar))
        public._chain_ends   # made at set-up, so no step builds it
        return public

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @cached_property
    def _hbar_digits(self) -> Tuple[int, np.ndarray]:
        return _row_digits(self.Hbar)

    @cached_property
    def _v2_rows(self):
        """Each V2_j as the (row, entries) pairs of its nonzero rows."""
        return tuple(tuple((i, row) for i, row in enumerate(m.V2.rows)
                           if any(row)) for m in self.channels)

    @cached_property
    def _chain_ends(self):
        """Hbar's digit planes with row j shifted left nu_j - 1 times within
        Fbar's blocks, (row Fbar)[c] = row[c + 1] unless c + 1 starts a
        block: the planes of R_j = H_j F^(nu_j - 1), T2_j's last row.  Then
        every k_j and s_j, and the (l, n_ch) gain columns G[:, k_j]: a
        cancel block is nonzero only at rows k_j.  `build` makes them."""
        e, planes = self._hbar_digits
        planes = planes.copy()
        ends = [s - 1 for s in self.gain.starts[1:]] + [-1]     # blocks' ends
        for j, m in enumerate(self.channels):
            for _ in range(m.nu - 1):
                planes[:, j, :-1] = planes[:, j, 1:]
                planes[:, j, ends] = 0
        ks = np.array([m.k for m in self.channels], dtype=np.intp)
        return ((e, planes), ks, tuple(m.s for m in self.channels),
                self.gain.G[:, ks])

    def cancel_initial(self, x: np.ndarray, known=None):
        """Every channel's initial cancellation of the column x, given as
        its (l, nw) words of values in [0, q).

        Channel j's cancel column is V2_j (T2_j x - known_j), so x minus it
        has chain coordinates known_j (default 0).  T2_j stacks the rows
        H_j F^k, k < nu_j, so T2_j x is read off the Hbar products of the
        block shifts F^k x (`_first_column_dots`, against zero cancels),
        and each V2_j is applied on its nonzero rows only.  Returns
        (block, state): the (n_ch, l, nw) words of the cancel columns,
        channel-major, and the (L, l, 1 + n_ch) limbs of the state
        [x | cancels] that `cancel_step` steps, all cut from words.
        """
        gain = self.gain
        if x.shape[0] != gain.Gbar.nrows:
            raise EncObsError("dimension mismatch in cancellation")
        first = shifted = gain.cut(x[:, None])
        zeros = np.zeros(first.shape[:2] + (self.n_channels,), np.int64)
        chains = []     # chains[k][j] = H_j F^k x, not reduced
        for _ in range(max((m.nu for m in self.channels), default=0)):
            chains.append(_first_column_dots(shifted[:, :, 0], zeros,
                                             gain.width, *self._hbar_digits))
            shifted = gain.shift(shifted)
        at, values = [], []     # (j, i) and the entry, on V2_j's rows i
        for j, (m, rows) in enumerate(zip(self.channels, self._v2_rows)):
            tilde = [chains[k][j] - (known[j][k] if known else 0)
                     for k in range(m.nu)]
            for i, row in rows:
                at.append((j, i))
                values.append(sum(map(mul, row, tilde)))
        words = words_of(self.q, values)
        block = np.zeros((self.n_channels,) + x.shape, dtype=np.uint64)
        block[tuple(np.array(at, dtype=np.intp).reshape(-1, 2).T)] = words
        return block, np.concatenate(
            [first, gain.cut(block).transpose(0, 2, 1)], axis=2)

    def cancel_step(self, state: np.ndarray, x: np.ndarray, known=None):
        """One step of every channel's cancellation of the input column x,
        given as its (h, nw) words of values in [0, q).

        `state` is [m | cancels], so channel j's cancelled state m - cancel_j
        has zero chain coordinates.  It steps with [x | 0], so Gbar x is
        added to the first column alone; then the chain's bottom is
        tilde_j = R_j (m' - cancel_j') - known_j, and channel j
        cancels c_j = s_j tilde_j at row k_j.  Returns (block, state'): the
        (n_ch, h, nw) words of the columns c_j e_k_j, and the state with
        `Gbar @ block` added to its cancel columns as one outer product,
        G[:, k_j] times the limbs of c_j's words, the limbs a batch cuts.
        """
        gain, n_ch = self.gain, self.n_channels
        if x.shape[0] != gain.Gbar.ncols:
            raise EncObsError("dimension mismatch in cancellation step")
        (e, planes), ks, ss, cancel_gain = self._chain_ends
        body = gain.shift(state)
        body[:, :, :1] += gain.G @ gain.cut(x[:, None])
        dots = _first_column_dots(body[:, :, 0], body[:, :, 1:],
                                  gain.width, e, planes)
        c = words_of(self.q, [s * (a - b) for s, a, b
                              in zip(ss, dots, known or (0,) * n_ch)])
        body[:, :, 1:] += cancel_gain * gain.cut(c)[:, None, :]
        block = np.zeros((n_ch,) + x.shape, dtype=np.uint64)
        block[np.arange(n_ch), ks] = c
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
    (0 for the initial one), as the sampler's and the wire's uint64 words
    of values in [0, q): the standard ciphertext `ct` of the encryption,
    whose randomness block A every channel shares and only
    `SecretKey.products` reads, and every channel's cancel column,
    (n_ch, rows, nw) `cancels`, channel-major as View 2 records them.
    `body` is the (L, rows, 1 + n_ch) limb stack of `[first | cancels]`
    that `gain` cuts from the words once, every limb in [0, 2^W), the
    recursion's input bound: the cloud steps it whole.  Every part is
    read-only, so the key's cache of the batch's A sk never goes stale.
    """

    def __init__(self, ct: Ciphertext, cancels: np.ndarray, gain: BlockGain,
                 t: int):
        if ct.q != gain.Gbar.modulus:
            raise EncObsError("ciphertext modulus differs from the gain's")
        if cancels.shape[1:] != ct.first.shape:
            raise EncObsError("cancel columns do not fit the ciphertext")
        cancels.setflags(write=False)
        self.ct, self.cancels, self.gain, self.t = ct, cancels, gain, t
        self.body = gain.cut(np.concatenate(
            [ct.first[:, None], cancels.transpose(1, 0, 2)], axis=1))
        self.body.setflags(write=False)

    @property
    def n_channels(self) -> int:
        return len(self.cancels)

    @property
    def N(self) -> int:
        return self.ct.N


def modified_channels(std_ct: Ciphertext,
                      cancels: np.ndarray) -> Tuple[Ciphertext, ...]:
    """Channel j's modified ciphertext [first - cancel_j | shared | cancel_j]
    for each cancel column cancel_j, (n_ch, h, nw) words, of the standard
    ciphertext `std_ct`: the first columns are new words, and every channel
    shares A."""
    q, first = std_ct.q, std_ct.first_column()
    values = join_limbs(cancels.reshape(-1, cancels.shape[-1]).T, 64)
    firsts = words_of(q, [f - a for f, a in zip(first * len(cancels),
                                                values)])
    return tuple(Ciphertext(q, f, std_ct.shared, c)
                 for f, c in zip(firsts.reshape(cancels.shape), cancels))


class EncryptorSession:
    """Stateful trusted encryptor for one observer run.

    `cancel_state` holds the (L, l, 1 + n_ch) limbs of the `[m | cancels]`
    state of `ObserverPublic`'s cancellation driven by the masks, so
    m - cancel_j is the mask part of channel j's observer state; each
    step's cancel words go into the batch as they are.  The session is fresh
    exactly while `cancel_state` is None.  The batches are the only record
    of the run: the session keeps no mask, error or ciphertext.
    """

    def __init__(self, sk: SecretKey, params: QuantParams,
                 public: ObserverPublic, rng=None):
        if sk.N != public.N:
            raise EncObsError("secret key length differs from configured N")
        self.sk, self.params, self.public = sk, params, public
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
        enc = encrypt_with_artifacts(v.scale(self.params.lift), self.sk,
                                     self.noise, self.rng)
        block, self.cancel_state = cancel(enc.mask)
        batch = EncryptedBatch(enc.ct, block, self.public.gain, self.t + 1)
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


def cloud_states(batches: Iterable[EncryptedBatch], public: ObserverPublic
                 ) -> Iterator[Tuple[EncryptedBatch, EncObserverState]]:
    """(batch t, state t) for each batch t of a run: the state starts from
    batch 0 and `step_encrypted` steps it on each later batch, drawn from
    `batches` only once the caller asks for its state."""
    state = None
    for batch in batches:
        state = (EncObserverState.from_initial(batch) if state is None
                 else step_encrypted(state, batch, public))
        yield batch, state


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
    products = [sk.cached_products(batch, batch.ct.shared)
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
