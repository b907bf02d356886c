"""Shared test oracles: independent implementations used to cross-check the
library, plus random problem generators."""

import dataclasses
import random
import struct
from dataclasses import dataclass, field
from itertools import chain
from operator import mul
from typing import List, Sequence, Tuple

import numpy as np

from cipherobs.encobs import EncObserverState, EncryptedBatch, \
    EncryptorSession, ObserverPublic, cloud_states, disclose_residue, \
    modified_channels, residue_first_column
from cipherobs.lwe import _CT_MAGIC, Ciphertext, CiphertextKind, LweError, \
    SecretKey, TestRng, centred, keygen, wire_layout, words_of
from cipherobs.modring import DimensionMismatch, ModMatrix, ModRingError, \
    Modulus, _echelon, inverse_mod
from cipherobs.obsdesign import M_SAFETY, ReferenceRun, run_reference_observer
from cipherobs.pipeline import BENCH_Q, EncryptedRun, run_quantized_mode
from cipherobs.plantsim import AttackScenario, PlantModel, Trajectory, \
    run_closed_loop, step_plant
from cipherobs.quantobs import quantize_initial, quantize_input, \
    residue_quantized, step_quantized
from cipherobs.secviews import View1, View2
from cipherobs.zerodyn import ChannelMaps, RelativeDegreeUndefined, \
    channel_maps


def secret_key(values: Sequence[int], q: Modulus) -> SecretKey:
    """The key of the given values, each taken mod q into its words."""
    return SecretKey(words_of(q, values), q)


def centred_draw(source, q: Modulus, count: int) -> List[int]:
    """`count` values exactly uniform on centred Z_q: one row of the
    source's word draw, centred."""
    return centred(q, source.uniform_words(q, 1, count)[0])


class ValueSource:
    """Base for test sources that script uniform values rather than bytes:
    subclasses give `uniforms(q, count)` and `error(noise)`, and the word
    draw takes each row's values from `uniforms` in turn."""

    def uniform_words(self, q: Modulus, rows: int, count: int) -> np.ndarray:
        return words_of(q, [v for _ in range(rows)
                            for v in self.uniforms(q, count)]).reshape(
            rows, count, wire_layout(q)[1])


def floor_cmod(a: int, q: int) -> int:
    """Centred reduction by the floor formula a - floor((a + q/2)/q) q
    (test oracle for `Modulus.cmod`)."""
    return a - ((2 * a + q) // (2 * q)) * q


def egcd_inverse(a: int, q: int) -> int:
    """Modular inverse via the extended Euclidean algorithm (test oracle)."""
    old_r, r = a % q, q
    old_s, s = 1, 0
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
    if old_r != 1:
        raise ValueError(f"{a} is not invertible mod {q}")
    return old_s % q


def dense_int_matmul(arows, brows, q: int):
    """Naive exact product followed by symmetric reduction (test oracle)."""

    def red(v):
        return v - ((2 * v + q) // (2 * q)) * q

    out = []
    for ar in arows:
        row = []
        for c in range(len(brows[0])):
            row.append(red(sum(ar[k] * brows[k][c] for k in range(len(brows)))))
        out.append(tuple(row))
    return tuple(out)


def random_mod_matrix(rng: random.Random, rows: int, cols: int,
                      q: Modulus) -> ModMatrix:
    return ModMatrix([[rng.randrange(q.q) for _ in range(cols)]
                      for _ in range(rows)], q)


def random_channel(rng: random.Random, q: Modulus, l: int, mp: int):
    """Random (H, F, G) triple over Z_q; may have undefined relative degree."""
    F = random_mod_matrix(rng, l, l, q)
    G = random_mod_matrix(rng, l, mp, q)
    H = random_mod_matrix(rng, 1, l, q)
    return H, F, G


def random_stable_plant(rng: np.random.Generator, n: int, m: int, p: int,
                        rho: float = 0.8) -> PlantModel:
    """Random plant with a stable A and zero feedback gain."""
    while True:
        A = rng.normal(size=(n, n))
        radius = max(abs(np.linalg.eigvals(A)))
        if radius < 1e-9:
            continue
        A = A * (rho / radius)
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(p, n))
        x_ini = rng.normal(size=n)
        try:
            return PlantModel(A=A, B=B, C=C, K=np.zeros((m, n)), x_ini=x_ini)
        except Exception:
            continue


def build_fbar(block_sizes: Sequence[int], q: Modulus) -> ModMatrix:
    """Block-diagonal lower-shift state matrix as an explicit Z_q matrix,
    written apart from `BlockGain` so that dense products check it."""
    l = sum(block_sizes)
    rows = [[0] * l for _ in range(l)]
    o = 0
    for li in block_sizes:
        for h in range(1, li):
            rows[o + h][o + h - 1] = 1
        o += li
    return ModMatrix._trusted(tuple(map(tuple, rows)), l, q)


def gain_blocks(gain) -> Tuple[int, ...]:
    """The block sizes of a `BlockGain`, from its block starts."""
    ends = gain.starts[1:] + (gain.Gbar.nrows,)
    return tuple(b - a for a, b in zip(gain.starts, ends))


def error_trajectory(errors: Sequence[ModMatrix], gbar_rows, block_sizes,
                     steps: int):
    """Accumulated encryption-error states over the plain integers, from
    each encryption's error column (`transcript_errors`).

    The error of the initial encryption seeds the recursion; each input
    encryption's error enters through the integer gain matrix.  No modular
    reduction is applied, matching the plain-integer error dynamics the
    recovery argument relies on.
    """
    e = list(errors[0].column_entries())
    out = [tuple(e)]
    for t in range(1, steps + 1):
        ev = errors[t].column_entries()
        shifted = [0] * len(e)
        o = 0
        for li in block_sizes:
            shifted[o + 1:o + li] = e[o:o + li - 1]
            o += li
        e = [s + sum(g * v for g, v in zip(grow, ev))
             for s, grow in zip(shifted, gbar_rows)]
        out.append(tuple(e))
    return out


# -- replaying a recorded encrypted run ---------------------------------------

def cloud_run(setup, N: int, seed: int, steps: int):
    """(sk, public, batches, states) of an encrypted run at LWE dimension N
    as the cloud holds them: the encryptor driven with TestRng(seed) through
    the deployed loop, `cloud_states`, in the order
    `run_encrypted_mode(..., seed=seed)` draws, so its batches are the ones
    that run records."""
    params = dataclasses.replace(setup.params, N=N)
    rng = TestRng(seed)
    sk = keygen(N, params.q, rng)
    public = ObserverPublic.build(setup.mod_maps, params)
    session = EncryptorSession(sk, params, public, rng=rng)
    batches, states = zip(*cloud_states(chain(
        [session.enc_initial(quantize_initial(setup.zhat_ini, params))],
        map(session.enc_input, run_quantized_mode(setup, steps).vbars)),
        public))
    return sk, public, list(batches), list(states)


def recorded_view2(batches: Sequence[EncryptedBatch]) -> View2:
    """The View 2 a run records of its batches: each one's standard
    ciphertext and cancel words."""
    return View2(standard_cts=tuple(b.ct for b in batches),
                 cancels=tuple(b.cancels for b in batches))


def replay_states(view2: View2, public) -> List[EncObserverState]:
    """Every encrypted state of a recorded run, rebuilt from its View 2
    by the deployed loop (`View2.states`), each with the
    batches its shared block depends on (`full_state` rebuilds that
    block)."""
    return list(view2.states(public))


def full_limbs(batch: EncryptedBatch) -> np.ndarray:
    """The (L, rows, 1 + n_ch + N) limbs of a batch's whole matrix
    `[first | cancels | shared]`: its shared words cut into the gain's
    limbs beside its `body`."""
    return np.concatenate([batch.body, batch.gain.cut(batch.ct.shared)],
                          axis=2)


def full_state(state: EncObserverState, public) -> EncryptedBatch:
    """The full-width `[first | cancels | shared]` state behind a narrow
    one: its window replayed through `BlockGain.step` on the batches'
    `full_limbs`, from the initial batch while it is in the window and
    from zero after, and written back as a batch of index `state.t`.

    Fbar^b = 0, so the batches before the window contribute nothing, and
    the limbs add without carry or reduction: the replay sums the same
    integers as a state stepped full width from step 0, and gives the
    narrow state's own limbs on `[first | cancels]`, which is checked.
    """
    window = state.window
    if len(window) == state.t + 1:   # the initial batch is in the window
        body, inputs = full_limbs(window[0]), window[1:]
    else:
        body = np.zeros((public.gain.count, public.gain.Gbar.nrows,
                         1 + state.n_channels + state.N), dtype=np.int64)
        inputs = window
    for batch in inputs:
        body = public.gain.step(body, full_limbs(batch))
    n = state.body.shape[2]
    if not np.array_equal(body[:, :, :n], state.body):
        raise AssertionError("the narrow state differs from its replay")
    rows = public.gain.join(body)
    return batch_of(ciphertext([row[:1] + row[n:] for row in rows], public.q),
                    tuple(zip(*(row[1:n] for row in rows))), public.gain,
                    state.t)


def batch_of(ct: Ciphertext, cancels, gain, t: int) -> EncryptedBatch:
    """Batch t of the standard ciphertext `ct` and cancel columns given as
    Python ints, [channel][row], each taken mod q."""
    return EncryptedBatch(ct, cancel_words(ct.q, cancels), gain, t)


def ciphertext(rows, q: Modulus, modified: bool = False) -> Ciphertext:
    """The ciphertext whose matrix is `rows` (at least one): the first
    column, then A, then (`modified`) the cancel column, each entry taken
    mod q."""
    rows = [tuple(row) for row in rows]
    words = words_of(q, [a for row in rows for a in row]).reshape(
        len(rows), len(rows[0]), wire_layout(q)[1])
    return Ciphertext(q, words[:, 0], words[:, 1:len(rows[0]) - modified],
                      words[:, -1] if modified else None)


def cancel_words(q: Modulus, columns) -> np.ndarray:
    """The (n_ch, h, nw) words of cancel columns given as Python ints,
    [channel][row], each taken mod q: View 2's form of one step."""
    columns = [tuple(c) for c in columns]
    h = len(columns[0]) if columns else 0
    return words_of(q, [a for c in columns for a in c]).reshape(
        len(columns), h, wire_layout(q)[1])


def column_words(column: ModMatrix) -> np.ndarray:
    """The (rows, nw) words of a column's entries mod q: the form in which
    the cancellation takes a column."""
    return words_of(column.modulus, column.column_entries())


def matrix_limbs(gain, M: ModMatrix) -> np.ndarray:
    """The (L, rows, cols) limbs `gain.cut` makes of the words of M's
    entries mod q, each in [0, 2^W)."""
    return gain.cut(words_of(M.modulus, M.flat()).reshape(
        M.nrows, M.ncols, -1))


def cancel_ints(q: Modulus, words: np.ndarray) -> Tuple[Tuple[int, ...],
                                                        ...]:
    """One step's (n_ch, h, nw) cancel words as centred Python ints,
    [channel][row] (test oracle)."""
    n_ch, h, nw = words.shape
    flat = centred(q, words.reshape(-1, nw))
    return tuple(tuple(flat[j * h:(j + 1) * h]) for j in range(n_ch))


def ct_matrix(ct: Ciphertext) -> ModMatrix:
    """A ciphertext's matrix `[first | A | cancel]` over Z_q, its words
    joined into centred Python ints (test oracle)."""
    parts = [ct.first[:, None], ct.shared] + (
        [] if ct.cancel is None else [ct.cancel[:, None]])
    words = np.concatenate(parts, axis=1)
    h, width, nw = words.shape
    flat = centred(ct.q, words.reshape(-1, nw))
    return ModMatrix._trusted(tuple(tuple(flat[i * width:(i + 1) * width])
                                    for i in range(h)), width, ct.q)


def transcript_masks(standard_cts, messages, lift: int) -> List[ModMatrix]:
    """Each encryption's mask, first - lift v, from the recorded standard
    ciphertexts and the messages v they encrypt."""
    return [ModMatrix.column(ct.first_column(), v.modulus) - v.scale(lift)
            for ct, v in zip(standard_cts, messages)]


def channel(body: EncryptedBatch, j: int):
    """Channel j's modified ciphertext of a batch or a full state, from
    `modified_channels`."""
    return modified_channels(body.ct, body.cancels[j:j + 1])[0]


def dense_decrypt(ct, sk) -> ModMatrix:
    """Decryption over the Python ints (test oracle): first - shared sk,
    plus a modified ciphertext's cancel column."""
    if ct.N != sk.N:
        raise DimensionMismatch("ciphertext and key disagree on N")
    key, cancel = sk.entries(), ct.kind is CiphertextKind.MODIFIED
    return ModMatrix.column([row[0] - sum(map(mul, row[1:1 + sk.N], key))
                             + (row[-1] if cancel else 0)
                             for row in ct_matrix(ct).rows], sk.q)


def transcript_errors(standard_cts, messages, lift: int,
                      sk) -> List[ModMatrix]:
    """Each encryption's error, decryption - lift v."""
    return [dense_decrypt(ct, sk) - v.scale(lift)
            for ct, v in zip(standard_cts, messages)]


@dataclass
class ReplayedRun(EncryptedRun):
    """A recorded encrypted run plus what its transcript gives back: every
    state (`replay_states`), each state's residue first column and
    disclosed residue, and each encryption's mask and error."""

    states: List[EncObserverState] = field(default_factory=list)
    r1s: List[ModMatrix] = field(default_factory=list)
    disclosed: List[ModMatrix] = field(default_factory=list)
    masks: List[ModMatrix] = field(default_factory=list)
    errors: List[ModMatrix] = field(default_factory=list)


def replay_run(run: EncryptedRun, messages: Sequence[ModMatrix],
               params) -> ReplayedRun:
    """`run`, which recorded its views, replayed from View 2; `messages`
    are the quantized initial state and inputs it encrypted."""
    states = replay_states(run.view2, run.public)
    r1s = [residue_first_column(state, run.public) for state in states]
    cts = run.view2.standard_cts
    return ReplayedRun(
        **vars(run), states=states, r1s=r1s,
        disclosed=[disclose_residue(r1, params) for r1 in r1s],
        masks=transcript_masks(cts, messages, params.lift),
        errors=transcript_errors(cts, messages, params.lift, run.sk))


class ZeroRow(ModRingError):
    pass


def right_inverse_row(sigma: ModMatrix) -> ModMatrix:
    """Right inverse of a nonzero row vector: sigma @ result == [[1]]
    (oracle for the (k, s) of `zerodyn.ChannelMaps`).

    Uses the first nonzero entry, so the result always exists over a field
    (unlike the Moore-Penrose formula, which breaks when sigma @ sigma^T
    vanishes mod q).
    """
    if sigma.nrows != 1:
        raise DimensionMismatch("expected a single-row matrix")
    for k, a in enumerate(sigma.rows[0]):
        if a != 0:
            entries = [0] * sigma.ncols
            entries[k] = sigma.modulus.inv(a)
            return ModMatrix.column(entries, sigma.modulus)
    raise ZeroRow("zero row has no right inverse")


def dense_normal_form(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix):
    """nu, T1, T2, V1, V2, Sigma and SigmaDag of a channel from the
    dense inverse of [T1; T2] (test oracle for the closed-form maps)."""
    rows = [Hj]
    while (rows[-1] @ Gbar).is_zero():
        if len(rows) == Fbar.nrows:
            raise RelativeDegreeUndefined("all Markov parameters vanish")
        rows.append(rows[-1] @ Fbar)
    nu = len(rows)
    T2 = rows[0]
    for r in rows[1:]:
        T2 = T2.vstack(r)
    T1 = complete_basis(T2)
    V = inverse_mod(T1.vstack(T2))
    l = Fbar.nrows
    V1 = ModMatrix(tuple(r[:l - nu] for r in V.rows), V.modulus,
                   ncols=l - nu)
    V2 = ModMatrix(tuple(r[l - nu:] for r in V.rows), V.modulus, ncols=nu)
    Sigma = rows[-1] @ Gbar
    return dict(nu=nu, T1=T1, T2=T2, V1=V1, V2=V2, Sigma=Sigma,
                SigmaDag=right_inverse_row(Sigma))


def sigma_dag(maps) -> ModMatrix:
    """The right inverse s e_k of Sigma that a `zerodyn.ChannelMaps` holds
    as (k, s), as an h x 1 matrix."""
    k, h = maps.k, maps.Sigma.ncols
    return ModMatrix.column((0,) * k + (maps.s,) + (0,) * (h - k - 1),
                            maps.Sigma.modulus)


def last_column(ct) -> Tuple[int, ...]:
    """The last column of a ciphertext: a modified one's cancel column."""
    return ct_matrix(ct).column_entries(ct.N + (ct.cancel is not None))


def f1_zero_dynamics(v1, public, params):
    """View 1 -> View 2 one channel at a time in zero-dynamics coordinates
    (test oracle for `secviews.f1_view1_to_view2`).

    The combined cancellation runs the zero-dynamics recursion on the
    observed first columns; the message part comes from the lifted residues
    plus a deviation state that tracks the message trajectory's drift from
    the zero-dynamics solution.
    """
    steps = len(v1.input_cts)
    q = public.q
    lift = params.lift
    init_first = ModMatrix.column(v1.init_ct.first_column(), q)
    input_firsts = [ModMatrix.column(ct.first_column(), q)
                    for ct in v1.input_cts]
    init_cancels = []
    step_cancels = [[] for _ in range(steps)]
    Fbar = build_fbar(gain_blocks(public.gain), q)
    for j in range(public.n_channels):
        ct = build_transform(public.Hbar.row(j), Fbar, public.gain.Gbar, j=j)
        lifted = [q.cmod(lift * r.rows[j][0]) for r in v1.residues]
        c_xi = ct.T1 @ init_first
        msg_tilde_ini = ModMatrix.column(lifted[:ct.nu], q)
        init_cancels.append(
            (ct.V2 @ (ct.T2 @ init_first - msg_tilde_ini)).column_entries())
        delta = ModMatrix.zeros(ct.l - ct.nu, 1, q)
        for t in range(steps):
            w_t = ModMatrix.column(lifted[t:t + ct.nu], q)
            comb_tilde = (ct.Sigma @ input_firsts[t]
                          + ct.Psi @ c_xi).rows[0][0]
            msg_tilde = q.cmod(lifted[t + ct.nu]
                               - (ct.Gamma @ w_t).rows[0][0]
                               - (ct.Psi @ delta).rows[0][0])
            b_tilde = q.cmod(comb_tilde - msg_tilde)
            step_cancels[t].append(ct.SigmaDag.scale(b_tilde).column_entries())
            c_xi = ct.S @ c_xi + ct.S3 @ (ct.input_projector @ input_firsts[t])
            delta = (ct.S1 @ delta + ct.S2 @ w_t
                     + ct.S3 @ ct.SigmaDag.scale(msg_tilde))

    return View2(standard_cts=(v1.init_ct,) + v1.input_cts,
                 cancels=tuple(cancel_words(q, columns) for columns
                               in [init_cancels] + step_cancels))


# -- linear algebra over Z_q --------------------------------------------------

def rank_mod(A: ModMatrix) -> int:
    """Rank of A over the field Z_q."""
    _, pivots = _echelon(A.rows, A.modulus.q, reduce_up=False)
    return len(pivots)


class NotFullRowRank(ModRingError):
    pass


def pivot_columns(T2: ModMatrix) -> List[int]:
    """Pivot columns of a full-row-rank T2, ascending: one per row, and T2
    restricted to them is invertible (oracle for the pivots that
    `zerodyn.all_channel_maps` reads off one elimination of [T2 | I])."""
    _, pivots = _echelon(T2.rows, T2.modulus.q, reduce_up=False)
    if len(pivots) < T2.nrows:
        raise NotFullRowRank(
            f"rank {len(pivots)} < {T2.nrows} rows; cannot complete basis")
    return pivots


def complete_basis(T2: ModMatrix) -> ModMatrix:
    """Standard-basis completion of a full-row-rank T2 to a basis of Z_q^l.

    Returns T1 with one row e_i per non-pivot column i of T2, in ascending
    column order, so that [T1; T2] is invertible.
    """
    l = T2.ncols
    pivot_set = set(pivot_columns(T2))
    rows = tuple(
        tuple(1 if j == c else 0 for j in range(l))
        for c in range(l) if c not in pivot_set
    )
    return ModMatrix._trusted(rows, l, T2.modulus)


def centered_difference_check(a: int, b: int, mod: Modulus) -> bool:
    """Check the centered-difference property for a, b in the centered range.

    When |a| + |cmod(a - b)| < q/2 the plain difference and the reduced
    difference agree in absolute value.  Returns True when the hypothesis
    held (and the conclusion was verified), False when the hypothesis did
    not apply.
    """
    if (mod.cmod(a), mod.cmod(b)) != (a, b):
        raise ModRingError("inputs must already lie in the centered range")
    red = mod.cmod(a - b)
    if 2 * (abs(a) + abs(red)) >= mod.q:
        return False
    if abs(a - b) != abs(red):
        raise ModRingError(
            f"centered difference property violated for a={a}, b={b}, q={mod.q}")
    return True


# -- zero-dynamics normal form: the oracle for the deployed cancellation -----

# observer banks whose blocks are shorter than the largest by up to 5 rows
UNEVEN_BLOCKS = [(2, 6), (4, 6), (1, 3, 6), (6, 1, 4), (3, 3)]


def uneven_gain(q, sizes, rng):
    """A random l x 3 gain with small entries for blocks `sizes`."""
    return ModMatrix([[rng.randint(-9, 9) for _ in range(3)]
                      for _ in range(sum(sizes))], q)


def per_row_channel_maps(Hj: ModMatrix, Fbar: ModMatrix,
                         Gbar: ModMatrix) -> ChannelMaps:
    """One channel's maps built on its own: a Markov search of one product
    per depth for this row alone, `pivot_columns` of T2 and `inverse_mod`
    of T2 on its pivots (oracle for `zerodyn.all_channel_maps`, which takes
    each depth's product over every row still searching and one
    elimination of [T2 | I] per row)."""
    rows = [Hj]
    for _ in range(Fbar.nrows):
        Sigma = rows[-1] @ Gbar
        if not Sigma.is_zero():
            break
        rows.append(rows[-1] @ Fbar)
    else:
        raise RelativeDegreeUndefined("all Markov parameters vanish")
    q = Gbar.modulus
    l, nu = Fbar.nrows, len(rows)
    T2 = ModMatrix._trusted(tuple(r.rows[0] for r in rows), l, q)
    pivots = pivot_columns(T2)
    Pinv = inverse_mod(ModMatrix._trusted(
        tuple(tuple(row[c] for c in pivots) for row in T2.rows), nu, q))
    at = {c: k for k, c in enumerate(pivots)}
    V2 = ModMatrix._trusted(tuple(Pinv.rows[at[i]] if i in at else (0,) * nu
                                  for i in range(l)), nu, q)
    k = next(i for i, a in enumerate(Sigma.rows[0]) if a)
    return ChannelMaps(nu=nu, T2=T2, Sigma=Sigma, k=k,
                       s=q.inv(Sigma.rows[0][k]), V2=V2)


def echelon_chain_inverse(rows, q: Modulus):
    """(pivots, P^-1, V2) of a channel's independent chain rows T2 read off
    one elimination of [T2 | I] (oracle for `zerodyn._chain_inverse`, and
    for V2, which places P^-1's rows at the pivot rows of l zero rows)."""
    nu, l = len(rows), len(rows[0])
    reduced, pivots = _echelon(
        [tuple(row) + (0,) * i + (1,) + (0,) * (nu - 1 - i)
         for i, row in enumerate(rows)], q.q, reduce_up=True)
    Pinv = ModMatrix((row[l:] for row in reduced), q, ncols=nu).rows
    at = dict(zip(pivots, Pinv))
    return pivots, list(Pinv), tuple(at.get(i, (0,) * nu) for i in range(l))


def joined_planes(e: int, planes: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    """The rows that (P, n, l) digit planes of width e hold, as Python ints:
    sum(planes[p] << (e p))."""
    joined = sum(planes[p].astype(object) << (e * p)
                 for p in range(len(planes)))
    return tuple(tuple(int(a) for a in row) for row in joined)


@dataclass(frozen=True)
class CancellationState:
    """Zero-dynamics state of one channel's mask cancellation."""

    j: int
    b_xi: ModMatrix  # (l - nu) x 1
    step: int


@dataclass(frozen=True)
class ChannelTransform:
    """Per-channel normal-form data over Z_q.

    T2 stacks H, HF, ..., HF^(nu-1); T1 completes it to a basis, and
    [V1, V2] is the inverse of the stacked transform.  The S/Psi/Gamma/Sigma
    blocks are the normal-form coefficients, SigmaDag a right inverse of
    Sigma, and S the zero-dynamics state matrix S1 - S3 SigmaDag Psi.
    """

    j: int
    nu: int
    T1: ModMatrix
    T2: ModMatrix
    V1: ModMatrix
    V2: ModMatrix
    S1: ModMatrix
    S2: ModMatrix
    S3: ModMatrix
    Psi: ModMatrix
    Gamma: ModMatrix
    Sigma: ModMatrix
    SigmaDag: ModMatrix
    S: ModMatrix
    input_projector: ModMatrix  # I - SigmaDag Sigma

    @property
    def l(self) -> int:
        return self.T2.ncols

    def initial_state(self, b_ini: ModMatrix) -> CancellationState:
        return CancellationState(j=self.j, b_xi=self.T1 @ b_ini, step=0)


def build_transform(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix,
                    j: int = 0) -> ChannelTransform:
    """Construct the channel transform; requires a defined relative degree.

    Starts from `channel_maps`.  T1 is the unit rows of the non-pivot
    columns of T2 and V1 the same columns of I - V2 T2, so [V1, V2] inverts
    [T1; T2] without an elimination.
    """
    m = channel_maps(Hj, Fbar, Gbar)
    q = Gbar.modulus
    l, nu = Fbar.nrows, m.nu
    pivots = pivot_columns(m.T2)
    free = [c for c in range(l) if c not in pivots]
    eye = ModMatrix.identity(l, q)
    T1 = ModMatrix._trusted(tuple(eye.rows[c] for c in free), l, q)
    V1 = ModMatrix._trusted(tuple(tuple(row[c] for c in free)
                                  for row in (eye - m.V2 @ m.T2).rows),
                            l - nu, q)
    T1F = T1 @ Fbar
    S1 = T1F @ V1
    S3 = T1 @ Gbar
    HFnu = m.T2.row(nu - 1) @ Fbar
    Psi = HFnu @ V1
    dag = right_inverse_row(m.Sigma)
    return ChannelTransform(
        j=j, nu=nu, T1=T1, T2=m.T2, V1=V1, V2=m.V2, S1=S1, S2=T1F @ m.V2,
        S3=S3, Psi=Psi, Gamma=HFnu @ m.V2, Sigma=m.Sigma,
        SigmaDag=dag, S=S1 - S3 @ dag @ Psi,
        input_projector=ModMatrix.identity(Gbar.ncols, q) - dag @ m.Sigma,
    )


def simulate_channel(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix,
                     b_ini: ModMatrix,
                     b_v: Sequence[ModMatrix]) -> List[int]:
    """Reference channel simulation; returns the output at steps 0..len(b_v).

    Used as the independent oracle for every zero-dynamics test.
    """
    state = b_ini
    outputs = [(Hj @ state).rows[0][0]]
    for v in b_v:
        state = Fbar @ state + Gbar @ v
        outputs.append((Hj @ state).rows[0][0])
    return outputs


def cancellation_init(ct: ChannelTransform,
                      b_ini: ModMatrix) -> Tuple[ModMatrix, CancellationState]:
    """Initial cancellation: the chain part of b_ini plus the starting
    zero-dynamics state."""
    if not b_ini.is_column() or b_ini.nrows != ct.l:
        raise DimensionMismatch(f"b_ini must be a {ct.l}-vector column")
    return ct.T2 @ b_ini, ct.initial_state(b_ini)


def cancellation_step(ct: ChannelTransform, state: CancellationState,
                      b_v: ModMatrix) -> Tuple[int, CancellationState]:
    """One cancellation update.

    Emits the scalar input-cancellation term for the current step and
    advances the zero-dynamics state driven by the same input.
    """
    if not b_v.is_column() or b_v.nrows != ct.Sigma.ncols:
        raise DimensionMismatch("input vector has wrong length")
    tilde = (ct.Sigma @ b_v + ct.Psi @ state.b_xi).rows[0][0]
    nxt = ct.S @ state.b_xi + ct.S3 @ (ct.input_projector @ b_v)
    return tilde, CancellationState(j=state.j, b_xi=nxt, step=state.step + 1)


# -- whole-state oracles of the encrypted and quantized observers ------------

def per_step_reference_observer(bank, trajectory,
                                zhat_ini: np.ndarray) -> ReferenceRun:
    """The stacked deadbeat observer one step at a time, with each subset's
    rows gathered, and Fbar's shift taken, block by block at every step
    (oracle for `obsdesign.run_reference_observer`, which runs the whole
    trajectory: the state by block position over all steps, and each
    matvec as one matmul over the stack of steps)."""
    zhat = np.asarray(zhat_ini, dtype=float).ravel().copy()
    run = ReferenceRun(zhat=[], xhat=[], rhat=[], subset_estimates=[])
    for t in range(len(trajectory)):
        xh = bank.Phi_pinv @ zhat
        per_subset, stacked = {}, []
        for subset in bank.subsets:
            idx = []
            for i in subset:
                idx.extend(range(bank.offsets[i],
                                 bank.offsets[i] + bank.block_sizes[i]))
            xL = bank.subset_pinvs[subset] @ zhat[idx]
            per_subset[subset] = xL
            stacked.append(xL - xh)
        run.zhat.append(zhat.copy())
        run.xhat.append(xh)
        run.rhat.append(np.concatenate(stacked))
        run.subset_estimates.append(per_subset)
        v = np.concatenate([trajectory.u[t], trajectory.y[t]])
        shifted = np.zeros_like(zhat)
        for o, li in zip(bank.offsets, bank.block_sizes):
            shifted[o + 1:o + li] = zhat[o:o + li - 1]
        zhat = shifted + bank.G_real @ v
    return run


def per_step_closed_loop(model: PlantModel, attacks: AttackScenario,
                         steps: int) -> Trajectory:
    """The closed loop with each state update taken by the checked
    `step_plant` (oracle for `plantsim.run_closed_loop`)."""
    traj, x = Trajectory(), model.x_ini.copy()
    for t in range(steps):
        u = model.K @ x
        a = attacks.vector_at(t, model.p)
        traj.x.append(x)
        traj.u.append(u)
        traj.y.append(model.C @ x + a)
        traj.a.append(a)
        x = step_plant(model, x, u)
    return traj


def per_step_signal_bound(bank) -> float:
    """`obsdesign.calibrate_M` at its horizon of 10 l_max, from the per-step
    oracle: M_SAFETY times the largest |rhat| or |zhat| of the attack-free
    run started at zhat = 0."""
    traj = run_closed_loop(bank.model, AttackScenario(), 10 * bank.l_max)
    run = per_step_reference_observer(bank, traj, np.zeros(bank.l_total))
    return M_SAFETY * float(max(np.max(np.abs(run.rhat), initial=0.0),
                                np.max(np.abs(run.zhat), initial=0.0)))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal float64 arrays bit for bit, so -0.0 differs from 0.0."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_reference_runs_equal(got: ReferenceRun, want: ReferenceRun):
    """Every zhat, xhat, rhat and subset estimate equal, bit for bit."""
    assert len(got.zhat) == len(want.zhat)
    assert len(got.subset_estimates) == len(want.subset_estimates)
    for t, (a, b) in enumerate(zip(got.subset_estimates,
                                   want.subset_estimates)):
        for name in ("zhat", "xhat", "rhat"):
            assert same_bits(getattr(got, name)[t],
                             getattr(want, name)[t]), (name, t)
        assert list(a) == list(b), t
        assert all(same_bits(a[s], b[s]) for s in b), t

def encrypted_residue(state, public) -> Tuple[ModMatrix, ModMatrix]:
    """Stacked per-channel residue rows and their first column.

    Row j applies channel j's residue row to that channel's materialized
    state, rebuilt by `full_state` (oracle for
    `encobs.residue_first_column`).
    """
    full = full_state(state, public)
    R = ModMatrix(tuple((public.Hbar.row(j) @ ct_matrix(channel(full, j))
                         ).rows[0]
                        for j in range(state.n_channels)),
                  public.q, ncols=state.N + 2)
    return R, ModMatrix.column(R.column_entries(0), public.q)


def joined_residue_first_column(state, public) -> ModMatrix:
    """Channel j's residue row applied to its first column, Hbar_j first -
    Hbar_j cancel_j, after joining the first-column and cancel-column limbs
    into Python ints (oracle for the half-limb sums of
    `encobs.residue_first_column`)."""
    first, *cancels = zip(*public.gain.join(state.body))
    return ModMatrix.column(
        [sum(map(mul, hrow, first)) - sum(map(mul, hrow, cancel))
         for hrow, cancel in zip(public.Hbar.rows, cancels)], public.q)


def decrypt_channel_state(state, public, j: int, sk) -> ModMatrix:
    """Dec' of channel j's state, rebuilt by `full_state`:
    first - shared @ sk + last, reduced."""
    return dense_decrypt(channel(full_state(state, public), j), sk)


def recover_plain_estimate(zbar: ModMatrix, PhiPinvBar: ModMatrix,
                           params) -> np.ndarray:
    """Physical-scale state estimate s1^2 s2 * (PhiPinvBar @ zbar mod q)."""
    xbar = PhiPinvBar @ zbar
    return np.array([params.resolution * v for v in xbar.column_entries()])


@dataclass(frozen=True)
class CalibrationReport:
    max_residue_dev: float
    max_subset_dev: float
    eps: float

    @property
    def ok(self) -> bool:
        return self.max_residue_dev <= self.eps and self.max_subset_dev <= self.eps


def calibrate_quantization(setup, horizon=None) -> CalibrationReport:
    """Empirical adequacy check for the scale factors of a `SystemSetup`.

    Runs the attack-free loop in both arithmetics and measures how far the
    rescaled Z_q residue and subset estimates drift from the real-valued
    reference.  If either deviation exceeds eps, the scales are too coarse:
    decrease s1/s2 (and re-check the modulus bounds).
    """
    bank, maps, params = setup.bank, setup.mod_maps, setup.params
    if horizon is None:
        horizon = 10 * bank.l_max
    traj = run_closed_loop(bank.model, AttackScenario(), horizon)
    ref = run_reference_observer(bank, traj, setup.zhat_ini)
    zbar = quantize_initial(setup.zhat_ini, params)
    subset_pinv_bars = {s: ModMatrix(m, params.q)
                        for s, m in setup.maps.subset_pinv_bars.items()}
    res = params.resolution
    max_res_dev = 0.0
    max_sub_dev = 0.0
    for t in range(horizon):
        rbar = residue_quantized(zbar, maps.Hbar)
        dev = max(
            (abs(res * v - rv) for v, rv in
             zip(rbar.column_entries(), ref.rhat[t])),
            default=0.0)
        max_res_dev = max(max_res_dev, dev)
        for subset in bank.subsets:
            idx = bank.subset_indices(subset)
            zsub = ModMatrix.column(
                [zbar.rows[i][0] for i in idx], params.q)
            xsub = subset_pinv_bars[subset] @ zsub
            ref_sub = ref.subset_estimates[t][subset]
            dev = max(abs(res * v - rv) for v, rv in
                      zip(xsub.column_entries(), ref_sub))
            max_sub_dev = max(max_sub_dev, dev)
        vbar = quantize_input(traj.u[t], traj.y[t], params)
        zbar = step_quantized(zbar, vbar, maps.gain)
    return CalibrationReport(max_residue_dev=max_res_dev,
                             max_subset_dev=max_sub_dev, eps=params.eps)


# -- the wire codec -----------------------------------------------------------

def reference_pack_ints(values: Sequence[int]) -> bytes:
    """The integer-list layout the golden digests were first recorded in,
    one value at a time: a uint32 count, then per value a sign byte, a
    uint32 magnitude length and the little-endian magnitude in its fewest
    bytes (one for 0)."""
    out = [struct.pack("<I", len(values))]
    for v in values:
        mag = abs(v)
        raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "little")
        out.append(struct.pack("<BI", 1 if v < 0 else 0, len(raw)))
        out.append(raw)
    return b"".join(out)


def reference_ct_bytes(ct: Ciphertext) -> bytes:
    """A ciphertext in the layout of `reference_pack_ints`: magic, the list
    [q, N, kind, h], then its centred entries row by row."""
    return (_CT_MAGIC
            + reference_pack_ints([ct.q.q, ct.N, ct.cancel is not None, ct.h])
            + reference_pack_ints(ct_matrix(ct).flat()))


def reference_view_bytes(view) -> bytes:
    """View 1 or View 2 in the layout of `reference_pack_ints`: magic, the
    two uint32 counts, the size-prefixed `reference_ct_bytes` and one
    integer list per residue or per step's cancels."""
    if isinstance(view, View1):
        magic, counts = b"VIEW1", (len(view.input_cts), len(view.residues))
        cts = (view.init_ct,) + view.input_cts
        lists = [r.column_entries() for r in view.residues]
    else:
        magic = b"VIEW2"
        counts = (len(view.cancels[0]), len(view.standard_cts) - 1)
        cts = view.standard_cts
        lists = [centred(cts[0].q, step.reshape(-1, step.shape[-1]))
                 for step in view.cancels]
    blobs = [reference_ct_bytes(ct) for ct in cts]
    return b"".join([magic, struct.pack("<II", *counts)]
                    + [struct.pack("<I", len(b)) + b for b in blobs]
                    + [reference_pack_ints(values) for values in lists])


def _fixed(q: int, values: Sequence[int]) -> bytes:
    """Each value as ceil(bits(q) / 8) little-endian bytes, unreduced."""
    stride = (q.bit_length() + 7) // 8
    return b"".join(v.to_bytes(stride, "little") for v in values)


def reference_pack_values(q: Modulus, values: Sequence[int]) -> bytes:
    """The value list, one value at a time: a uint32 count, then each
    value mod q in ceil(bits(q) / 8) little-endian bytes."""
    return struct.pack("<I", len(values)) + _fixed(q.q, [v % q.q
                                                         for v in values])


def reference_read_values(buf: bytes, offset: int,
                          q: Modulus) -> Tuple[list, int]:
    """Strict inverse of `reference_pack_values` -> (centred values, end),
    decoding one `int.from_bytes` at a time."""
    stride = (q.q.bit_length() + 7) // 8
    if offset + 4 > len(buf):
        raise LweError("truncated value list")
    (count,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    if offset + count * stride > len(buf):
        raise LweError("truncated value list")
    values = [int.from_bytes(buf[o:o + stride], "little")
              for o in range(offset, offset + count * stride, stride)]
    if any(v >= q.q for v in values):
        raise LweError("value not below q")
    return [q.cmod(v) for v in values], offset + count * stride


def _count(n: int) -> bytes:
    return struct.pack("<I", n)


# One hand-built value list over a modulus q per kind of defect, as a
# function of q, with the end of the message the strict reader must give.
# The keys name the defects of a sign-and-length integer encoding; each
# blob is the same kind of defect in the fixed-width layout, where a
# value's only canonical form is "below q" and its only length field is
# the list's count.  The value defects need 8 ceil(bits(q) / 8) > bits(q)
# + 1, which holds for q = 11 and the benchmark q.
MALFORMED_INT_LISTS = {
    # a value's top byte with a bit that no value below q sets
    "sign-byte-2": (lambda q: value_list(
        q, [5 | 1 << 8 * ((q.bit_length() + 7) // 8) - 1]),
        "value not below q"),
    # 5 written as the larger representative 5 + q
    "leading-zero-byte": (lambda q: value_list(q, [5 + q]),
                          "value not below q"),
    # 0 written as q
    "minus-zero": (lambda q: value_list(q, [q]), "value not below q"),
    # 0 written as 2 q
    "negative-zero-length-magnitude": (lambda q: value_list(q, [2 * q]),
                                       "value not below q"),
    # a list of one value that ends at its count
    "zero-length-magnitude": (lambda q: _count(1), "truncated value list"),
    # the count with its high bytes set, over one value
    "length-field-with-its-high-bytes-set": (
        lambda q: _count(0x01000001) + _fixed(q, [5]), "truncated value list"),
    # the list's only header, its count, cut short
    "truncated-inside-the-5-byte-header": (lambda q: _count(1)[:3],
                                           "truncated value list"),
    # the last value cut by its final byte
    "truncated-inside-the-magnitude": (
        lambda q: _count(2) + _fixed(q, [5, 7])[:-1], "truncated value list"),
    "count-larger-than-the-bytes-left": (
        lambda q: _count(3) + _fixed(q, [5]), "truncated value list"),
    # the largest count on a 20-byte list: refused before any allocation
    "count-of-2^32-1": (lambda q: _count(2 ** 32 - 1) + bytes(16),
                        "truncated value list"),
}

# The Mersenne prime 2^4423 - 1: far wider than any modulus a Modulus
# accepts, and about 20 s of Miller-Rabin if one were run on it.
HUGE_PRIME = 2 ** 4423 - 1

# The benchmark q, then three distinct 1024-bit primes (2^1024 - k is prime
# for k = 105, 179, 1397; found once with `modring._is_probable_prime`),
# each about 0.35 s of Miller-Rabin on a 2-vCPU x86-64.
MANY_MODULI = (BENCH_Q, 2 ** 1024 - 105, 2 ** 1024 - 179, 2 ** 1024 - 1397)


def modulus_bytes(q: int) -> bytes:
    """A modulus on the wire: a uint16 byte count and the magnitude."""
    size = (q.bit_length() + 7) // 8
    return struct.pack("<H", size) + q.to_bytes(size, "little")


def ct_head(q: int, N: int, kind: int, h: int) -> bytes:
    """A ciphertext blob up to its value list: magic, modulus, N, kind and
    h."""
    return _CT_MAGIC + modulus_bytes(q) + struct.pack("<IBI", N, kind, h)


def value_list(q: int, values: Sequence[int]) -> bytes:
    """A value list of `values` as they are, not reduced mod q."""
    return _count(len(values)) + _fixed(q, values)


def ct_blob(q: int) -> bytes:
    """A standard ciphertext blob (N = 1, one row, entries 3 and 4) over
    q, prime or not, built by hand."""
    return ct_head(q, 1, 0, 1) + value_list(q, [3, 4])


def many_moduli_view2_blob() -> bytes:
    """A View 2 of 4 ciphertexts, one over each of `MANY_MODULI`, with no
    channels."""
    cts = [ct_blob(q) for q in MANY_MODULI]
    return (b"VIEW2" + struct.pack("<II", 0, len(cts) - 1)
            + b"".join(struct.pack("<I", len(ct)) + ct for ct in cts)
            + _count(0) * len(cts))
