"""Shared test oracles: independent implementations used to cross-check the
library, plus random problem generators."""

import random

import numpy as np

from cipherobs.encobs import EncryptedBatch
from cipherobs.modring import ModMatrix, Modulus, complete_basis, \
    inverse_mod, right_inverse_row
from cipherobs.plantsim import PlantModel
from cipherobs.secviews import View2
from cipherobs.zerodyn import RelativeDegreeUndefined, build_transform


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


def error_trajectory(artifacts, gbar_rows, block_sizes, steps: int):
    """Accumulated encryption-error states over the plain integers.

    The error of the initial encryption seeds the recursion; each input
    encryption's error enters through the integer gain matrix.  No modular
    reduction is applied, matching the plain-integer error dynamics the
    recovery argument relies on.
    """
    e = list(artifacts[0].error.column_entries())
    out = [tuple(e)]
    for t in range(1, steps + 1):
        ev = artifacts[t].error.column_entries()
        shifted = [0] * len(e)
        o = 0
        for li in block_sizes:
            shifted[o + 1:o + li] = e[o:o + li - 1]
            o += li
        e = [s + sum(g * v for g, v in zip(grow, ev))
             for s, grow in zip(shifted, gbar_rows)]
        out.append(tuple(e))
    return out


def dense_normal_form(Hj: ModMatrix, Fbar: ModMatrix, Gbar: ModMatrix):
    """nu, T1, T2, V1, V2, H F^nu, Sigma and SigmaDag of a channel from the
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
    return dict(nu=nu, T1=T1, T2=T2, V1=V1, V2=V2, HFnu=rows[-1] @ Fbar,
                Sigma=Sigma, SigmaDag=right_inverse_row(Sigma))


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
    for j in range(public.n_channels):
        ct = build_transform(public.Hbar.row(j), public.Fbar, public.Gbar,
                             j=j)
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

    def channels(std_ct, cancels):
        batch = EncryptedBatch.from_standard(std_ct, cancels)
        return tuple(batch.channel(j) for j in range(batch.n_channels))

    return View2(init_cts=channels(v1.init_ct, init_cancels),
                 input_cts=tuple(channels(std_ct, cancels) for std_ct, cancels
                                 in zip(v1.input_cts, step_cancels)))
