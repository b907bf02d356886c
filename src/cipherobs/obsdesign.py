"""Observer synthesis: per-sensor canonical decompositions, deadbeat gains,
the stacked bank with subset pseudo-inverses, the residue map, and the
real-arithmetic reference observer used as an oracle for the quantized and
encrypted pipelines.

Each sensor i contributes an observable subsystem z_i = Phi_i x with a
companion-form state matrix whose last column carries the characteristic
polynomial coefficients.  Choosing the observer gain equal to that column
makes the error matrix a pure lower shift: integer valued, nilpotent, and
hence deadbeat.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .plantsim import PlantModel, Trajectory, run_closed_loop, AttackScenario

__all__ = [
    "DesignError",
    "ConsistencyFailure",
    "RedundancyViolation",
    "PartialObserver",
    "ObserverBank",
    "ResidueMaps",
    "observability_index",
    "canonical_decomposition",
    "build_bank",
    "residue_map",
    "run_reference_observer",
    "ReferenceRun",
    "calibrate_M",
    "design_report",
    "round_half_up",
]

RANK_TOL = 1e-9
CONSISTENCY_TOL = 1e-6
M_SAFETY = 1.2      # signal bound over the largest observed signal


class DesignError(Exception):
    pass


class ConsistencyFailure(DesignError):
    pass


class RedundancyViolation(DesignError):
    pass


def round_half_up(x: float) -> int:
    """Deterministic rounding: halves go toward +infinity."""
    return math.floor(x + 0.5)


def _round_matrix(M: np.ndarray) -> np.ndarray:
    """`round_half_up` of every entry as int64, each below 2^62 in absolute
    value so that Hbar's differences fit too."""
    R = np.floor(np.atleast_2d(M) + 0.5)
    if not np.all(np.abs(R) < 2.0 ** 62):
        raise DesignError("a scaled observer map does not fit int64; raise s1")
    return R.astype(np.int64)


def _rows(M: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    return tuple(map(tuple, M.tolist()))


def _observability(A: np.ndarray, Ci: np.ndarray) -> Tuple[int, np.ndarray]:
    """Rank of the stacked observability matrix of (A, Ci) and the right
    singular vectors of its SVD, taken once.

    Rank is decided by singular values above RANK_TOL times the largest one.
    """
    rows = [Ci]
    for _ in range(A.shape[0] - 1):
        rows.append(rows[-1] @ A)
    _, s, Vt = np.linalg.svd(np.vstack(rows))
    if s[0] == 0.0:
        return 0, Vt
    return int(np.sum(s > RANK_TOL * s[0])), Vt


def observability_index(A: np.ndarray, Ci: np.ndarray) -> int:
    """Rank of the stacked observability matrix of (A, Ci)."""
    return _observability(np.asarray(A, dtype=float),
                          np.asarray(Ci, dtype=float).reshape(1, -1))[0]


@dataclass(frozen=True)
class PartialObserver:
    """Observable canonical decomposition of one sensor plus its deadbeat gain.

    Fbar is the integer lower-shift error matrix (F - L J for the deadbeat
    gain L = f as a column), nilpotent of order l_i.
    """

    index: int
    l_i: int
    f: np.ndarray          # characteristic coefficients f_1..f_{l_i}
    F: np.ndarray          # companion form, last column = f
    J: np.ndarray          # [0 ... 0 1]
    Fbar: np.ndarray       # integer lower shift
    Phi: np.ndarray        # l_i x n, full row rank, Phi A = F Phi

    def __post_init__(self):
        for name in ("f", "F", "J", "Fbar", "Phi"):
            getattr(self, name).setflags(write=False)


def canonical_decomposition(A: np.ndarray, Ci: np.ndarray,
                            index: int = 0) -> PartialObserver:
    """Observable canonical form of (A, Ci) and the matching state map Phi.

    The map is pinned by the canonical output row: the last row of Phi is Ci
    and the remaining rows follow from the backward recursion
    phi_{h-1} = phi_h A - f_h Ci.  The leftover identity phi_1 A = f_1 Ci is
    a Cayley-Hamilton consequence and is used as a consistency check.
    """
    A = np.asarray(A, dtype=float)
    Ci = np.asarray(Ci, dtype=float).reshape(1, -1)
    li, Vt = _observability(A, Ci)
    if li < 1:
        raise ConsistencyFailure(f"sensor {index}: zero observability index")
    W = Vt[:li]
    restricted = W @ A @ W.T
    coeffs = np.real(np.poly(restricted))
    # monic poly lam^l + c_1 lam^{l-1} + ... + c_l  ->  f_h = -c_{l-h+1}
    f = -coeffs[1:][::-1]
    phi_rows = [np.zeros_like(Ci)] * li
    phi_rows[li - 1] = Ci.copy()
    for h in range(li, 1, -1):
        phi_rows[h - 2] = phi_rows[h - 1] @ A - f[h - 1] * Ci
    leftover = phi_rows[0] @ A - f[0] * Ci
    scale = max(np.linalg.norm(A, np.inf), 1.0)
    if np.linalg.norm(leftover, np.inf) > CONSISTENCY_TOL * scale:
        raise ConsistencyFailure(
            f"sensor {index}: canonical recursion residual "
            f"{np.linalg.norm(leftover, np.inf):.3e} exceeds tolerance")
    Phi = np.vstack(phi_rows)
    F = np.zeros((li, li))
    for h in range(1, li):
        F[h, h - 1] = 1.0
    F[:, -1] = f
    J = np.zeros((1, li))
    J[0, -1] = 1.0
    Fbar = np.zeros((li, li), dtype=int)
    for h in range(1, li):
        Fbar[h, h - 1] = 1
    return PartialObserver(index=index, l_i=li, f=f.copy(), F=F, J=J,
                           Fbar=Fbar, Phi=Phi)


def _rank(M: np.ndarray) -> int:
    """Rank of M at RANK_TOL times max(1, ||M||_2), both from one SVD."""
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * max(1.0, s.max())))


def _pinv_full_column(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse (M^T M)^-1 M^T for full-column-rank M."""
    return np.linalg.solve(M.T @ M, M.T)


@dataclass(frozen=True)
class ObserverBank:
    """All per-sensor decompositions plus the stacked observer data.

    `subsets` lists every (p-k)-subset of sensors in lexicographic order;
    kappa is the largest infinity norm over the stored pseudo-inverses.
    Built once: each subset's gather (its sensors' rows of the stacked
    state), in `subsets` order.
    """

    model: PlantModel
    k: int
    partials: Tuple[PartialObserver, ...]
    subsets: Tuple[Tuple[int, ...], ...]
    Phi: np.ndarray
    G_real: np.ndarray            # [Phi B, L]: sensor i's f in block i
    Phi_pinv: np.ndarray
    subset_pinvs: Dict[Tuple[int, ...], np.ndarray]
    subset_gathers: Dict[Tuple[int, ...], np.ndarray]
    kappa: float
    block_sizes: Tuple[int, ...]
    offsets: Tuple[int, ...]
    l_total: int
    l_max: int
    n_r: int

    def __post_init__(self):
        for arr in (self.Phi, self.G_real, self.Phi_pinv,
                    *self.subset_gathers.values()):
            arr.setflags(write=False)

    def z_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.block_sizes[i])

    def subset_indices(self, subset: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(self.subset_gathers[subset].tolist())

    def ztilde_ini(self, x_ini: np.ndarray, zhat_ini: np.ndarray) -> float:
        """Largest per-sensor initial estimation error max_i |z_i(0) - zhat_i(0)|."""
        x_ini = np.asarray(x_ini, dtype=float).ravel()
        zhat_ini = np.asarray(zhat_ini, dtype=float).ravel()
        worst = 0.0
        for i, part in enumerate(self.partials):
            err = part.Phi @ x_ini - zhat_ini[self.z_slice(i)]
            worst = max(worst, float(np.max(np.abs(err))) if err.size else 0.0)
        return worst


def build_bank(model: PlantModel, k: int) -> ObserverBank:
    """Assemble the observer bank for sparsity bound k.

    Raises RedundancyViolation naming the first subset whose stacked map
    loses column rank (the redundant-observability requirement).
    """
    p, n = model.p, model.n
    if not 0 <= k < p:
        raise DesignError(f"k must satisfy 0 <= k < p, got k={k}, p={p}")
    partials = tuple(canonical_decomposition(model.A, model.C[i], index=i)
                     for i in range(p))
    block_sizes = tuple(part.l_i for part in partials)
    offsets = tuple(int(v) for v in np.cumsum((0,) + block_sizes[:-1]))
    l_total = sum(block_sizes)
    Phi = np.vstack([part.Phi for part in partials])
    if _rank(Phi) < n:
        raise RedundancyViolation("full stacked map Phi lost column rank")
    L_gain = np.zeros((l_total, p))
    for i, part in enumerate(partials):
        L_gain[offsets[i]:offsets[i] + part.l_i, i] = part.f
    G_real = np.hstack([Phi @ model.B, L_gain])

    subsets = tuple(itertools.combinations(range(p), p - k))
    Phi_pinv = _pinv_full_column(Phi)
    kappa = float(np.linalg.norm(Phi_pinv, np.inf))
    subset_pinvs: Dict[Tuple[int, ...], np.ndarray] = {}
    blocks = [np.arange(o, o + li) for o, li in zip(offsets, block_sizes)]
    for subset in subsets:
        PhiL = np.vstack([partials[i].Phi for i in subset])
        rank = _rank(PhiL)
        if rank < n:
            raise RedundancyViolation(
                f"subset {tuple(i + 1 for i in subset)} has rank {rank} < {n}")
        pinv = _pinv_full_column(PhiL)
        pinv.setflags(write=False)
        subset_pinvs[subset] = pinv
        kappa = max(kappa, float(np.linalg.norm(pinv, np.inf)))

    return ObserverBank(
        model=model, k=k, partials=partials, subsets=subsets, Phi=Phi,
        G_real=G_real, Phi_pinv=Phi_pinv, subset_pinvs=subset_pinvs,
        kappa=kappa,
        subset_gathers={s: np.concatenate([blocks[i] for i in s])
                        for s in subsets},
        block_sizes=block_sizes, offsets=offsets, l_total=l_total,
        l_max=max(block_sizes), n_r=n * len(subsets),
    )


@dataclass(frozen=True)
class ResidueMaps:
    """Scaled-and-rounded integer observer matrices, ready for Z_q.

    Hbar stacks one block row per subset: the subset pseudo-inverse routed
    through its 0/1 selector minus the full pseudo-inverse, so that
    Hbar @ zbar reproduces the stacked subset-vs-full estimate differences.
    """

    s1: float
    Gbar: Tuple[Tuple[int, ...], ...]
    Hbar: Tuple[Tuple[int, ...], ...]
    PhiPinvBar: Tuple[Tuple[int, ...], ...]
    subset_pinv_bars: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]


def residue_map(bank: ObserverBank, s1: float) -> ResidueMaps:
    """Scale the real observer matrices by 1/s1 and round to integers, on
    int64 arrays: subset L's block of Hbar is -PhiPinvBar plus L's rounded
    pseudo-inverse added at L's gather."""
    if not 0 < s1 <= 1:
        raise DesignError(f"s1 must lie in (0, 1], got {s1}")
    full = _round_matrix(bank.Phi_pinv / s1)
    bars = {subset: _round_matrix(bank.subset_pinvs[subset] / s1)
            for subset in bank.subsets}
    H = np.tile(-full, (len(bank.subsets), 1))
    for r, subset in enumerate(bank.subsets):
        H[r * len(full):(r + 1) * len(full), bank.subset_gathers[subset]] \
            += bars[subset]
    return ResidueMaps(s1=s1, Gbar=_rows(_round_matrix(bank.G_real / s1)),
                       Hbar=_rows(H), PhiPinvBar=_rows(full),
                       subset_pinv_bars={s: _rows(b) for s, b in bars.items()})


@dataclass
class ReferenceRun:
    """Real-arithmetic observer trajectory; the oracle for the Z_q pipelines."""

    zhat: list
    xhat: list
    rhat: list
    subset_estimates: list  # per step: dict subset -> xhat_subset


def _reference_arrays(bank: ObserverBank, trajectory: Trajectory,
                      zhat_ini: np.ndarray):
    """zhat, xhat, each subset's estimate and rhat, one row per step; each
    readout is one matmul over the stack of steps, the same matvec per step."""
    zhat = np.asarray(zhat_ini, dtype=float).ravel()
    if zhat.shape != (bank.l_total,):
        raise DesignError(f"zhat_ini must have length {bank.l_total}")
    V = np.hstack([np.reshape(trajectory.u, (len(trajectory), bank.model.m)),
                   np.reshape(trajectory.y, (len(trajectory), bank.model.p))])
    gv = np.matmul(bank.G_real, V[:-1, :, None])[..., 0]
    Z = np.tile(zhat, (len(trajectory), 1))
    # Fbar's shift, by block position over all steps; block starts read 0.0
    starts, sizes = np.array(bank.offsets), np.array(bank.block_sizes)
    for h in range(bank.l_max):
        rows = starts[sizes > h] + h
        Z[1:, rows] = (Z[:-1, rows - 1] if h else 0.0) + gv[:, rows]
    xhat = np.matmul(bank.Phi_pinv, Z[..., None])[..., 0]
    subset_xhat = [np.matmul(bank.subset_pinvs[s], Z[:, g, None])[..., 0]
                   for s, g in bank.subset_gathers.items()]
    rhat = np.concatenate([xL - xhat for xL in subset_xhat], axis=1)
    return Z, xhat, subset_xhat, rhat


def run_reference_observer(bank: ObserverBank, trajectory: Trajectory,
                           zhat_ini: np.ndarray) -> ReferenceRun:
    """Iterate the stacked deadbeat observer on a recorded trajectory; each
    subset reads its estimate through the gather the bank holds."""
    Z, xhat, subset_xhat, rhat = _reference_arrays(bank, trajectory, zhat_ini)
    return ReferenceRun(zhat=list(Z), xhat=list(xhat), rhat=list(rhat),
                        subset_estimates=[dict(zip(bank.subsets, xs))
                                          for xs in zip(*subset_xhat)])


def calibrate_M(bank: ObserverBank, model: PlantModel, horizon: int) -> float:
    """Attack-free supremum of the residue and observer-state norms.

    Runs the closed loop without attacks, with the observer started at
    zhat = 0, and returns M_SAFETY times the largest observed infinity norm;
    `horizon` must cover the transient (at least ten times the deadbeat
    settling length).
    """
    if horizon < 10 * bank.l_max:
        raise DesignError(f"horizon {horizon} < 10 * l_max = {10 * bank.l_max}")
    traj = run_closed_loop(model, AttackScenario(), horizon)
    Z, _, _, rhat = _reference_arrays(bank, traj, np.zeros(bank.l_total))
    return M_SAFETY * float(max(np.max(np.abs(rhat), initial=0.0),
                                np.max(np.abs(Z), initial=0.0)))


def design_report(bank: ObserverBank) -> str:
    """Human-readable synthesis summary."""
    lines = []
    lines.append(f"plant: n={bank.model.n} m={bank.model.m} p={bank.model.p} "
                 f"k={bank.k}")
    for part in bank.partials:
        coeffs = ", ".join(f"{v:.6g}" for v in part.f)
        lines.append(f"sensor {part.index + 1}: l_i={part.l_i}  f=[{coeffs}]")
    lines.append(f"l={bank.l_total}  l_max={bank.l_max}  "
                 f"subsets={len(bank.subsets)}  n_r={bank.n_r}")
    lines.append(f"kappa(inf)={bank.kappa:.9g}")
    subsets = " ".join("{" + ",".join(str(i + 1) for i in s) + "}"
                       for s in bank.subsets)
    lines.append(f"subset order: {subsets}")
    return "\n".join(lines)
