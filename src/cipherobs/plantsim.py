"""Closed-loop plant simulation with injected sensor attacks.

The plant is a discrete-time LTI system x(t+1) = A x(t) + B u(t) with
outputs y(t) = C x(t) + a(t), driven by static state feedback u = K x.
Attacks are additive per-sensor signals, modeled as piecewise-constant
segments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "PlantError",
    "SchurStabilityError",
    "PlantModel",
    "AttackSegment",
    "AttackScenario",
    "Trajectory",
    "step_plant",
    "run_closed_loop",
    "load_scenario",
    "ScenarioBundle",
]

SCHUR_TOL = 1e-9


class PlantError(Exception):
    pass


class SchurStabilityError(PlantError):
    pass


@dataclass(frozen=True)
class PlantModel:
    """LTI plant (A, B, C) with feedback gain K, initial state and sample time."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    K: np.ndarray
    x_ini: np.ndarray
    Ts: float = 0.1

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        x = np.asarray(self.x_ini, dtype=float).ravel()
        n = A.shape[0]
        if A.shape != (n, n):
            raise PlantError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise PlantError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise PlantError(f"C has {C.shape[1]} columns, expected {n}")
        if K.shape != (B.shape[1], n):
            raise PlantError(f"K must be {B.shape[1]}x{n}, got {K.shape}")
        if x.shape != (n,):
            raise PlantError(f"x_ini must have length {n}")
        for name, value in (("A", A), ("B", B), ("C", C), ("K", K),
                            ("x_ini", x), ("Ts", self.Ts)):
            if not np.isfinite(value).all():
                raise PlantError(f"{name} must be finite")
        rho = max(abs(np.linalg.eigvals(A + B @ K)))
        if rho >= 1.0 - SCHUR_TOL:
            raise SchurStabilityError(
                f"A + BK is not Schur stable: spectral radius {rho:.6f}")
        for name, arr in (("A", A), ("B", B), ("C", C), ("K", K), ("x_ini", x)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class AttackSegment:
    """Constant attack `value` on `sensor` (0-based) for steps start..end inclusive."""

    sensor: int
    start: int
    end: int
    value: float


@dataclass
class AttackScenario:
    """A set of attack segments, summed where they overlap."""

    segments: Sequence[AttackSegment] = ()

    def vector_at(self, t: int, p: int) -> np.ndarray:
        a = np.zeros(p)
        for seg in self.segments:
            if seg.start <= t <= seg.end:
                a[seg.sensor] += seg.value
        return a


@dataclass
class Trajectory:
    """Per-step records of the closed-loop run; y = C x + a holds exactly."""

    x: list = field(default_factory=list)
    u: list = field(default_factory=list)
    y: list = field(default_factory=list)
    a: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.x)


def step_plant(model: PlantModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One state update A x + B u."""
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if x.shape != (model.n,) or u.shape != (model.m,):
        raise PlantError(f"expected x of length {model.n} and u of length {model.m}")
    return model.A @ x + model.B @ u


def run_closed_loop(model: PlantModel, attacks: AttackScenario,
                    steps: int) -> Trajectory:
    """Iterate u = K x, y = C x + a, x <- A x + B u for `steps` steps."""
    if steps < 1:
        raise PlantError("steps must be >= 1")
    traj = Trajectory()
    x = model.x_ini.copy()
    for t in range(steps):
        u = model.K @ x
        a = attacks.vector_at(t, model.p)
        y = model.C @ x + a
        traj.x.append(x)
        traj.u.append(u)
        traj.y.append(y)
        traj.a.append(a)
        x = step_plant(model, x, u)
    return traj


@dataclass(frozen=True)
class ScenarioBundle:
    model: PlantModel
    attacks: AttackScenario
    k: int
    name: str = ""


def _integer(value, name: str) -> int:
    """A JSON integer field: an int or an integral float, never a bool, a
    string or a fraction, which `int()` would coerce or truncate."""
    integral = (isinstance(value, int)
                or isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise PlantError(f"malformed scenario file: {name} must be an "
                         f"integer, got {value!r}")
    return int(value)


def load_scenario(path) -> ScenarioBundle:
    """Load a scenario JSON file.

    Expected fields: A, B, C, K, x_ini, Ts, k and
    attacks: [{sensor, start, end, value}] with 1-based sensor indices.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        model = PlantModel(
            A=np.array(raw["A"], dtype=float),
            B=np.array(raw["B"], dtype=float),
            C=np.array(raw["C"], dtype=float),
            K=np.array(raw["K"], dtype=float),
            x_ini=np.array(raw["x_ini"], dtype=float),
            Ts=float(raw.get("Ts", 0.1)),
        )
        k = _integer(raw.get("k", 0), "k")
        segments = []
        for seg in raw.get("attacks", []):
            sensor = _integer(seg["sensor"], "sensor") - 1
            if not 0 <= sensor < model.p:
                raise PlantError(f"attack sensor {seg['sensor']} out of "
                                 f"range 1..{model.p}")
            value = float(seg["value"])
            if not np.isfinite(value):
                raise PlantError(f"attack value must be finite, got {value}")
            segments.append(AttackSegment(
                sensor=sensor, start=_integer(seg["start"], "start"),
                end=_integer(seg["end"], "end"), value=value))
    except KeyError as exc:
        raise PlantError(f"scenario file missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        # a value of the wrong type or shape: a string, a ragged matrix,
        # null, or a number where a list or an object belongs
        raise PlantError(f"malformed scenario file: {exc}") from exc
    attacks = AttackScenario(segments=tuple(segments))
    return ScenarioBundle(model=model, attacks=attacks, k=k,
                          name=str(raw.get("name", "")))
