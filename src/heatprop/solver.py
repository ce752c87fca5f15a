"""Discrete Dirichlet problems: harmonic extension of boundary temperatures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import BlockGraph, Graph, transition_apply

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class DirichletProblem:
    """A graph with a boundary set whose temperatures are pinned.

    The boundary must be nonempty; interior nodes (everything else, possibly
    none) take the harmonic extension of the boundary values at equilibrium.
    """

    graph: Graph | BlockGraph
    boundary: np.ndarray
    boundary_temps: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(self.boundary, dtype=np.int64)
        t = np.ascontiguousarray(self.boundary_temps, dtype=np.float64)
        order = np.argsort(b)
        object.__setattr__(self, "boundary", b[order])
        object.__setattr__(self, "boundary_temps", t[order])
        self._validate()
        self.boundary.setflags(write=False)
        self.boundary_temps.setflags(write=False)

    def _validate(self):
        n = self.graph.n
        b = self.boundary
        if b.size == 0:
            raise ValidationError("boundary set must be nonempty")
        if b.size != self.boundary_temps.size:
            raise ValidationError("each boundary node needs exactly one temperature")
        if b.min() < 0 or b.max() >= n:
            raise ValidationError("boundary node id out of range")
        if np.any(np.diff(b) == 0):
            raise ValidationError("duplicate boundary node")


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget and stopping tolerance of the conjugate-gradient
    solver (``solve_iterative``).

    The classifier reads only the order of each node's scores, so the
    default tolerance is set by the labels, not by the fields' digits: at
    1e-6 no centered label moved against a tolerance-0 solve on the bundled
    configs and the benchmark's inputs, and a vanilla label moved only at an
    exact tie or where its two best scores lay closer than 1e-6. The defect
    at the stop does not bound the error of the field (that takes the
    conditioning of the system), so a caller who needs the temperatures
    themselves passes a smaller tolerance, or 0.
    """

    max_iterations: int = 100
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        if not 0 <= self.tolerance < np.inf:
            raise ValidationError("tolerance must be finite and nonnegative")


@dataclass(frozen=True)
class SolveInfo:
    """How a field was produced. ``final_change`` is conjugate gradients'
    recursive defect at the stop (0 when there is nothing to solve); rounding
    lets the true defect ``max|P t - t|`` (``residual``) exceed it, by about
    1e-6 relative at tolerance 1e-9 and by far more at tolerance 0."""

    iterations: int
    final_change: float
    # "tolerance" | "max_iterations", or "derived" for a one-vs-all field
    # taken from the others by the partition of unity
    stop_reason: str


@dataclass(frozen=True)
class TemperatureField:
    """Dense temperature vector, one value per node."""

    values: np.ndarray
    info: SolveInfo | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float64))
        self.values.setflags(write=False)


def _check_boundary_cover(problem: DirichletProblem):
    """Every connected component must contain a boundary node, otherwise the
    temperatures on that component are undetermined."""
    ids = problem.graph.component_ids
    covered = np.zeros(int(ids.max()) + 1, dtype=bool)
    covered[ids[problem.boundary]] = True
    if not covered.all():
        # components are numbered by smallest member: name the first uncovered
        comp = np.flatnonzero(ids == np.argmin(covered))
        raise ValidationError(
            f"connected component containing node {comp[0]} "
            f"({comp.size} nodes) has no boundary node"
        )


def _clip_to_boundary_range(problem: DirichletProblem, t: np.ndarray) -> np.ndarray:
    """Clip ``t`` in place to ``[min, max]`` of the boundary temperatures.

    Discrete maximum principle: the harmonic extension takes its values in
    that range, so the clip moves no entry away from the exact solution; on
    a solved field it removes only rounding error.
    """
    temps = problem.boundary_temps
    return np.clip(t, temps.min(), temps.max(), out=t)


def solve_iterative(problem: DirichletProblem, opts: SolverOptions | None = None) -> TemperatureField:
    """Solve the interior system ``(D - A)_II x = A_IB y`` from a cold interior
    by Jacobi-preconditioned conjugate gradients (Hestenes and Stiefel 1952;
    Saad, *Iterative Methods for Sparse Linear Systems*, ch. 9).

    The system is symmetric positive definite once every component holds a
    boundary node. The iteration runs over full-length vectors with
    ``transition_apply`` as the matvec, ``A p = d * (p - P p)`` with ``d`` the
    degrees zeroed on the boundary, so the preconditioned residual
    ``z = r / degrees`` is, up to the rounding of its recursive updates, the
    harmonicity defect ``P t - t`` that ``residual`` measures. It solves for
    ``(t - low) / span``, where ``low`` and ``span`` are the minimum and the
    range of the boundary temperatures: equal boundary temperatures give a
    zero right-hand side and the constant field after 0 iterations, and a
    boundary that covers every node gives its own temperatures after 0
    iterations.

    Stops as soon as the defect ``max|z|`` drops below ``opts.tolerance`` or
    to the rounding level ``eps * span``, below which no floating-point
    field does better (so tolerance 0 runs to that level), or after
    ``opts.max_iterations`` iterations of one matvec each. The returned
    field carries the iteration count, ``max|z| * span`` at the stop as
    ``final_change``, and which rule fired. It is clipped to the boundary
    range (see ``_clip_to_boundary_range``).
    """
    opts = opts or SolverOptions()
    _check_boundary_cover(problem)
    g = problem.graph
    boundary, temps = problem.boundary, problem.boundary_temps
    low = float(temps.min())
    span = float(temps.max()) - low or 1.0
    interior_degrees = g.degrees.copy()
    interior_degrees[boundary] = 0.0

    # u: the scaled temperatures; r: residual of the interior system, zero on
    # the boundary; z: the preconditioned residual (the defect of u)
    u = np.zeros(g.n)
    u[boundary] = (temps - low) / span
    z = transition_apply(g, u) - u
    z[boundary] = 0.0
    r = g.degrees * z
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    while True:
        defect = float(np.abs(z).max())
        # past eps the recursive residual keeps shrinking into underflow,
        # where the steps stop meaning anything
        if defect * span < opts.tolerance or defect <= EPS:
            stop = "tolerance"
            break
        if iterations == opts.max_iterations:
            stop = "max_iterations"
            break
        q = interior_degrees * (p - transition_apply(g, p))
        alpha = rz / float(p @ q)
        u += alpha * p
        r -= alpha * q
        z = r / g.degrees
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
        iterations += 1

    t = u * span + low
    t[boundary] = temps
    info = SolveInfo(iterations=iterations, final_change=defect * span, stop_reason=stop)
    return TemperatureField(values=_clip_to_boundary_range(problem, t), info=info)


def residual(problem: DirichletProblem, field: TemperatureField) -> float:
    """Harmonicity defect: max over interior nodes of ``|T_i - (PT)_i|``."""
    t = field.values
    if t.shape != (problem.graph.n,):
        raise ValidationError("field length does not match graph")
    pt = transition_apply(problem.graph, t)
    diff = np.abs(t - pt)
    diff[problem.boundary] = 0.0
    return float(diff.max())
