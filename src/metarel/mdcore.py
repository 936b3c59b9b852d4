"""Generic hierarchical meta-distribution machinery.

An n-layer model is an ordered tuple of batch samplers (innermost, fastest
randomness first) plus a vectorized QoS evaluator.  The nested estimator
realizes, for each outer draw, the recursive conditional probabilities

    P_1 = fraction of inner draws with Q > q
    P_k = fraction of layer-(k-1) draws with P_(k-1) > p_(k-1)

and returns the fraction of outer draws with P_n > p_n.  All comparisons
are strict, matching the defining formulas; thresholds at 0 or 1 are
rejected for that reason.

One engine serves every order and every threshold grid.  Its batch
contract:

- Blocks.  The outer draws are taken in consecutive blocks of B, where
  B = max(1, 1024 // rows) and rows = N_(n-1)...N_1, times N0 unless the
  model has an exact hook, counts the inner rows one outer draw
  materializes.  B is fixed by the model and the trial counts alone.
- Stream address.  Block b of an order-k estimate draws everything in it
  from its own stream ``derive_rng(seed, k, b)``, with k = 0 for the
  zeroth-order ccdf, so a result is bit-identical for a fixed (seed,
  trials) regardless of evaluation order.  With B = 1, block b is outer
  draw b.
- Samplers.  ``layers[k](rng, above, size)`` receives the states of the
  layers above it, outermost first, each an array whose first axis holds m
  parent rows, and ``size = (m, n)``.  It returns n independent states for
  each parent row, an array of shape ``(m, n, ...)``.  The outermost layer
  gets ``above = ()`` and ``size = (1, B)``, with fewer than B draws in a
  short last block.  Before descending, the engine flattens the new states
  to ``(m * n, ...)`` and repeats every parent row n times, so all arrays
  in ``above`` share their first axis.
- QoS.  ``qos(states)`` receives ``above`` plus the innermost states of
  shape ``(m, N0, ...)`` and returns the ``(m, N0)`` QoS values.  An inner
  draw succeeds when its QoS is strictly greater than q.
- Exact hook.  ``exact(rng, above, size)`` draws the layer-1 states, as
  ``layers[1]`` would, and returns their exact conditional success
  probabilities P1 with shape ``size``.  The engine then draws
  Binomial(N0, P1)/N0, in place of ``layers[1]``, ``layers[0]`` and ``qos``.
  The hook must preserve the estimator's law exactly: its P1 must be the
  probability that one inner draw succeeds given those states.  A model
  needs ``qos``, ``exact`` or both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._rng import derive_rng
from .errors import ConfigurationError, DomainError, check_count

__all__ = [
    "LayeredModel",
    "MdQuery",
    "MdEstimate",
    "nested_md_estimate",
    "nested_md_grid",
    "zeroth_order_reliability",
    "reduce_order",
]

MAX_LAYERS = 4
# Inner rows materialized per block of outer draws (see the module docstring).
_BLOCK_ROWS = 1024

# Batch sampler: sampler(rng, above, size) -> states of shape size + state shape.
LayerSampler = Callable[[np.random.Generator, tuple, tuple], np.ndarray]


@dataclass(frozen=True)
class LayeredModel:
    """Samplers, QoS and exact hook under the module docstring's batch contract."""

    layers: tuple
    qos: Optional[Callable[[tuple], np.ndarray]] = None
    exact: Optional[LayerSampler] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if not 2 <= len(self.layers) <= MAX_LAYERS:
            raise ConfigurationError(
                f"need between 2 and {MAX_LAYERS} layers, got {len(self.layers)}"
            )
        if self.qos is None and self.exact is None:
            raise ConfigurationError("model needs qos or exact")

    @property
    def order(self) -> int:
        return len(self.layers) - 1


@dataclass(frozen=True)
class MdQuery:
    """QoS threshold q, per-layer targets (p1..pn), and trial counts (N0..Nn)."""

    q: float
    p: tuple[float, ...]  # innermost first
    trials: tuple[int, ...]  # innermost first, one more entry than p

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        object.__setattr__(
            self, "trials", tuple(check_count("each trial count", n, 1) for n in self.trials)
        )
        if not math.isfinite(self.q):
            raise DomainError("q must be finite")
        if len(self.trials) != len(self.p) + 1:
            raise ConfigurationError("need len(trials) == len(p) + 1")
        if any(not 0.0 < pk < 1.0 for pk in self.p):
            raise DomainError("all thresholds p_k must lie strictly in (0, 1)")


@dataclass(frozen=True)
class MdEstimate:
    """A Monte Carlo estimate with its outer-layer binomial standard error."""

    value: float
    stderr: float
    trials: tuple[int, ...]
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise DomainError("estimate must lie in [0, 1]")
        if self.stderr < 0.0:
            raise DomainError("stderr must be >= 0")


def _descend(above: tuple, states: np.ndarray, size: tuple[int, int]) -> tuple:
    """Append (m, n, ...) states to the parent rows, flattened row-major."""
    m, n = size
    if n > 1:
        above = tuple(np.repeat(a, n, axis=0) for a in above)
    return above + (states.reshape((m * n,) + states.shape[2:]),)


def _p1_estimates(
    model: LayeredModel,
    q: float,
    trials: tuple[int, ...],
    n_outer: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """P1 estimates under a block of n_outer outer draws, shape
    (n_outer, N_(n-1), ..., N_1)."""
    sizes = (n_outer,) + tuple(trials[-2:0:-1])  # draws per parent row, layers n..1
    above: tuple = ()
    m = 1
    for layer, n_k in zip(model.layers[:1:-1], sizes):
        above = _descend(above, layer(rng, above, (m, n_k)), (m, n_k))
        m *= n_k
    size = (m, sizes[-1])
    n0 = trials[0]
    if model.exact is not None:
        p1 = rng.binomial(n0, model.exact(rng, above, size)) / n0
    else:
        above = _descend(above, model.layers[1](rng, above, size), size)
        inner = model.layers[0](rng, above, (m * sizes[-1], n0))
        p1 = (model.qos(above + (inner,)) > q).sum(axis=1) / n0
    return p1.reshape(sizes)


def _exceedance_counts(
    model: LayeredModel,
    q: float,
    grids: list[np.ndarray],
    trials: tuple[int, ...],
    seed: int,
    stream: int,
) -> np.ndarray:
    """Number of outer draws with P_n > p_n for every threshold combination,
    shape (len(grids[0]), ..., len(grids[-1])); all cells share the draws."""
    n = model.order
    rows = math.prod(trials[1:-1]) * (1 if model.exact is not None else trials[0])
    block = max(1, _BLOCK_ROWS // rows)
    est = np.empty(trials[:0:-1])
    for b, start in enumerate(range(0, trials[-1], block)):
        n_outer = min(block, trials[-1] - start)
        rng = derive_rng(seed, stream, b)
        est[start : start + n_outer] = _p1_estimates(model, q, trials, n_outer, rng)
    # est: sample axes (N_n, ..., N_k), then threshold axes p_1..p_(k-1)
    for k in range(1, n):
        est = (est[..., None] > grids[k - 1]).sum(axis=n - k) / trials[k]
    return (est[..., None] > grids[-1]).sum(axis=0)


def _with_stderr(counts: np.ndarray, n_outer: int) -> tuple[np.ndarray, np.ndarray]:
    values = counts / n_outer
    return values, np.sqrt(values * (1.0 - values) / n_outer)


def nested_md_grid(
    model: LayeredModel,
    q: float,
    p_grids: Sequence[Sequence[float]],
    trials: Sequence[int],
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """n-th order MD reliability over a grid of thresholds by nested MC.

    ``p_grids`` holds one threshold grid per layer target (p_1 grid first)
    and ``trials`` the counts (N0, ..., Nn).  Returns (values, stderr), each
    of shape (len(p_grids[0]), ..., len(p_grids[-1])).  Every cell is a
    standard nested-MC estimate at these trial counts; cells share one
    sample set, so they are correlated across the grid but individually
    valid, and a one-cell grid equals the single-point estimate bit for bit.
    """
    n = model.order
    if len(p_grids) != n or len(trials) != n + 1:
        raise ConfigurationError(
            f"an order-{n} model needs {n} threshold grids and {n + 1} trial counts"
        )
    grids = [np.asarray(g, dtype=float).ravel() for g in p_grids]
    if any(np.any((g <= 0.0) | (g >= 1.0)) for g in grids):
        raise DomainError("thresholds must lie strictly in (0, 1)")
    trials = tuple(check_count("each trial count", t, 1) for t in trials)
    if not math.isfinite(q):
        raise DomainError("q must be finite")
    return _with_stderr(_exceedance_counts(model, q, grids, trials, seed, n), trials[-1])


def nested_md_estimate(model: LayeredModel, query: MdQuery, seed: int) -> MdEstimate:
    """n-th order MD reliability by nested Monte Carlo at one threshold point."""
    values, stderr = nested_md_grid(
        model, query.q, [(p,) for p in query.p], query.trials, seed
    )
    return MdEstimate(
        value=float(values.flat[0]),
        stderr=float(stderr.flat[0]),
        trials=query.trials,
        seed=seed,
    )


def zeroth_order_reliability(
    model: LayeredModel, q: float, n_trials: int, seed: int
) -> MdEstimate:
    """Standard ccdf P(Q > q): one joint realization of every layer per trial.

    This is the nested estimator with every inner trial count 1, where each
    P_k is 0 or 1 and any threshold in (0, 1) passes exactly the successes.
    """
    n_trials = check_count("n_trials", n_trials, 1)
    n = model.order
    grids = [np.array([0.5])] * n
    counts = _exceedance_counts(model, q, grids, (1,) * n + (n_trials,), seed, 0)
    values, stderr = _with_stderr(counts, n_trials)
    return MdEstimate(
        value=float(values.flat[0]),
        stderr=float(stderr.flat[0]),
        trials=(n_trials,),
        seed=seed,
    )


def reduce_order(curve: Sequence[tuple[float, float]]) -> float:
    """Integrate an MD curve over its threshold, dropping one order.

    ``curve`` holds finite (p_k, value) samples with strictly ascending p_k
    inside [0, 1].  The value is extended as a constant from the smallest
    sampled p_k down to 0 and from the largest up to 1, then integrated by
    the trapezoidal rule.
    """
    pts = [(float(p), float(v)) for p, v in curve]
    if not pts:
        raise DomainError("curve must not be empty")
    ps = np.array([p for p, _ in pts])
    vs = np.array([v for _, v in pts])
    if not (np.isfinite(ps).all() and np.isfinite(vs).all()):
        raise DomainError("curve entries must be finite")
    if np.any(ps < 0.0) or np.any(ps > 1.0):
        raise DomainError("thresholds must lie in [0, 1]")
    if np.any(np.diff(ps) <= 0.0):
        raise DomainError("thresholds must be strictly ascending")
    integral = float(np.trapezoid(vs, ps))
    integral += vs[0] * ps[0]  # constant extrapolation to p -> 0
    integral += vs[-1] * (1.0 - ps[-1])  # and to p -> 1
    return integral
