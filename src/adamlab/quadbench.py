"""Block-rotated quadratic benchmark with row-subsampled stochastic gradients.

The landscape is ``L(w) = 0.5 * w^T H w`` where ``H`` is block-diagonal with
3x3 blocks, each block a Haar-rotated diagonal of fixed eigenvalues. Both
standard layouts share one eigenvalue multiset

    {1, 2, 3, 99, 100, 101, 4998, 4999, 5000}

but distribute it differently: the heterogeneous layout keeps each magnitude
scale inside its own block, the homogeneous layout mixes one eigenvalue of
each scale into every block.

Stochasticity comes from subsampling rows of the symmetric square root
``X = H^(1/2)``: a batch B of rows gives the unbiased gradient estimate
``(n/|B|) * sum_{i in B} x_i (x_i . w)``.

Runs are stepped by one engine, :func:`run_batch`, which advances R runs as the
rows of ``(R, dim)`` arrays. Each run brings its own ``OptimizerConfig``; the
configs of a batch may differ only in ``beta1`` and ``beta2``. The optimizer's
kind, epsilon placement and bias corrections are settled once per batch by
``optim.array_step``, so a step is the gradient, that batch's own optimizer
step, ``apply_step`` straight into the point history and, for the kinds with
a second moment, ``delta_estimate`` into the variance-term history, each
writing only into arrays made once per batch. Every record it returns equals,
bit for bit, the record of stepping that run alone:

* each run's row subsets are drawn before the loop from its own
  ``derive_seed(seed, "batches", config_id)`` generator, into a fresh
  ``(steps, n)`` block; shuffling its rows in place with
  ``rng.permuted(..., axis=1)`` consumes the generator exactly like ``steps``
  successive ``rng.permutation(n)`` calls;
* the gradient ``xb^T @ (xb @ w)`` and the loss ``w^T @ (H @ w)`` are written
  as stacked matrix products, which make the same BLAS calls per run as the
  one-run vector forms (``einsum`` and row-wise dot products do not round
  the same way);
* each run scales the one schedule of :func:`lr_at` by its own peak rate,
  tabulated before the loop by one ``lr_at`` call over all steps and peaks;
  the rate and the momentum differ per run, and every optimizer operation is
  elementwise, so each run's row takes its own operations on its own operands;
* the design rows are gathered step by step, not for the whole batch, whose
  gather would hold ``steps x R x batch_size x dim`` floats;
* the loop keeps only what feeds the next point, and writes each step's
  points (and variance-term snapshots) into ``(steps, R, dim)`` histories; the
  losses are one ``loss`` call over the point history, and a block mean of the
  variance term is ``np.mean``'s own sum, one ``np.add.reduce`` per block over
  the snapshot history, divided by the block size;
* a run that ends keeps stepping in its own row (to inf or nan), and its
  record is cut at its first loss that is not finite or above the threshold.

:func:`run_experiment` is the one-run call of the engine.
:func:`run_cell` batches cells of one optimizer kind (rates, and momentum
pairs) over all seeds and returns each cell as a :class:`Cell`: its rate, its
runs, their final-loss quantiles and divergence count, and the ``status``
(``ok``, ``partial`` or ``all_diverged``) derived from them, the statistics
that both ``quad`` (through :func:`tune_and_compare`, which keeps each
optimizer's best cell) and ``sweep`` report.
"""
from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import lr_at
from .optim import EpsilonPlacement, OptimizerConfig, OptimizerKind, apply_step, array_step, delta_estimate
from .optim import direction  # unused here; perfbench/tracer.py still wraps adamlab.quadbench.direction

DIVERGENCE_THRESHOLD = 1e12

#: powers-of-two learning-rate grid used for tuning, 2^-16 .. 2^2
DEFAULT_LR_GRID = tuple(2.0**i for i in range(-16, 3))


def derive_seed(base: int, *labels) -> int:
    """Deterministic sub-stream seed: ``base XOR blake2b('|'.join(labels))``.

    blake2b (8-byte digest, little-endian) is stable across platforms and
    Python versions, so equal configurations always replay the same streams.
    ``base`` must pass :func:`check_seed`, so that distinct bases give distinct seeds.
    """
    text = "|".join(str(label) for label in labels)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return check_seed(base) ^ int.from_bytes(digest, "little")


def check_seed(base) -> int:
    """``base`` as an int, or ``ValueError`` if it is outside [0, 2**64)."""
    base = int(base)
    if not 0 <= base < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {base}")
    return base


class Layout(enum.Enum):
    HETEROGENEOUS = "het"
    HOMOGENEOUS = "hom"


#: the eigenvalues of each 3x3 block, per layout: one spectrum, kept per scale or mixed across blocks
BLOCKS = {
    Layout.HETEROGENEOUS: ((1.0, 2.0, 3.0), (99.0, 100.0, 101.0), (4998.0, 4999.0, 5000.0)),
    Layout.HOMOGENEOUS: ((1.0, 99.0, 4998.0), (2.0, 100.0, 4999.0), (3.0, 101.0, 5000.0)),
}
#: the rows and columns of the three blocks
BLOCK_SLICES = (slice(0, 3), slice(3, 6), slice(6, 9))


def rotation_from_factor(a: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvector matrix of ``a @ a.T`` in canonical form.

    Columns are ordered by descending eigenvalue and each column's
    largest-magnitude entry is made positive, so the output is a
    deterministic function of ``a``.
    """
    a = np.asarray(a, dtype=float)
    evals, evecs = np.linalg.eigh(a @ a.T)
    evecs = evecs[:, ::-1].copy()
    for j in range(evecs.shape[1]):
        col = evecs[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            evecs[:, j] = -col
    return evecs


def haar_rotation(rng: np.random.Generator) -> np.ndarray:
    """Random 3x3 rotation from the eigenvectors of a Wishart sample.

    Resamples (advancing the generator) in the measure-zero event that the
    eigenvalues of ``A A^T`` coincide to machine precision, since the
    eigenbasis is then not unique; raises ``ValueError`` if 100 samples in a
    row are degenerate.
    """
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        evals = np.linalg.eigvalsh(a @ a.T)
        gaps = np.diff(evals)
        if np.min(gaps) <= 1e-12 * max(evals[-1], 1e-300):
            continue
        return rotation_from_factor(a)
    raise ValueError("could not sample a non-degenerate rotation in 100 draws")


@dataclass(frozen=True)
class QuadraticProblem:
    """Assembled quadratic: Hessian, its square-root design matrix, and the layout it was built from."""

    hessian: np.ndarray
    design: np.ndarray
    layout: Layout

    @property
    def dim(self) -> int:
        return self.hessian.shape[0]

    def loss(self, w: np.ndarray):
        """``0.5 * w^T H w`` over the last axis: a ``(steps, R, dim)`` history gives ``(steps, R)`` losses."""
        w = np.asarray(w, dtype=float)
        return 0.5 * (w[..., None, :] @ (self.hessian @ w[..., :, None]))[..., 0, 0]


def build_problem(layout: Layout, base_seed: int) -> QuadraticProblem:
    """Rotate each diagonal block of ``layout`` by an independent Haar rotation.

    The rotations are drawn from ``derive_seed(base_seed, "problem",
    layout.value)``. The block square roots come straight from the known
    eigendecomposition (``Q diag(sqrt(eig)) Q^T``), so no general matrix
    square root is needed.
    """
    rng = np.random.default_rng(derive_seed(base_seed, "problem", layout.value))
    hessian = np.zeros((9, 9))
    design = np.zeros((9, 9))
    for sl, block in zip(BLOCK_SLICES, BLOCKS[layout]):
        q = haar_rotation(rng)
        lam = np.asarray(block, dtype=float)
        h_b = q @ np.diag(lam) @ q.T
        x_b = q @ np.diag(np.sqrt(lam)) @ q.T
        hessian[sl, sl] = (h_b + h_b.T) / 2.0
        design[sl, sl] = (x_b + x_b.T) / 2.0
    return QuadraticProblem(hessian=hessian, design=design, layout=layout)


def subset_gradient(problem: QuadraticProblem, w: np.ndarray, rows, out=(None, None, None)) -> np.ndarray:
    """Gradient estimate from the given design-matrix rows.

    ``w`` may be a ``(R, dim)`` stack of points with ``rows`` a ``(R, b)``
    stack of row subsets, giving one gradient per run. Every row index must
    be in ``[0, dim)``. ``out = (xb, xw, g)`` are the arrays it writes: the
    gathered rows ``(..., b, dim)``, their products with ``w`` ``(..., b, 1)``
    and the gradient column ``(..., dim, 1)``, whose ``[..., 0]`` view it
    returns. Each is C-contiguous, as the allocating form's would be, so the
    products make the same BLAS calls.
    """
    xb, xw, g = out
    rows = np.asarray(rows, dtype=int)
    xb = problem.design.take(rows, axis=0, out=xb, mode="clip")  # "raise" would copy through a buffer
    xw = np.matmul(xb, np.asarray(w, dtype=float)[..., None], out=xw)
    g = np.matmul(xb.swapaxes(-1, -2), xw, out=g)[..., 0]
    return np.multiply(problem.dim / rows.shape[-1], g, out=g)


def stochastic_grad(
    problem: QuadraticProblem, w: np.ndarray, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Unbiased gradient from a uniform without-replacement row subset."""
    n = problem.dim
    _check_batch_size(n, batch_size)
    rows = rng.permutation(n)[:batch_size]
    return subset_gradient(problem, w, rows)


def _check_batch_size(n: int, batch_size: int) -> None:
    """``ValueError`` unless a subset of ``batch_size`` rows out of ``n`` can be drawn."""
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")


def draw_rows(rng: np.random.Generator, n: int, steps: int, batch_size: int) -> np.ndarray:
    """The row subsets of ``steps`` successive :func:`stochastic_grad` calls, shape ``(steps, batch_size)``.

    The rows of a fresh ``(steps, n)`` block are filled with ``arange(n)`` and
    shuffled in place: ``rng.permuted`` over them consumes ``rng`` exactly like
    ``steps`` calls of ``rng.permutation(n)``.
    """
    _check_batch_size(n, batch_size)
    block = np.empty((steps, n), dtype=np.intp)
    block[...] = np.arange(n)
    return rng.permuted(block, axis=1, out=block)[:, :batch_size]


@dataclass
class RunRecord:
    """Per-step loss trace plus per-block variance-term traces for one run.

    A diverged run records the step it ended at and why: ``"non_finite"``
    (that step's loss is not recorded) or ``"threshold"`` (the loss above
    ``DIVERGENCE_THRESHOLD`` is the last one recorded).
    """

    config_id: str
    seed: int
    losses: np.ndarray
    delta_block_means: np.ndarray | None
    diverged_at: int | None = None
    reason: str | None = None

    @property
    def diverged(self) -> bool:
        return self.reason is not None

    def final_loss(self) -> float:
        if self.diverged or self.losses.size == 0:
            return math.inf
        return float(self.losses[-1])


#: distance of every run's starting point from the minimum at the origin
START_RADIUS = 3.0


def initial_point(dim: int, seed: int) -> np.ndarray:
    """Standard-normal direction rescaled to :data:`START_RADIUS`, fixed per seed."""
    rng = np.random.default_rng(derive_seed(seed, "w0"))
    w = rng.standard_normal(dim)
    return w * (START_RADIUS / np.linalg.norm(w))


class RunSpec(NamedTuple):
    """One run of a batch: its optimizer config, peak learning rate, start point, seed and stream label."""

    config: OptimizerConfig
    lr: float
    w0: np.ndarray
    seed: int
    config_id: str = ""


def _shared_config(runs: Sequence[RunSpec]) -> OptimizerConfig:
    """The optimizer settings of a batch; the runs' configs may differ only in their betas."""
    config = runs[0].config
    shared = [f.name for f in dataclasses.fields(config) if f.name not in ("beta1", "beta2")]
    # the runs of one cell share one config object, so each distinct object is compared once
    for other in {id(run.config): run.config for run in runs}.values():
        if any(getattr(other, name) != getattr(config, name) for name in shared):
            raise ValueError(f"runs of one batch may differ only in beta1 and beta2: {config} vs {other}")
    return config


def run_batch(
    problem: QuadraticProblem,
    runs: Sequence[RunSpec],
    steps: int,
    batch_size: int,
    *,
    track_delta: bool = True,
) -> list[RunRecord]:
    """Iterate gradient -> direction -> update for all ``runs`` at once, one record per run.

    The runs are the rows of ``(R, dim)`` arrays. The loop steps every run to
    the end and keeps each step's points; the losses, ends and block sums come
    from these histories once the loop is done. A run ends at its first loss
    that is not finite (not recorded) or above ``DIVERGENCE_THRESHOLD``
    (recorded); it keeps stepping in its own row, which touches no other row,
    and its record stops where it ended. Each run's rate is :func:`lr_at` of
    its peak ``lr``, and its row-subsampling stream is derived from
    ``(seed, config_id)``, so records are reproducible run by run. A start
    point of norm about 1e152, whose first moments overflow, ends at step 0
    as ``non_finite`` (with epsilon > 0 a step divides without a 0/0 mask).
    ``track_delta=False`` skips the variance-term snapshots
    (``delta_block_means`` is then ``None``). Raises ``ValueError`` if a peak
    is not finite and nonnegative, ``steps < 1``, ``batch_size`` is not in
    ``[1, dim]``, or the runs' configs differ in anything but ``beta1`` and
    ``beta2`` (all before any row is drawn), or if the first step's gradient
    is not finite (a point whose loss is within the threshold has a finite
    gradient, so later steps are not checked).
    """
    for run in runs:
        if not (math.isfinite(run.lr) and run.lr >= 0):
            raise ValueError(f"peak_lr must be finite and nonnegative, got {run.lr}")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    config = _shared_config(runs)
    n_runs = len(runs)
    _check_batch_size(problem.dim, batch_size)
    rows = np.empty((steps, n_runs, batch_size), dtype=np.intp)
    for i, run in enumerate(runs):
        rng = np.random.default_rng(derive_seed(run.seed, "batches", run.config_id))
        rows[:, i] = draw_rows(rng, problem.dim, steps, batch_size)
    w = np.array([run.w0 for run in runs], dtype=float)
    shape = w.shape
    beta1 = [run.config.beta1 for run in runs]
    beta2 = [run.config.beta2 for run in runs]
    step, variance = array_step(config, beta1, beta2, problem.dim, steps)
    track_delta = track_delta and variance is not None
    second_hat, m_hat = variance if track_delta else (None, None)

    points = np.empty((steps, *shape))
    snapshots = np.empty_like(points) if track_delta else None
    gather = (np.empty((n_runs, batch_size, problem.dim)), np.empty((n_runs, batch_size, 1)), np.empty((*shape, 1)))
    # a huge peak may overflow its rates, and a run that has ended overflows its point, moments and loss
    with np.errstate(over="ignore", invalid="ignore"):
        lrs = lr_at(range(steps), steps, np.array([run.lr for run in runs]))[:, :, None]
        for k in range(steps):
            g = subset_gradient(problem, w, rows[k], out=gather)
            if k == 0 and not np.isfinite(g).all():
                raise ValueError("gradient contains non-finite entries")
            w = apply_step(w, step(g, k), lrs[k], out=points[k])
            if track_delta:
                delta_estimate(second_hat, m_hat, snapshots[k])
        if track_delta:
            block_sums = np.stack([np.add.reduce(snapshots[..., sl], axis=-1) for sl in BLOCK_SLICES], -1)
            del snapshots
        losses = problem.loss(points)
        # not ``abs(loss) <= threshold``: a finite loss below -threshold does not end a run
        beyond = ~np.isfinite(losses) | (losses > DIVERGENCE_THRESHOLD)
    ended = beyond.any(axis=0).tolist()
    ends = beyond.argmax(axis=0).tolist()

    records = []
    for i, run in enumerate(runs):
        at = ends[i] if ended[i] else None
        reason = None if at is None else "threshold" if math.isfinite(losses[at, i]) else "non_finite"
        recorded = steps if at is None else at + (reason == "threshold")
        records.append(
            RunRecord(
                config_id=run.config_id,
                seed=run.seed,
                losses=losses[:recorded, i].copy(),
                delta_block_means=block_sums[:recorded, i] / 3.0 if track_delta else None,
                diverged_at=at,
                reason=reason,
            )
        )
    return records


def run_experiment(
    problem: QuadraticProblem,
    config: OptimizerConfig,
    lr: float,
    steps: int,
    batch_size: int,
    w0: np.ndarray,
    seed: int,
    config_id: str = "",
) -> RunRecord:
    """One run through :func:`run_batch`."""
    return run_batch(problem, [RunSpec(config, lr, w0, seed, config_id)], steps, batch_size)[0]


def loss_quantiles(finals: np.ndarray) -> np.ndarray:
    """(median, q25, q75) of each row of a ``(cells, seeds)`` array of final losses, as a ``(cells, 3)`` array.

    Diverged runs count as +inf. A row of infinities, and interpolating
    between two infinities, read as infinity rather than nan. Each statistic
    is numpy's ``median`` or default (``"linear"``) ``quantile``, taken from
    one sort, since those functions import ``numpy.ma`` on their first call.
    They agree bit for bit on final losses, which hold no nan and no -0.0
    (numpy's median reads -0.0 as 0.0, and sorts order 0.0 and -0.0 unlike
    its partitions).
    """
    rows = np.sort(finals, axis=-1)
    n = rows.shape[-1]
    half = n // 2
    with np.errstate(invalid="ignore"):
        stats = [rows[:, half] if n % 2 else (rows[:, half - 1] + rows[:, half]) / 2]
        for q in (0.25, 0.75):
            at = (n - 1) * q
            below = min(math.floor(at), n - 2)  # as numpy: one value is its own neighbours, at weight 1
            a, b = rows[:, below], rows[:, below + 1]
            t = at - below
            diff = b - a
            stats.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
        stats = np.stack(stats, axis=-1)
    stats[np.isnan(stats) | np.all(np.isinf(rows), axis=-1, keepdims=True)] = math.inf
    return stats


class Cell(NamedTuple):
    """The runs of one cell at peak rate ``lr``, one per seed, with their final-loss quantiles and divergence count.

    ``quantiles`` is ``(median, q25, q75)``; :attr:`status` is the one rule
    that reads ``n_diverged`` as a verdict.
    """

    lr: float
    records: list[RunRecord]
    quantiles: tuple[float, float, float]
    n_diverged: int

    @property
    def status(self) -> str:
        """``all_diverged`` if every run diverged, ``partial`` if some did, else ``ok``."""
        if self.n_diverged == len(self.records):
            return "all_diverged"
        return "partial" if self.n_diverged else "ok"


def make_config_id(layout: str, label: str, lr: float) -> str:
    return f"{layout}:{label}:lr={lr:.17g}"


def run_cell(
    problem: QuadraticProblem,
    cells: Sequence[tuple[OptimizerConfig, float, str]],
    starts,
    steps: int,
    batch_size: int,
    *,
    track_delta: bool = True,
) -> list[Cell]:
    """Run each ``(config, lr, config_id)`` cell once per ``(seed, w0)`` in ``starts``; one :class:`Cell` per cell.

    All runs of all cells go through :func:`run_batch` as one batch, so the
    cells' configs may differ only in their betas; each cell's records come
    in ``starts`` order, and its quantiles are its row of one
    :func:`loss_quantiles` call over all cells. Every run of a cell shares its
    ``config_id``, so each seed's subsampling stream is
    ``derive_seed(seed, "batches", config_id)``.
    """
    if not starts:
        raise ValueError("at least one seed is required")
    runs = [RunSpec(config, lr, w0, seed, config_id) for config, lr, config_id in cells for seed, w0 in starts]
    records = run_batch(problem, runs, steps, batch_size, track_delta=track_delta)
    per_cell = [records[i : i + len(starts)] for i in range(0, len(records), len(starts))]
    stats = loss_quantiles(np.array([[record.final_loss() for record in own] for own in per_cell])).tolist()
    return [
        Cell(lr, own, tuple(row), sum(record.diverged for record in own))
        for (_, lr, _), own, row in zip(cells, per_cell, stats)
    ]


def tune_and_compare(
    problem: QuadraticProblem, optimizers: dict[str, OptimizerConfig], lr_grid, seeds, steps: int, batch_size: int
) -> dict[str, Cell]:
    """Tune each optimizer over the learning-rate grid; the best :class:`Cell` of each label, in sorted label order.

    For every grid point all seeds are run (all rates and seeds of one
    optimizer as one :func:`run_cell` batch); the best cell minimizes the
    median final loss (ties break toward the smaller rate). Per-seed starting
    points are shared across optimizers; the subsampling stream is derived
    from ``(seed, config_id)`` so each cell replays identically in isolation.
    """
    lr_grid = tuple(sorted(float(lr) for lr in lr_grid))
    if not lr_grid or not optimizers:
        raise ValueError("lr_grid and optimizers must be nonempty")
    layout = problem.layout.value
    starts = [(seed, initial_point(problem.dim, seed)) for seed in map(int, seeds)]

    results = {}
    for label in sorted(optimizers):
        grid = [(optimizers[label], lr, make_config_id(layout, label, lr)) for lr in lr_grid]
        cells = run_cell(problem, grid, starts, steps, batch_size)
        medians = [cell.quantiles[0] for cell in cells]
        results[label] = cells[medians.index(min(medians))]  # the first minimum: ties break toward the smaller rate
    return results


def default_quad_config(
    kind: OptimizerKind, beta: float = 0.95, beta2: float | None = None
) -> OptimizerConfig:
    """Benchmark defaults: momentum 0.95 on both moments.

    ``beta2=None`` shares ``beta`` between the moments. Sign methods run with
    a zero epsilon floor (exact sign); the adaptive methods keep the
    customary 1e-8.
    """
    epsilon = 0.0 if kind in (OptimizerKind.SIGNUM, OptimizerKind.SIGN_SGD) else 1e-8
    return OptimizerConfig(kind=kind, beta1=beta, beta2=beta2, epsilon=epsilon)


def signum_epsilon_ablation(
    problem: QuadraticProblem, eps_values, lr_grid, seeds, steps: int, batch_size: int, beta: float
) -> dict[str, Cell]:
    """Fixed-epsilon mollified sign momentum (both placements) vs the adaptive form.

    Labels are ``signum-eps{value}-{placement}`` plus the ``adameq`` baseline.
    """
    optimizers: dict[str, OptimizerConfig] = {
        "adameq": default_quad_config(OptimizerKind.ADAM_EQUAL_BETA, beta)
    }
    for eps in eps_values:
        for placement in (EpsilonPlacement.OUTSIDE_SQRT, EpsilonPlacement.INSIDE_SQRT):
            label = f"signum-eps{eps:g}-{placement.value}"
            optimizers[label] = OptimizerConfig(
                kind=OptimizerKind.SIGNUM,
                beta1=beta,
                beta2=beta,
                epsilon=float(eps),
                epsilon_placement=placement,
            )
    return tune_and_compare(problem, optimizers, lr_grid, seeds, steps, batch_size)
