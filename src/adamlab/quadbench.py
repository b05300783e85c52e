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
rows of ``(R, dim)`` arrays, one ``advance`` of the optimizer's recursions per
step. Each step computes the bias-corrected moments once and hands them to
both ``direction_map`` and ``delta_estimate``, then ``apply_step``. Each run
brings its own
``OptimizerConfig``; the configs of a batch may differ only in ``beta1`` and
``beta2``. Every record it returns equals, bit for bit, the record of stepping
that run alone:

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
  tabulated before the loop by one ``lr_at`` call per step over the peaks;
  the rate and the momentum differ per run, as ``(R, 1)`` columns;
  the bias-correction powers ``beta**step`` are tabulated before the loop with
  Python's ``**``, once per distinct beta and step, because numpy's power does
  not always round the same way;
* a block mean of the variance term is ``np.mean``'s own sum, ``np.add.reduce``
  over the block, divided by the block size once the loop is done;
* the arrays keep their shape for the whole loop: everything indexed by step
  is stored step-major, so step ``k`` reads and writes plain views, and a run
  that ends stays in the arrays with its point, moments and later rates set
  to zero, which give a zero direction and a zero loss from then on; it is not
  checked for an end again.

:func:`run_experiment` is the one-run call of the engine, and
:func:`run_cell` batches cells of one optimizer kind (rates, and momentum
pairs) over all seeds.
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
from .optim import (
    _SECOND_MOMENT_KINDS,
    EpsilonPlacement,
    OptimizerConfig,
    OptimizerKind,
    advance,
    apply_step,
    corrected_moments,
    delta_estimate,
    direction,  # unused here; perfbench/tracer.py still wraps adamlab.quadbench.direction
    direction_map,
    init_state,
)

HETEROGENEOUS_BLOCKS = ((1.0, 2.0, 3.0), (99.0, 100.0, 101.0), (4998.0, 4999.0, 5000.0))
HOMOGENEOUS_BLOCKS = ((1.0, 99.0, 4998.0), (2.0, 100.0, 4999.0), (3.0, 101.0, 5000.0))

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


@dataclass(frozen=True)
class BlockSpec:
    """Eigenvalue triples per block plus the layout label."""

    blocks: tuple[tuple[float, ...], ...]
    layout: Layout

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("at least one block required")
        for block in self.blocks:
            if not block or any(ev <= 0 for ev in block):
                raise ValueError("all eigenvalues must be positive")

    @classmethod
    def heterogeneous(cls) -> "BlockSpec":
        return cls(HETEROGENEOUS_BLOCKS, Layout.HETEROGENEOUS)

    @classmethod
    def homogeneous(cls) -> "BlockSpec":
        return cls(HOMOGENEOUS_BLOCKS, Layout.HOMOGENEOUS)

    @classmethod
    def for_layout(cls, layout: Layout) -> "BlockSpec":
        if layout is Layout.HETEROGENEOUS:
            return cls.heterogeneous()
        return cls.homogeneous()

    @property
    def dim(self) -> int:
        return sum(len(block) for block in self.blocks)


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


def haar_rotation(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    """Random rotation from the eigenvectors of a Wishart sample.

    Resamples (advancing the generator) in the measure-zero event that the
    eigenvalues of ``A A^T`` coincide to machine precision, since the
    eigenbasis is then not unique.
    """
    for _ in range(100):
        a = rng.standard_normal((dim, dim))
        evals = np.linalg.eigvalsh(a @ a.T)
        gaps = np.diff(evals)
        if gaps.size and np.min(gaps) <= 1e-12 * max(evals[-1], 1e-300):
            continue
        return rotation_from_factor(a)
    raise RuntimeError("could not sample a non-degenerate rotation")


@dataclass(frozen=True)
class QuadraticProblem:
    """Assembled quadratic: Hessian, its square-root design matrix, metadata."""

    hessian: np.ndarray
    design: np.ndarray
    spec: BlockSpec

    @property
    def dim(self) -> int:
        return self.hessian.shape[0]

    @property
    def block_slices(self) -> tuple[slice, ...]:
        out, start = [], 0
        for block in self.spec.blocks:
            out.append(slice(start, start + len(block)))
            start += len(block)
        return tuple(out)

    def loss(self, w: np.ndarray):
        """``0.5 * w^T H w``; a ``(R, dim)`` stack of points gives one loss per row."""
        w = np.asarray(w, dtype=float)
        return 0.5 * (w[..., None, :] @ (self.hessian @ w[..., :, None]))[..., 0, 0]

    def full_gradient(self, w: np.ndarray) -> np.ndarray:
        return self.hessian @ w


def build_problem(spec: BlockSpec, seed: int) -> QuadraticProblem:
    """Rotate each diagonal block by an independent Haar rotation.

    The block square roots come straight from the known eigendecomposition
    (``Q diag(sqrt(eig)) Q^T``), so no general matrix square root is needed.
    """
    rng = np.random.default_rng(seed)
    dim = spec.dim
    hessian = np.zeros((dim, dim))
    design = np.zeros((dim, dim))
    start = 0
    for block in spec.blocks:
        size = len(block)
        q = haar_rotation(rng, size)
        lam = np.asarray(block, dtype=float)
        h_b = q @ np.diag(lam) @ q.T
        x_b = q @ np.diag(np.sqrt(lam)) @ q.T
        sl = slice(start, start + size)
        hessian[sl, sl] = (h_b + h_b.T) / 2.0
        design[sl, sl] = (x_b + x_b.T) / 2.0
        start += size
    return QuadraticProblem(hessian=hessian, design=design, spec=spec)


def subset_gradient(problem: QuadraticProblem, w: np.ndarray, rows) -> np.ndarray:
    """Gradient estimate from the given design-matrix rows.

    ``w`` may be a ``(R, dim)`` stack of points with ``rows`` a ``(R, b)``
    stack of row subsets, giving one gradient per run.
    """
    rows = np.asarray(rows, dtype=int)
    xb = problem.design[rows]
    w = np.asarray(w, dtype=float)
    g = xb.swapaxes(-1, -2) @ (xb @ w[..., None])
    return (problem.dim / rows.shape[-1]) * g[..., 0]


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
    for run in runs:
        if any(getattr(run.config, name) != getattr(config, name) for name in shared):
            raise ValueError(f"runs of one batch may differ only in beta1 and beta2: {config} vs {run.config}")
    return config


def _power_table(betas: list[float], steps: int) -> np.ndarray:
    """``beta**k`` for ``k = 1..steps`` per run, shape ``(steps, R, 1)``; Python ``**`` once per distinct beta."""
    rows = {beta: [beta**k for k in range(1, steps + 1)] for beta in dict.fromkeys(betas)}
    return np.array([rows[beta] for beta in betas]).T[:, :, None]


def run_batch(
    problem: QuadraticProblem,
    runs: Sequence[RunSpec],
    steps: int,
    batch_size: int,
    *,
    track_delta: bool = True,
) -> list[RunRecord]:
    """Iterate gradient -> direction -> update for all ``runs`` at once, one record per run.

    The runs are the rows of ``(R, dim)`` arrays. A non-finite loss ends a run
    without recording that loss; a loss above ``DIVERGENCE_THRESHOLD`` is
    recorded and then ends the run. An ended run keeps its row, with its
    point, moments and later rates set to zero: its direction and loss are
    zero from then on, it is never checked for an end again, and its record
    stops where it ended. Each run's rate is :func:`lr_at` of its peak ``lr``,
    and its row-subsampling stream is derived from ``(seed, config_id)``, so
    records are reproducible run by run. ``track_delta=False`` skips the
    variance-term snapshots (``delta_block_means`` is then ``None``). Raises
    ``ValueError`` if a peak is not finite and nonnegative, ``steps < 1``,
    ``batch_size`` is not in ``[1, dim]``, or the runs' configs differ in
    anything but ``beta1`` and ``beta2`` (all before any row is drawn), or if
    a gradient is not finite.
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
    beta1 = [run.config.beta1 for run in runs]
    beta2 = [run.config.beta2 for run in runs]
    columns = (np.array(beta1, dtype=float)[:, None], np.array(beta2, dtype=float)[:, None])
    state = init_state(config, w.shape, *columns)
    powers = None
    if config.bias_correction and config.kind in _SECOND_MOMENT_KINDS:
        powers = (_power_table(beta1, steps), _power_table(beta2, steps))
    track_delta = track_delta and config.kind in _SECOND_MOMENT_KINDS
    slices = problem.block_slices

    losses = np.empty((steps, n_runs))
    # block sums, step-major; divided by the block sizes when the records are cut
    deltas = np.empty((steps, len(slices), n_runs)) if track_delta else None
    ended_at: dict[int, tuple[int, str]] = {}
    live = np.ones(n_runs, dtype=bool)
    # a huge peak may overflow its rates, and a diverging run its point and loss
    # on the way out; its non-finite loss ends it below
    with np.errstate(over="ignore", invalid="ignore"):
        peaks = np.array([run.lr for run in runs])
        lrs = np.array([lr_at(k, steps, peaks) for k in range(steps)])[:, :, None]
        for k in range(steps):
            g = subset_gradient(problem, w, rows[k])
            if not np.isfinite(g).all():
                raise ValueError("gradient contains non-finite entries")
            advance(config, state, g)
            moments = corrected_moments(config, state, None if powers is None else (powers[0][k], powers[1][k]))
            w = apply_step(w, direction_map(config, g=g, **moments), lrs[k])
            loss = problem.loss(w)
            losses[k] = loss
            if track_delta:
                snapshot = delta_estimate(config, moments)
                for j, sl in enumerate(slices):
                    np.add.reduce(snapshot[:, sl], axis=-1, out=deltas[k, j])
            finite = np.isfinite(loss)
            ended = live & (~finite | (loss > DIVERGENCE_THRESHOLD))
            if ended.any():
                for i in np.flatnonzero(ended):
                    ended_at[int(i)] = (k, "threshold" if finite[i] else "non_finite")
                if len(ended_at) == n_runs:
                    break
                live &= ~ended
                # a zero rate keeps the zeroed point at zero even where the schedule's rate overflows to inf
                lrs[k + 1 :, ended] = 0.0
                # fresh arrays, not writes into the state: a first-sample-seeded m is the gradient array itself
                zero = ended[:, None]
                w = np.where(zero, 0.0, w)
                state.m, state.v, state.delta = (np.where(zero, 0.0, x) for x in (state.m, state.v, state.delta))

    sizes = np.array([sl.stop - sl.start for sl in slices], dtype=float)
    records = []
    for i, run in enumerate(runs):
        at, reason = ended_at.get(i, (None, None))
        recorded = steps if at is None else at + (reason == "threshold")
        records.append(
            RunRecord(
                config_id=run.config_id,
                seed=run.seed,
                losses=losses[:recorded, i].copy(),
                delta_block_means=None if deltas is None else deltas[:recorded, :, i] / sizes,
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


def loss_quantiles(finals):
    """(median, q25, q75) of final losses per row, treating diverged runs as +inf.

    A ``(cells, seeds)`` array gives a ``(cells, 3)`` array; a 1-D array of
    seeds is the one-row case and gives a tuple of three floats. A row of
    infinities, and interpolating between two infinities, read as infinity
    rather than nan.
    """
    finals = np.asarray(finals, dtype=float)
    rows = np.atleast_2d(finals)
    with np.errstate(invalid="ignore"):
        stats = np.stack(
            [np.median(rows, axis=-1), np.quantile(rows, 0.25, axis=-1), np.quantile(rows, 0.75, axis=-1)],
            axis=-1,
        )
    stats[np.isnan(stats) | np.all(np.isinf(rows), axis=-1, keepdims=True)] = math.inf
    return tuple(stats[0].tolist()) if finals.ndim == 1 else stats


@dataclass(frozen=True)
class OptimizerResult:
    """Tuning outcome for one optimizer on one problem."""

    label: str
    best_lr: float | None
    median_final: float
    q25: float
    q75: float
    all_diverged: bool
    records: tuple[RunRecord, ...]


@dataclass(frozen=True)
class ComparisonSummary:
    results: tuple[OptimizerResult, ...]

    def result(self, label: str) -> OptimizerResult:
        for res in self.results:
            if res.label == label:
                return res
        raise KeyError(label)


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
) -> list[list[RunRecord]]:
    """Run each ``(config, lr, config_id)`` cell once per ``(seed, w0)`` in ``starts``.

    All runs of all cells go through :func:`run_batch` as one batch, so the
    cells' configs may differ only in their betas; the records come back
    grouped per cell, in ``starts`` order. Every run of a cell shares its
    ``config_id``, so each seed's subsampling stream is
    ``derive_seed(seed, "batches", config_id)``.
    """
    if not starts:
        raise ValueError("at least one seed is required")
    runs = [RunSpec(config, lr, w0, seed, config_id) for config, lr, config_id in cells for seed, w0 in starts]
    records = run_batch(problem, runs, steps, batch_size, track_delta=track_delta)
    return [records[i : i + len(starts)] for i in range(0, len(records), len(starts))]


def tune_and_compare(
    problem: QuadraticProblem,
    optimizers: dict[str, OptimizerConfig],
    lr_grid=DEFAULT_LR_GRID,
    seeds=tuple(range(10)),
    steps: int = 1000,
    batch_size: int = 3,
) -> ComparisonSummary:
    """Tune each optimizer over the learning-rate grid and summarize final losses.

    For every grid point all seeds are run (all rates and seeds of one
    optimizer as one :func:`run_cell` batch); the selected rate minimizes the
    median final loss (ties break toward the smaller rate). Per-seed starting
    points are shared across optimizers; the subsampling stream is derived
    from ``(seed, config_id)`` so each cell replays identically in isolation.
    """
    lr_grid = tuple(sorted(float(lr) for lr in lr_grid))
    if not lr_grid or not optimizers:
        raise ValueError("lr_grid and optimizers must be nonempty")
    seeds = tuple(int(s) for s in seeds)
    layout = problem.spec.layout.value
    starts = [(seed, initial_point(problem.dim, seed)) for seed in seeds]

    results = []
    for label in sorted(optimizers):
        cells = [(optimizers[label], lr, make_config_id(layout, label, lr)) for lr in lr_grid]
        per_cell = run_cell(problem, cells, starts, steps, batch_size)
        finals = np.array([[r.final_loss() for r in records] for records in per_cell])
        stats = loss_quantiles(finals)
        medians = stats[:, 0].tolist()
        best = medians.index(min(medians))  # the first minimum: ties break toward the smaller rate
        all_diverged = bool(np.all(np.isinf(finals[best])))
        median, q25, q75 = stats[best].tolist()
        results.append(
            OptimizerResult(
                label=label,
                best_lr=None if all_diverged else lr_grid[best],
                median_final=median,
                q25=q25,
                q75=q75,
                all_diverged=all_diverged,
                records=tuple(per_cell[best]),
            )
        )
    return ComparisonSummary(results=tuple(results))


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
    problem: QuadraticProblem,
    eps_values=(1e-9, 1e-6, 1e-3),
    lr_grid=DEFAULT_LR_GRID,
    seeds=tuple(range(10)),
    steps: int = 1000,
    batch_size: int = 3,
    beta: float = 0.95,
) -> ComparisonSummary:
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
    return tune_and_compare(
        problem, optimizers, lr_grid=lr_grid, seeds=seeds, steps=steps, batch_size=batch_size
    )
