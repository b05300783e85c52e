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
"""
from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import Schedule, lr_at
from .optim import (
    EpsilonPlacement,
    OptimizerConfig,
    OptimizerKind,
    apply_step,
    delta_estimate,
    direction,
    init_state,
)

HETEROGENEOUS_BLOCKS = ((1.0, 2.0, 3.0), (99.0, 100.0, 101.0), (4998.0, 4999.0, 5000.0))
HOMOGENEOUS_BLOCKS = ((1.0, 99.0, 4998.0), (2.0, 100.0, 4999.0), (3.0, 101.0, 5000.0))

DIVERGENCE_THRESHOLD = 1e12

#: powers-of-two learning-rate grid used for tuning, 2^-16 .. 2^2
DEFAULT_LR_GRID = tuple(2.0**i for i in range(-16, 3))

_MASK64 = (1 << 64) - 1


def derive_seed(base: int, *labels) -> int:
    """Deterministic sub-stream seed: ``base XOR blake2b('|'.join(labels))``.

    blake2b (8-byte digest, little-endian) is stable across platforms and
    Python versions, so equal configurations always replay the same streams.
    """
    text = "|".join(str(label) for label in labels)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return (int(base) ^ int.from_bytes(digest, "little")) & _MASK64


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
        if np.min(gaps) <= 1e-12 * max(evals[-1], 1e-300):
            continue
        return rotation_from_factor(a)
    raise RuntimeError("could not sample a non-degenerate rotation")


@dataclass(frozen=True)
class QuadraticProblem:
    """Assembled quadratic: Hessian, its square-root design matrix, metadata."""

    hessian: np.ndarray
    design: np.ndarray
    seed: int
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

    def loss(self, w: np.ndarray) -> float:
        return 0.5 * float(w @ (self.hessian @ w))

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
    return QuadraticProblem(hessian=hessian, design=design, seed=seed, spec=spec)


def subset_gradient(problem: QuadraticProblem, w: np.ndarray, rows) -> np.ndarray:
    """Gradient estimate from the given design-matrix rows."""
    rows = np.asarray(rows, dtype=int)
    xb = problem.design[rows]
    return (problem.dim / rows.size) * (xb.T @ (xb @ w))


def stochastic_grad(
    problem: QuadraticProblem, w: np.ndarray, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Unbiased gradient from a uniform without-replacement row subset."""
    n = problem.dim
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    rows = rng.permutation(n)[:batch_size]
    return subset_gradient(problem, w, rows)


@dataclass
class RunRecord:
    """Per-step loss trace plus per-block variance-term traces for one run."""

    config_id: str
    seed: int
    losses: np.ndarray
    delta_block_means: np.ndarray | None
    diverged: bool = False

    def final_loss(self) -> float:
        if self.diverged or self.losses.size == 0:
            return math.inf
        return float(self.losses[-1])


def initial_point(dim: int, seed: int, radius: float = 3.0) -> np.ndarray:
    """Standard-normal direction rescaled to the given radius, fixed per seed."""
    rng = np.random.default_rng(derive_seed(seed, "w0"))
    w = rng.standard_normal(dim)
    return w * (radius / np.linalg.norm(w))


def run_experiment(
    problem: QuadraticProblem,
    config: OptimizerConfig,
    sched: Schedule,
    steps: int,
    batch_size: int,
    w0: np.ndarray,
    seed: int,
    config_id: str = "",
) -> RunRecord:
    """Iterate gradient -> direction -> update, recording losses and variance terms.

    A non-finite or > ``DIVERGENCE_THRESHOLD`` loss flags the record and stops
    the run instead of raising. The row-subsampling stream is derived from
    ``(seed, config_id)``, so records are reproducible cell by cell.
    """
    rng = np.random.default_rng(derive_seed(seed, "batches", config_id))
    w = np.asarray(w0, dtype=float).copy()
    state = init_state(config, w.shape)
    track_delta = config.kind in (
        OptimizerKind.ADAM,
        OptimizerKind.ADAM_EQUAL_BETA,
        OptimizerKind.RMSPROP,
    )
    slices = problem.block_slices

    losses: list[float] = []
    deltas: list[list[float]] = []
    diverged = False
    for k in range(steps):
        g = stochastic_grad(problem, w, batch_size, rng)
        d, state = direction(config, state, g)
        w = apply_step(w, d, lr_at(sched, k), config.weight_decay)
        loss = problem.loss(w)
        if not math.isfinite(loss):
            diverged = True
            break
        losses.append(loss)
        if track_delta:
            snapshot = delta_estimate(config, state)
            deltas.append([float(np.mean(snapshot[sl])) for sl in slices])
        if loss > DIVERGENCE_THRESHOLD:
            diverged = True
            break
    return RunRecord(
        config_id=config_id,
        seed=seed,
        losses=np.asarray(losses),
        delta_block_means=np.asarray(deltas) if track_delta else None,
        diverged=diverged,
    )


def loss_quantiles(finals) -> tuple[float, float, float]:
    """(median, q25, q75) of final losses, treating diverged runs as +inf.

    Interpolating between two infinities is read as infinity rather than nan.
    """
    finals = np.asarray(finals, dtype=float)
    if np.all(np.isinf(finals)):
        return math.inf, math.inf, math.inf
    with np.errstate(invalid="ignore"):
        values = (
            float(np.median(finals)),
            float(np.quantile(finals, 0.25)),
            float(np.quantile(finals, 0.75)),
        )
    return tuple(math.inf if math.isnan(v) else v for v in values)


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
    lr_medians: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ComparisonSummary:
    layout: str
    results: tuple[OptimizerResult, ...]
    lr_grid: tuple[float, ...]
    seeds: tuple[int, ...]
    steps: int
    batch_size: int

    def result(self, label: str) -> OptimizerResult:
        for res in self.results:
            if res.label == label:
                return res
        raise KeyError(label)


def make_config_id(layout: str, label: str, lr: float) -> str:
    return f"{layout}:{label}:lr={lr:.17g}"


def run_cell(
    problem: QuadraticProblem,
    config: OptimizerConfig,
    lr: float,
    starts,
    steps: int,
    batch_size: int,
    warmup_fraction: float,
    config_id: str,
) -> list[RunRecord]:
    """Run one (optimizer, learning rate) cell once per ``(seed, w0)`` in ``starts``.

    Every run of the cell shares ``config_id``, so each seed's subsampling
    stream is ``derive_seed(seed, "batches", config_id)``.
    """
    if not starts:
        raise ValueError("at least one seed is required")
    sched = Schedule(peak_lr=lr, total_steps=steps, warmup_fraction=warmup_fraction)
    return [
        run_experiment(problem, config, sched, steps, batch_size, w0, seed, config_id=config_id)
        for seed, w0 in starts
    ]


def tune_and_compare(
    problem: QuadraticProblem,
    optimizers: dict[str, OptimizerConfig],
    lr_grid=DEFAULT_LR_GRID,
    seeds=tuple(range(10)),
    steps: int = 1000,
    batch_size: int = 3,
    warmup_fraction: float = 0.1,
) -> ComparisonSummary:
    """Tune each optimizer over the learning-rate grid and summarize final losses.

    For every grid point all seeds are run; the selected rate minimizes the
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
        config = optimizers[label]
        best: tuple[float, float] | None = None  # (median, lr)
        best_records: list[RunRecord] = []
        lr_medians = []
        for lr in lr_grid:
            records = run_cell(
                problem,
                config,
                lr,
                starts,
                steps,
                batch_size,
                warmup_fraction,
                make_config_id(layout, label, lr),
            )
            median = loss_quantiles([r.final_loss() for r in records])[0]
            lr_medians.append((lr, median))
            if best is None or median < best[0]:
                best = (median, lr)
                best_records = records
        finals = np.asarray([r.final_loss() for r in best_records])
        all_diverged = bool(np.all(np.isinf(finals)))
        median, q25, q75 = loss_quantiles(finals)
        results.append(
            OptimizerResult(
                label=label,
                best_lr=None if all_diverged else best[1],
                median_final=median,
                q25=q25,
                q75=q75,
                all_diverged=all_diverged,
                records=tuple(best_records),
                lr_medians=tuple(lr_medians),
            )
        )
    return ComparisonSummary(
        layout=layout,
        results=tuple(results),
        lr_grid=lr_grid,
        seeds=seeds,
        steps=steps,
        batch_size=batch_size,
    )


def default_quad_config(
    kind: OptimizerKind, beta: float = 0.95, beta2: float | None = None
) -> OptimizerConfig:
    """Benchmark defaults: momentum 0.95 on both moments, no decay, no clipping.

    ``beta2=None`` shares ``beta`` between the moments. Sign methods run with
    a zero epsilon floor (exact sign); the adaptive methods keep the
    customary 1e-8.
    """
    epsilon = 0.0 if kind in (OptimizerKind.SIGNUM, OptimizerKind.SIGN_SGD) else 1e-8
    return OptimizerConfig(kind=kind, beta1=beta, beta2=beta2, epsilon=epsilon, weight_decay=0.0)


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
                weight_decay=0.0,
            )
    return tune_and_compare(
        problem, optimizers, lr_grid=lr_grid, seeds=seeds, steps=steps, batch_size=batch_size
    )
