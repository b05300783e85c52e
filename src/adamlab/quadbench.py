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
``optim.array_step``, and the gradient's arrays and views by :func:`gather`,
so a step is the gradient, that batch's own optimizer
step, ``apply_step`` straight into the point history and, for the kinds with
a second moment, ``delta_estimate`` into the variance-term history, each
writing only into arrays made once per batch. Every record it returns equals,
bit for bit, the record of stepping that run alone:

* each run's row subsets are drawn before the loop from its own
  ``derive_seed(seed, "batches", config_id)`` stream, into the one
  ``(steps, n)`` block of the batch. The batch has one generator, set run by
  run to the state ``np.random.default_rng`` starts that stream from
  (:func:`_pcg64_states` computes every run's in one pass); shuffling the
  block's rows in place with ``rng.permuted(..., axis=1)`` consumes the
  stream exactly like ``steps`` successive ``rng.permutation(n)`` calls;
* the gradient ``xb^T @ (xb @ w)`` and the loss ``w^T @ (H @ w)`` are written
  as stacked matrix products, which make the same BLAS calls per run as the
  one-run vector forms (``einsum`` and row-wise dot products do not round
  the same way);
* each run scales the one schedule of :func:`lr_at` by its own peak rate,
  tabulated before the loop by one ``lr_at`` call over all steps and peaks;
  the rate and the momentum differ per run, and every optimizer operation is
  elementwise, so each run's row takes its own operations on its own operands;
* the design rows are gathered step by step into the batch's one
  :func:`gather`, not for the whole batch, whose gather would hold
  ``steps x R x batch_size x dim`` floats;
* the loop keeps only what feeds the next point, and writes each step's
  points (and variance-term snapshots) into ``(steps, R, dim)`` histories; the
  losses are one ``loss`` call over the point history, and a block mean of the
  variance term is ``np.mean``'s own sum, one ``np.add.reduce`` per block over
  the snapshot history, divided by the block size;
* a run that ends keeps stepping in its own row (to inf or nan), and its
  record is cut at its first loss that is not finite or above the threshold;
* an untraced batch (``traces=False``, for ``sweep``, which writes only final
  losses) whose points all stay within :attr:`QuadraticProblem.screen_bound`
  of the origin in every coordinate has no run that ends, so its losses are
  one ``loss`` call over the last points, whose rows round as they do in the
  whole history; any other batch takes the losses of its whole history.

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
import functools
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


def haar_rotations(rng: np.random.Generator) -> np.ndarray:
    """Three random 3x3 rotations, stacked ``(3, 3, 3)``: the eigenvectors of Wishart samples, in canonical form.

    One ``(3, 3, 3)`` normal draw gives the three samples ``A``, and one
    stacked ``eigh`` of ``A A^T`` both the eigenvalues and the bases. Each
    basis's columns are ordered by descending eigenvalue and each column's
    largest-magnitude entry is made positive, so the output is a deterministic
    function of the draw. The draw is the one that three successive ``(3, 3)``
    draws make, and each block's operations are those of a draw alone.
    Redraws the whole stack (advancing the generator) in the measure-zero
    event that any block's eigenvalues coincide to machine precision, since
    its eigenbasis is then not unique; raises ``ValueError`` if 100 stacks
    in a row are degenerate.
    """
    for _ in range(100):
        a = rng.standard_normal((3, 3, 3))
        evals, evecs = np.linalg.eigh(a @ a.swapaxes(-1, -2))
        if any(min(mid - low, high - mid) <= 1e-12 * max(high, 1e-300) for low, mid, high in evals.tolist()):
            continue
        evecs, blocks = evecs[..., ::-1], np.arange(3)
        pivots = evecs[blocks[:, None], np.argmax(np.abs(evecs), axis=-2), blocks]  # (block, column)
        return evecs * np.where(pivots < 0, -1.0, 1.0)[:, None, :]  # a sign flip is exact, as a negation
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

    @property
    def screen_bound(self) -> float:
        """``B = sqrt(DIVERGENCE_THRESHOLD / (dim * ||H||_inf))``: a point with ``max|w| <= B`` has loss at most half the threshold.

        ``|w^T H w| <= ||w||_1 ||H w||_inf <= dim * max|w|^2 * ||H||_inf``,
        with ``||H||_inf`` the largest absolute row sum, so such a loss is at
        most ``DIVERGENCE_THRESHOLD / 2``; the factor 2 covers its rounding.
        """
        return math.sqrt(DIVERGENCE_THRESHOLD / (self.dim * float(np.abs(self.hessian).sum(axis=1).max())))

    def loss(self, w: np.ndarray):
        """``0.5 * w^T H w`` over the last axis: a ``(steps, R, dim)`` history gives ``(steps, R)`` losses."""
        w = np.asarray(w, dtype=float)
        return 0.5 * (w[..., None, :] @ (self.hessian @ w[..., :, None]))[..., 0, 0]


def build_problem(layout: Layout, base_seed: int) -> QuadraticProblem:
    """Rotate each diagonal block of ``layout`` by an independent Haar rotation.

    The rotations are drawn from ``derive_seed(base_seed, "problem",
    layout.value)`` by one :func:`haar_rotations` call. The block square
    roots come straight from the known eigendecomposition
    (``Q diag(sqrt(eig)) Q^T``), so no general matrix square root is needed;
    the six blocks of both matrices are formed as one ``(2, 3, 3, 3)`` stack
    of products and written by one indexed assignment.
    """
    rng = np.random.default_rng(derive_seed(base_seed, "problem", layout.value))
    q = haar_rotations(rng)
    lam = np.asarray(BLOCKS[layout], dtype=float)
    blocks = q @ (np.eye(3) * np.array([lam, np.sqrt(lam)])[..., None, :]) @ q.swapaxes(-1, -2)
    matrices = np.zeros((2, 3, 3, 3, 3))  # (matrix, block row, row, block column, column)
    diagonal = np.arange(3)
    matrices[:, diagonal, :, diagonal] = ((blocks + blocks.swapaxes(-1, -2)) / 2.0).swapaxes(0, 1)
    hessian, design = matrices.reshape(2, 9, 9)
    return QuadraticProblem(hessian=hessian, design=design, layout=layout)


def gather(shape: tuple, batch_size: int) -> tuple:
    """The arrays and views of a :func:`subset_gradient` of points of ``shape`` and ``batch_size`` rows each.

    ``shape`` is ``(dim,)`` or ``(R, dim)``. They are
    ``(xb, xb_t, xw, column, g, scale)``: the gathered design rows
    ``(..., b, dim)`` and their transposed view, their products with the
    points ``(..., b, 1)``, the gradient column ``(..., dim, 1)`` and its
    ``[..., 0]`` view, and ``dim / b`` as a 0-d array, numpy's fastest scalar
    operand. Each array is C-contiguous, as an allocating product's would be,
    so the products make the same BLAS calls.
    """
    *runs, dim = shape
    xb, column = np.empty((*runs, batch_size, dim)), np.empty((*shape, 1))
    return xb, xb.swapaxes(-1, -2), np.empty((*runs, batch_size, 1)), column, column[..., 0], np.array(dim / batch_size)


def subset_gradient(problem: QuadraticProblem, w: np.ndarray, rows, out: tuple | None = None) -> np.ndarray:
    """Gradient estimate from the given design-matrix rows.

    ``w`` may be a ``(R, dim)`` stack of points with ``rows`` a ``(R, b)``
    stack of row subsets, giving one gradient per run. Every row index must
    be in ``[0, dim)``. ``out`` is the :func:`gather` of these shapes, made
    once for every step of a batch; then ``w`` must be a float array and
    ``rows`` an integer one, and the gradient is written into its ``g`` and
    returned. Without ``out`` the gradient goes into a new gather of its own.
    """
    if out is None:
        w, rows = np.asarray(w, dtype=float), np.asarray(rows, dtype=np.intp)
        out = gather(w.shape, rows.shape[-1])
    xb, xb_t, xw, column, g, scale = out
    problem.design.take(rows, axis=0, out=xb, mode="clip")  # "raise" would copy through a buffer
    np.matmul(xb, w[..., None], out=xw)
    np.matmul(xb_t, xw, out=column)
    return np.multiply(scale, g, out=g)


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


def draw_rows(rng: np.random.Generator, n: int, steps: int, batch_size: int, out=None) -> np.ndarray:
    """The row subsets of ``steps`` successive :func:`stochastic_grad` calls, shape ``(steps, batch_size)``.

    The rows of a ``(steps, n)`` integer block (``out``, or a new one) are
    filled with ``arange(n)`` and shuffled in place: ``rng.permuted`` over
    them consumes ``rng`` exactly like ``steps`` calls of
    ``rng.permutation(n)``. The result is a view of the block. A caller that
    passes ``out`` to reuse one block over many draws checks ``batch_size``
    once itself; otherwise it is checked here.
    """
    if out is None:
        _check_batch_size(n, batch_size)
    block = np.empty((steps, n), dtype=np.intp) if out is None else out
    block[...] = _identity(n)
    return rng.permuted(block, axis=1, out=block)[:, :batch_size]


@functools.cache
def _identity(n: int) -> np.ndarray:
    """A read-only ``arange(n)``, made once per ``n``: a batch fills its reused block with it before each draw."""
    rows = np.arange(n)
    rows.flags.writeable = False
    return rows


_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """``init`` and its ``count`` successive products with ``mult``, mod 2**32."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return constants


# numpy's SeedSequence (numpy/random/bit_generator.pyx) makes 16 hash calls on
# its pool with the A sequence of constants and 8 on its output with the B
# sequence; call j takes the pair (c[j], c[j + 1]), so none depends on the data
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _column(constants: list[int]) -> np.ndarray:
    return np.array(constants, dtype=np.uint32)[:, None]


#: the pool's first hash (its 4 words), then one round per source word, which
#: hashes it once for each of the other 3 words (in order) and mixes each in
_ENTROPY_HASH = (_column(_HASH_A[:4]), _column(_HASH_A[1:5]))
_ROUNDS = [
    ([dst for dst in range(4) if dst != src], _column(_HASH_A[j : j + 3]), _column(_HASH_A[j + 1 : j + 4]))
    for src, j in enumerate(range(4, 16, 3))
]
_OUTPUT_HASH = (_column(_HASH_B[:8]), _column(_HASH_B[1:9]))


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult  # uint32 arrays wrap mod 2**32, as the C code does
    return value ^ (value >> 16)


def _pcg64_states(seeds: Sequence[int]) -> list[dict]:
    """``np.random.default_rng(seed).bit_generator.state`` for each seed in ``[0, 2**64)``, all at once.

    ``SeedSequence(seed).generate_state(4, np.uint64)`` is computed over
    ``(4, R)`` and ``(8, R)`` ``uint32`` arrays, one row per pool or output
    word: the entropy is each seed's two 32-bit words (a seed below 2**32 has
    one, but hashing the missing word is hashing 0). The output words pair
    into each run's four ``uint64`` words ``u`` in numpy, which then seed
    PCG64 in Python ints, as ``pcg64_set_seed`` does: ``state = (inc +
    initstate) * MULT + inc`` with ``initstate = u0 << 64 | u1`` and ``inc =
    2 * (u2 << 64 | u3) + 1``, mod 2**128. No word is left buffered.
    """
    entropy = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[:2] = entropy, entropy >> np.uint64(32)  # the assignment keeps each word's low 32 bits
    pool = _hashmix(pool, *_ENTROPY_HASH)
    for src, (others, xor, mult) in enumerate(_ROUNDS):
        mixed = pool[others] * _MIX_L - _hashmix(pool[src], xor, mult) * _MIX_R
        pool[others] = mixed ^ (mixed >> 16)
    words = _hashmix(np.concatenate([pool, pool]), *_OUTPUT_HASH).astype(np.uint64)
    states = []
    # output uint64 k is word 2k | word 2k + 1 << 32
    for u0, u1, u2, u3 in zip(*(words[0::2] | words[1::2] << np.uint64(32)).tolist()):
        inc = (u2 << 65 | u3 << 1 | 1) & _MASK128
        state = {"state": ((inc + (u0 << 64 | u1)) * _PCG64_MULT + inc) & _MASK128, "inc": inc}
        states.append({"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0})
    return states


@dataclass
class RunRecord:
    """Per-step loss trace plus per-block variance-term traces for one run.

    A diverged run records the step it ended at and why: ``"non_finite"``
    (that step's loss is not recorded) or ``"threshold"`` (the loss above
    ``DIVERGENCE_THRESHOLD`` is the last one recorded). A record of an
    untraced batch keeps no trace: its ``losses`` hold the final loss alone,
    or nothing for a run that diverged, and ``delta_block_means`` is ``None``.
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


def _shared_config(configs: Sequence[OptimizerConfig]) -> OptimizerConfig:
    """The optimizer settings of a batch; the runs' configs may differ only in their betas."""
    config = configs[0]
    shared = [f.name for f in dataclasses.fields(config) if f.name not in ("beta1", "beta2")]
    # the runs of one cell share one config object, so each distinct object is compared once
    for other in {id(other): other for other in configs}.values():
        if any(getattr(other, name) != getattr(config, name) for name in shared):
            raise ValueError(f"runs of one batch may differ only in beta1 and beta2: {config} vs {other}")
    return config


def run_batch(
    problem: QuadraticProblem,
    runs: Sequence[RunSpec],
    steps: int,
    batch_size: int,
    *,
    traces: bool = True,
    finals: np.ndarray | None = None,
) -> list[RunRecord]:
    """Iterate gradient -> direction -> update for all ``runs`` at once, one record per run.

    The runs are the rows of ``(R, dim)`` arrays. The loop steps every run to
    the end and keeps each step's points; the losses, ends and block sums come
    from these histories once the loop is done. A run ends at its first loss
    that is not finite (not recorded) or above ``DIVERGENCE_THRESHOLD``
    (recorded); it keeps stepping in its own row, which touches no other row,
    and its record stops where it ended. Each run's rate is :func:`lr_at` of
    its peak ``lr``, and its row-subsampling stream is derived from
    ``(seed, config_id)``, so records are reproducible run by run.
    ``traces=False`` keeps no per-step trace: no variance-term snapshots,
    and each record keeps only its final loss. No run ends while its points
    stay in the box ``max|w| <= problem.screen_bound``, so a batch whose
    points all do (one ``max`` and one ``min`` over the history) takes its
    losses at the last points alone; a batch that leaves it takes the loss
    history as a traced batch does. Ends and final losses are those of the
    traced batch, bit for bit. ``finals``, an ``(R,)`` float array if given,
    receives every run's :meth:`RunRecord.final_loss` (inf for a run that
    ended). Raises ``ValueError`` if a peak is not finite
    and nonnegative, ``steps < 1``, ``batch_size`` is not in ``[1, dim]``, or
    the runs' configs differ in anything but ``beta1`` and ``beta2`` (all
    before any row is drawn), or if the first step's gradient is not finite
    (a point whose loss is within the threshold has a finite gradient, so
    later steps are not checked).
    """
    configs, peaks, starts, seeds, config_ids = zip(*runs)
    for lr in peaks:
        if not (math.isfinite(lr) and lr >= 0):
            raise ValueError(f"peak_lr must be finite and nonnegative, got {lr}")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    config = _shared_config(configs)
    n_runs = len(runs)
    _check_batch_size(problem.dim, batch_size)
    rows = np.empty((steps, n_runs, batch_size), dtype=np.intp)
    block = np.empty((steps, problem.dim), dtype=np.intp)  # each run's draw reuses one block
    rng = np.random.Generator(np.random.PCG64(0))  # each run's draw reuses one generator, from its own state
    states = _pcg64_states([derive_seed(seed, "batches", config_id) for seed, config_id in zip(seeds, config_ids)])
    for i, state in enumerate(states):
        rng.bit_generator.state = state
        rows[:, i] = draw_rows(rng, problem.dim, steps, batch_size, out=block)
    w = np.array(starts, dtype=float)
    shape = w.shape
    beta1 = [config.beta1 for config in configs]
    beta2 = [config.beta2 for config in configs]
    step, variance = array_step(config, beta1, beta2, problem.dim, steps)
    track_delta = traces and variance is not None
    second_hat, m_hat = variance if track_delta else (None, None)

    points = np.empty((steps, *shape))
    snapshots = np.empty_like(points) if track_delta else None
    buffers = gather(shape, batch_size)
    # a huge peak may overflow its rates, and a run that has ended overflows its point, moments and loss
    with np.errstate(over="ignore", invalid="ignore"):
        lrs = lr_at(np.arange(steps, dtype=float), steps, np.array(peaks))[:, :, None]
        for k in range(steps):
            g = subset_gradient(problem, w, rows[k], out=buffers)
            if k == 0 and not np.isfinite(g).all():
                raise ValueError("gradient contains non-finite entries")
            w = apply_step(w, step(g, k), lrs[k], out=points[k])
            if track_delta:
                delta_estimate(second_hat, m_hat, snapshots[k])
        if track_delta:
            block_sums = np.stack([np.add.reduce(snapshots[..., sl], axis=-1) for sl in BLOCK_SLICES], -1)
            del snapshots
        # no run ends inside the screen's box, so an untraced batch whose points all stay in it
        # reads only its final losses (a nan fails both comparisons)
        bound = None if traces else problem.screen_bound
        screened = bound is not None and points.max() <= bound and points.min() >= -bound
        losses = problem.loss(points[-1:] if screened else points)
        # not ``abs(loss) <= threshold``: a finite loss below -threshold does not end a run
        beyond = ~np.isfinite(losses) | (losses > DIVERGENCE_THRESHOLD)
    ended, ends = beyond.any(axis=0), beyond.argmax(axis=0)
    # a run ends at a loss above the threshold (recorded) or at one that is not finite (not recorded)
    over = ended & np.isfinite(losses[ends, np.arange(n_runs)])
    last = np.where(ended, math.inf, losses[-1])
    if finals is not None:
        finals[...] = last

    records = []
    for i, (seed, config_id, end, has_ended, threshold) in enumerate(
        zip(seeds, config_ids, ends.tolist(), ended.tolist(), over.tolist())
    ):
        at = end if has_ended else None
        recorded = steps if at is None else at + threshold
        # an untraced record's final loss is a view of the batch's final losses, or nothing for a run that ended
        kept = losses[:recorded, i].copy() if traces else last[i : i + (at is None)]
        means = block_sums[:recorded, i] / 3.0 if track_delta else None
        reason = None if at is None else "threshold" if threshold else "non_finite"
        records.append(RunRecord(config_id, seed, kept, means, at, reason))
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
    traces: bool = True,
) -> list[Cell]:
    """Run each ``(config, lr, config_id)`` cell once per ``(seed, w0)`` in ``starts``; one :class:`Cell` per cell.

    All runs of all cells go through :func:`run_batch` as one batch, so the
    cells' configs may differ only in their betas; each cell's records come
    in ``starts`` order. The batch's final losses, one ``(cells, seeds)``
    array, give every cell's statistics at once: its quantiles are its row of
    one :func:`loss_quantiles` call, and its divergence count the infinities
    in that row (a run diverged exactly when its final loss is inf). Every
    run of a cell shares its ``config_id``, so each seed's subsampling stream
    is ``derive_seed(seed, "batches", config_id)``. ``traces=False`` runs an
    untraced batch, whose cells are the traced batch's without its per-step
    traces.
    """
    if not starts:
        raise ValueError("at least one seed is required")
    runs = [RunSpec(config, lr, w0, seed, config_id) for config, lr, config_id in cells for seed, w0 in starts]
    finals = np.empty(len(runs))
    records = run_batch(problem, runs, steps, batch_size, traces=traces, finals=finals)
    n = len(starts)
    finals = finals.reshape(-1, n)
    stats, n_diverged = loss_quantiles(finals).tolist(), np.isinf(finals).sum(axis=1).tolist()
    return [
        Cell(lr, records[i * n : (i + 1) * n], tuple(row), count)
        for i, ((_, lr, _), row, count) in enumerate(zip(cells, stats, n_diverged))
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
