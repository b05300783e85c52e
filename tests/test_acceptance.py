"""End-to-end acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines. The heavyweight tuning comparisons are shared between
criteria through module-scoped fixtures; the whole module targets a
laptop-scale runtime of a couple of minutes.
"""
import itertools
import math

import numpy as np
import pytest

from adamlab.cli import main as cli_main
from adamlab.core import max_or_nan
from adamlab.filters import FILTERS, SignalSpec, check_properties, decay_blindness, filter_config
from adamlab.identities import check_prop1, prop2_condition, square_completion_margin
from adamlab.optim import OptimizerKind
from adamlab.quadbench import (
    DEFAULT_LR_GRID,
    Layout,
    build_problem,
    default_quad_config,
    derive_seed,
    signum_epsilon_ablation,
    subset_gradient,
    tune_and_compare,
)
from adamlab.vi import GaussianBelief, objective_batch, vi_numeric_oracle, vi_objective, vi_update

BASE_SEED = 0
BETA = 0.95
SEEDS = tuple(range(10))
STEPS = 1000
BATCH_SIZE = 3

BETA1_GRID = (0.8, 0.9, 0.95, 0.975, 0.9875)
BETA2_GRID = (0.6, 0.8, 0.9, 0.95, 0.975, 0.9875, 0.99375, 0.996875)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {name}: {status}  {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def _problem(layout: Layout):
    return build_problem(layout, BASE_SEED)


@pytest.fixture(scope="module")
def het_summary():
    optimizers = {
        "sgd": default_quad_config(OptimizerKind.SGD, BETA),
        "signum": default_quad_config(OptimizerKind.SIGNUM, BETA),
        "adameq": default_quad_config(OptimizerKind.ADAM_EQUAL_BETA, BETA),
    }
    return tune_and_compare(
        _problem(Layout.HETEROGENEOUS),
        optimizers,
        lr_grid=DEFAULT_LR_GRID,
        seeds=SEEDS,
        steps=STEPS,
        batch_size=BATCH_SIZE,
    )


@pytest.fixture(scope="module")
def hom_summary():
    optimizers = {
        "sgd": default_quad_config(OptimizerKind.SGD, BETA),
        "signum": default_quad_config(OptimizerKind.SIGNUM, BETA),
        "adameq": default_quad_config(OptimizerKind.ADAM_EQUAL_BETA, BETA),
    }
    return tune_and_compare(
        _problem(Layout.HOMOGENEOUS),
        optimizers,
        lr_grid=DEFAULT_LR_GRID,
        seeds=SEEDS,
        steps=STEPS,
        batch_size=BATCH_SIZE,
    )


def test_criterion_1_variance_form_equivalence():
    """Standard two-moment directions equal the variance form on random streams."""
    rng = np.random.default_rng(derive_seed(BASE_SEED, "acceptance", "prop1"))
    worst_dir = worst_var = 0.0
    for beta in BETA1_GRID:
        for _ in range(50):
            direction, variance = check_prop1(rng.standard_normal(1000), beta)
            worst_dir = max_or_nan(worst_dir, direction)
            worst_var = max_or_nan(worst_var, variance)
    report(
        1,
        "variance-form equivalence",
        worst_dir <= 1e-9 and worst_var <= 1e-10,
        f"max direction residual {worst_dir:.3e} (tol 1e-9), "
        f"max variance residual {worst_var:.3e} relative (tol 1e-10)",
    )


def test_criterion_2_closed_form_optimality():
    """Closed-form belief update attains the penalized-likelihood minimum."""
    rng = np.random.default_rng(derive_seed(BASE_SEED, "acceptance", "vi"))
    worst_param = worst_gap = worst_beat = 0.0
    for _ in range(100):
        prior = GaussianBelief(
            float(rng.normal(scale=2.0)), float(rng.exponential(scale=1.0)) + 1e-3
        )
        g = float(rng.normal(scale=2.0))
        lam = float(rng.uniform(0.05, 20.0))
        closed = vi_update(prior, g, lam)
        oracle = vi_numeric_oracle(prior, g, lam)
        worst_param = max_or_nan(
            worst_param,
            abs(closed.mean - oracle.mean),
            abs(closed.variance - oracle.variance),
        )
        obj_closed = vi_objective(prior, closed, g, lam)
        worst_gap = max_or_nan(worst_gap, obj_closed - vi_objective(prior, oracle, g, lam))

        spread = abs(prior.mean - g) + 1.0
        means = rng.uniform(prior.mean - 3 * spread, prior.mean + 3 * spread, size=10_000)
        variances = closed.variance * np.exp(rng.uniform(-7.0, 7.0, size=10_000))
        best_candidate = float(np.min(objective_batch(prior, means, variances, g, lam)))
        worst_beat = max_or_nan(worst_beat, obj_closed - best_candidate)
    passed = worst_param <= 1e-4 and worst_gap <= 1e-8 and worst_beat <= 1e-8
    report(
        2,
        "closed-form optimality vs oracle",
        passed,
        f"param gap {worst_param:.3e} (tol 1e-4), objective gap {worst_gap:.3e}, "
        f"candidate advantage {worst_beat:.3e} (tol 1e-8)",
    )


def test_criterion_3_equal_betas_characterization():
    """Equal momenta: condition vanishes exactly; unequal pairs leave a margin."""
    exact_zero = all(prop2_condition(b, b) == 0.0 for b in BETA2_GRID)
    margins = {}
    for b1, b2 in itertools.product(BETA1_GRID, BETA2_GRID):
        if b1 == b2:
            continue
        margins[(b1, b2)], _ = square_completion_margin(b1, b2)
    min_margin = min(margins.values())
    for (b1, b2), margin in sorted(margins.items()):
        print(f"    pair (b1={b1:g}, b2={b2:g}): leftover margin {margin:.6g}")
    report(
        3,
        "equal-betas iff-characterization",
        exact_zero and min_margin > 0.0,
        f"condition exactly 0 on the diagonal: {exact_zero}; "
        f"smallest off-diagonal margin {min_margin:.3e} over {len(margins)} pairs",
    )


def test_criterion_4_heterogeneous_ordering(het_summary, hom_summary):
    """Tuned medians order adaptive < sign momentum < plain momentum on the
    heterogeneous landscape; the plain/adaptive gap shrinks on the homogeneous one."""
    het_adam = het_summary["adameq"].quantiles[0]
    het_signum = het_summary["signum"].quantiles[0]
    het_sgd = het_summary["sgd"].quantiles[0]
    ordering = het_adam < het_signum < het_sgd

    hom_adam = hom_summary["adameq"].quantiles[0]
    hom_sgd = hom_summary["sgd"].quantiles[0]
    het_ratio = het_sgd / het_adam
    hom_ratio = hom_sgd / hom_adam
    shrinks = hom_ratio < het_ratio
    report(
        4,
        "tuned-comparison ordering",
        ordering and shrinks,
        f"het medians adameq={het_adam:.3e} < signum={het_signum:.3e} < sgd={het_sgd:.3e}; "
        f"sgd/adameq ratio hom={hom_ratio:.3g} < het={het_ratio:.3g}",
    )


def test_criterion_5_variance_term_separates_blocks(het_summary):
    """Per-block variance terms differ by >= 2x on the heterogeneous landscape."""
    cell = het_summary["adameq"]
    worst_ratio = math.inf
    for record in cell.records:
        means = record.delta_block_means.mean(axis=0)
        ratios = [
            max(a, b) / min(a, b)
            for a, b in itertools.combinations(means, 2)
            if min(a, b) > 0
        ]
        worst_ratio = min(worst_ratio, max(ratios))
    report(
        5,
        "variance term varies across blocks",
        worst_ratio >= 2.0,
        f"smallest max-pairwise ratio of time-averaged block deltas over seeds: {worst_ratio:.3g}",
    )


def test_criterion_6_fixed_mollifier_no_gain(het_summary):
    """No fixed-epsilon mollifier beats the adaptive variance term."""
    ablation = signum_epsilon_ablation(
        _problem(Layout.HETEROGENEOUS),
        eps_values=(1e-9, 1e-6, 1e-3),
        lr_grid=DEFAULT_LR_GRID,
        seeds=SEEDS,
        steps=STEPS,
        batch_size=BATCH_SIZE,
        beta=BETA,
    )
    adaptive = ablation["adameq"].quantiles[0]
    fixed = {label: cell.quantiles[0] for label, cell in ablation.items() if label != "adameq"}
    best_label, best_fixed = min(fixed.items(), key=lambda kv: kv[1])
    report(
        6,
        "fixed mollifier offers no gain",
        best_fixed >= adaptive,
        f"best fixed-eps {best_label} median {best_fixed:.3e} >= adaptive {adaptive:.3e}",
    )


def test_criterion_7_filter_properties():
    """Causality, scale invariance, oddness, boundedness; decay blindness."""
    rng = np.random.default_rng(derive_seed(BASE_SEED, "acceptance", "filters"))
    failures = []
    for filter_name in FILTERS:
        worst = check_properties(filter_config(filter_name, BETA), trials=100, rng=rng)
        for name, value in worst.items():
            if not value <= 1e-12:
                failures.append(f"{filter_name}/{name}={value:.2e}")
    gap, burn_in = decay_blindness(BETA, SignalSpec(amplitude=1.8, frequency=0.03, decay=0.0025, length=2000))
    passed = not failures and gap <= 0.05
    report(
        7,
        "filter operator properties",
        passed,
        f"property violations: {failures or 'none'} (tol 1e-12); "
        f"decay-blindness gap {gap:.4f} (tol 0.05) after {burn_in}-step burn-in",
    )


def test_criterion_8_gradient_unbiasedness():
    """Exhaustive batch average reproduces the exact gradient."""
    problem = _problem(Layout.HETEROGENEOUS)
    rng = np.random.default_rng(derive_seed(BASE_SEED, "acceptance", "grad"))
    subsets = list(itertools.combinations(range(9), 3))
    worst = 0.0
    for _ in range(20):
        w = rng.standard_normal(9)
        avg = sum(subset_gradient(problem, w, rows) for rows in subsets) / len(subsets)
        exact = problem.hessian @ w
        scale = max(1.0, float(np.max(np.abs(exact))))
        worst = max_or_nan(worst, float(np.max(np.abs(avg - exact))) / scale)
    report(
        8,
        "stochastic gradient unbiasedness",
        worst <= 1e-12,
        f"max residual {worst:.3e} relative to gradient scale (tol 1e-12)",
    )


def test_criterion_9_byte_identical_artifacts(tmp_path, capsys):
    """Equal configurations produce byte-identical CSV artifacts."""
    args = [
        "quad",
        "--layout", "het",
        "--optim", "adameq",
        "--optim", "sgd",
        "--steps", "60",
        "--seeds", "3",
        "--lr", "0.0078125",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "first")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "second")]) == 0
    capsys.readouterr()
    identical = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("runs.csv", "summary.csv")
    )
    with capsys.disabled():
        report(9, "byte-identical reruns", identical, "runs.csv and summary.csv compared")
