"""adamlab: a laboratory for adaptive sign-based optimizers.

Core pieces: normalized moving averages and the learning-rate schedule
(:mod:`adamlab.core`), the optimizer direction maps (:mod:`adamlab.optim`),
numeric checkers for their closed-form identities (:mod:`adamlab.identities`),
the online Gaussian mean/variance estimator with an independent oracle
(:mod:`adamlab.vi`), a block-rotated quadratic benchmark
(:mod:`adamlab.quadbench`), a signal-filter view of the direction maps
(:mod:`adamlab.filters`), and a CLI harness (:mod:`adamlab.cli`).
"""

__version__ = "0.1.0"
