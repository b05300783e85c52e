"""Test-suite settings: one deterministic ``hypothesis`` profile.

Examples are derived from each test, not drawn at random, so every run
checks the same inputs; no example database is written.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
