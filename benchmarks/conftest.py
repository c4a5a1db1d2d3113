"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints the
rows in a paper-like layout (visible with ``pytest benchmarks/ --benchmark-only -s``),
records the headline numbers in ``benchmark.extra_info``, and asserts the
qualitative shape of the result (who wins, orderings, error bands).
"""

from __future__ import annotations

import pathlib
import sys

# Test oracles (``serving_oracle``) live next to ``tests/conftest.py``; appending
# keeps this directory's own ``conftest`` first on the path.
sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "tests"))


def emit(text: str) -> None:
    """Print a regenerated table so it is visible in benchmark runs."""
    sys.stdout.write("\n" + text + "\n")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
