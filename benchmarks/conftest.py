"""Shared benchmark fixtures.

The benchmark suite runs against the synthetic DBLP/MovieLens graphs at a
configurable fraction of the paper's sizes.  Set ``REPRO_BENCH_SCALE``
(default 0.05) to trade fidelity for runtime; 1.0 regenerates the paper's
full Table 3/4 sizes (dataset generation alone then takes ~90 s).

Randomness derives from the same ``REPRO_TEST_SEED`` env var as the test
suite (default 0 = the committed baseline); the seed is printed in the
pytest header and on every failure so benchmark flakes are replayable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.datasets import generate_dblp, generate_movielens

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))

#: Relative slack applied when the regression tests re-check the gates
#: recorded in the committed ``BENCH_*.json`` reports (the reports come
#: from full runs on a particular machine; exact equality is meaningless
#: elsewhere).  Override with ``REPRO_BENCH_TOLERANCE``.
BENCH_TOLERANCE = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.25"))

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_baseline(filename: str) -> dict:
    """Load a committed ``BENCH_*.json`` report from the repo root.

    Fails the bench_smoke gate loudly — naming the file — when the
    baseline is missing, unreadable or unparsable.  A broken baseline
    used to surface as collection-time noise that could scroll past; it
    must never look like a passing gate.
    """
    path = REPO_ROOT / filename
    if not path.exists():
        pytest.fail(
            f"committed baseline {filename} is missing — regenerate it "
            f"with the matching benchmarks/bench_*.py script"
        )
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        pytest.fail(f"committed baseline {filename} is unreadable: {exc}")
    try:
        report = json.loads(raw)
    except json.JSONDecodeError as exc:
        pytest.fail(
            f"committed baseline {filename} is not valid JSON ({exc}) — "
            f"regenerate it with the matching benchmarks/bench_*.py script"
        )
    if not isinstance(report, dict) or "meta" not in report:
        pytest.fail(
            f"committed baseline {filename} parsed but is not a benchmark "
            f"report (no 'meta' section) — regenerate it"
        )
    return report


def pytest_report_header(config):
    return (
        f"REPRO_TEST_SEED={TEST_SEED} REPRO_BENCH_SCALE={BENCH_SCALE} "
        f"REPRO_BENCH_TOLERANCE={BENCH_TOLERANCE}"
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.failed:
        report.sections.append(
            ("seed", f"REPRO_TEST_SEED={TEST_SEED} (replay with this env var)")
        )
    return report


@pytest.fixture(scope="session")
def test_seed() -> int:
    """The suite-wide base seed (``REPRO_TEST_SEED``, default 0)."""
    return TEST_SEED


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_tolerance() -> float:
    """Relative slack for re-checking recorded benchmark gates."""
    return BENCH_TOLERANCE


@pytest.fixture(scope="session")
def explore_baseline() -> dict:
    return load_baseline("BENCH_explore.json")


@pytest.fixture(scope="session")
def obs_baseline() -> dict:
    return load_baseline("BENCH_obs.json")


@pytest.fixture(scope="session")
def streaming_baseline() -> dict:
    return load_baseline("BENCH_streaming.json")


@pytest.fixture(scope="session")
def serving_baseline() -> dict:
    return load_baseline("BENCH_serving.json")


@pytest.fixture(scope="session")
def storage_baseline() -> dict:
    return load_baseline("BENCH_storage.json")


@pytest.fixture(scope="session")
def dblp():
    """The DBLP-like graph at the benchmark scale."""
    return generate_dblp(scale=BENCH_SCALE, seed=7 + TEST_SEED)


@pytest.fixture(scope="session")
def movielens():
    """The MovieLens-like graph at the benchmark scale."""
    return generate_movielens(scale=BENCH_SCALE, seed=11 + TEST_SEED)
