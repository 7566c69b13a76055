"""The fuzz driver: random graphs x registered laws, with shrinking.

One run is fully determined by ``(seed, cases, laws)``: graph shapes are
drawn from ``default_rng([seed, case])`` and each law check from
``default_rng([seed, case, law_index])`` — the numpy sequence-seeding
idiom, so no case or law perturbs another's randomness and any failure
is replayable from the report alone.  Every fourth case is hostile
(dangling edges); laws that require well-formed graphs are skipped
there.  Every third case leaves some present time-varying cells
``None`` (:attr:`GraphSpec.missing_values`).

Failures are shrunk to a minimal graph (:func:`repro.testing.shrink_graph`)
and, when ``out_dir`` is given, written to disk as standalone reproducer
scripts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core import TemporalGraph
from ..errors import ConfigurationError
from .generators import GraphSpec, random_temporal_graph
from .laws import Law, get_laws
from .shrink import shrink_graph, write_reproducer

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz", "HOSTILE_EVERY"]

#: Every n-th case uses a hostile graph (dangling edges).
HOSTILE_EVERY = 4


@dataclass(frozen=True)
class FuzzFailure:
    """One law violation, shrunk and ready to replay."""

    law: str
    case: int
    seed: int
    message: str
    n_nodes: int
    n_edges: int
    n_times: int
    reproducer: Path | None

    def __str__(self) -> str:
        where = f" -> {self.reproducer}" if self.reproducer else ""
        return (
            f"[{self.law}] case {self.case} (seed {self.seed}): "
            f"{self.message} (shrunk to {self.n_nodes} nodes / "
            f"{self.n_edges} edges / {self.n_times} times){where}"
        )


@dataclass(frozen=True)
class FuzzReport:
    """The outcome of one :func:`run_fuzz` invocation."""

    seed: int
    cases: int
    laws: tuple[str, ...]
    checks: int
    skipped: int
    failures: tuple[FuzzFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"fuzz seed={self.seed} cases={self.cases} "
            f"laws={len(self.laws)} checks={self.checks} "
            f"skipped={self.skipped}: {status}"
        )


def _case_spec(case: int, rng: np.random.Generator) -> GraphSpec:
    """A randomized graph shape; hostile every :data:`HOSTILE_EVERY`-th,
    with ``None`` values at present cells every third."""
    hostile = case % HOSTILE_EVERY == HOSTILE_EVERY - 1
    return GraphSpec(
        n_times=int(rng.integers(2, 6)),
        n_nodes=int(rng.integers(2, 9)),
        edge_density=float(rng.uniform(0.1, 0.7)),
        presence_density=float(rng.uniform(0.3, 0.9)),
        dangling_edges=int(rng.integers(1, 3)) if hostile else 0,
        missing_values=0.25 if case % 3 == 1 else 0.0,
    )


def _check_once(
    law: Law, graph: TemporalGraph, seed: int, case: int, law_index: int
) -> str | None:
    """One deterministic evaluation of a law (fresh RNG per call)."""
    try:
        return law.check(graph, np.random.default_rng([seed, case, law_index]))
    except Exception as exc:  # a crashing law is a failing law
        return f"unhandled {type(exc).__name__}: {exc}"


def run_fuzz(
    seed: int = 0,
    cases: int = 100,
    laws: Sequence[str] | None = None,
    out_dir: str | Path | None = None,
    shrink: bool = True,
) -> FuzzReport:
    """Run ``cases`` random graphs through the selected laws.

    Returns a :class:`FuzzReport`; writes one reproducer script per
    failure into ``out_dir`` when given.  Raises
    :class:`~repro.errors.ConfigurationError` for bad parameters or
    unknown law names.
    """
    if cases < 1:
        raise ConfigurationError(f"cases must be positive, got {cases}")
    if out_dir is not None:
        # Pin a cwd-relative --out to the directory named at launch:
        # reproducers must not scatter if something chdirs mid-run.
        out_dir = Path(out_dir).expanduser().resolve()
    selected = get_laws(laws)
    if not selected:
        raise ConfigurationError("no laws selected")
    law_indices = {law.name: i for i, law in enumerate(get_laws(None))}

    checks = 0
    skipped = 0
    failures: list[FuzzFailure] = []
    for case in range(cases):
        case_rng = np.random.default_rng([seed, case])
        spec = _case_spec(case, case_rng)
        graph = random_temporal_graph(spec, rng=case_rng)
        hostile = spec.dangling_edges > 0
        for law in selected:
            if hostile and not law.hostile_safe:
                skipped += 1
                continue
            law_index = law_indices[law.name]
            message = _check_once(law, graph, seed, case, law_index)
            checks += 1
            if message is None:
                continue
            culprit = graph
            if shrink:

                def reproduces(
                    g: TemporalGraph, law: Law = law, idx: int = law_index
                ) -> bool:
                    return _check_once(law, g, seed, case, idx) is not None

                culprit = shrink_graph(graph, reproduces)
                message = (
                    _check_once(law, culprit, seed, case, law_index) or message
                )
            reproducer = None
            if out_dir is not None:
                reproducer = write_reproducer(
                    out_dir, culprit, law.name, seed, case, law_index, message
                )
            failures.append(
                FuzzFailure(
                    law=law.name,
                    case=case,
                    seed=seed,
                    message=message,
                    n_nodes=culprit.n_nodes,
                    n_edges=culprit.n_edges,
                    n_times=len(culprit.timeline),
                    reproducer=reproducer,
                )
            )
    return FuzzReport(
        seed=seed,
        cases=cases,
        laws=tuple(law.name for law in selected),
        checks=checks,
        skipped=skipped,
        failures=tuple(failures),
    )
