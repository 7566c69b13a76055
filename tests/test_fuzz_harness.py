"""The fuzz driver itself: reporting, skipping, shrinking, reproducers.

The centerpiece is the mutation check: deliberately corrupt one
aggregation engine and assert the differential oracle catches it,
shrinks the counterexample to a handful of nodes, and writes a
syntactically valid reproducer script.
"""

import pytest

import repro.testing.reference as reference
from repro.core import AggregateGraph
from repro.errors import AggregationError, ConfigurationError
from repro.testing import (
    HOSTILE_EVERY,
    GraphSpec,
    random_temporal_graph,
    run_fuzz,
)

pytestmark = pytest.mark.fuzz


class TestRunFuzz:
    def test_smoke_run_is_clean(self, test_seed):
        report = run_fuzz(seed=test_seed, cases=16)
        assert report.ok
        assert report.checks > 0
        # Every HOSTILE_EVERY-th case is hostile, so some unsafe-law
        # checks must have been skipped.
        assert report.skipped > 0
        assert "OK" in report.summary()

    def test_law_selection(self, test_seed):
        report = run_fuzz(seed=test_seed, cases=4, laws=["union-commutes"])
        assert report.laws == ("union-commutes",)
        assert report.checks == 4

    def test_hostile_unsafe_law_skipped_on_hostile_case(self, test_seed):
        report = run_fuzz(
            seed=test_seed, cases=HOSTILE_EVERY, laws=["union-store-agrees"]
        )
        assert report.skipped == 1
        assert report.checks == HOSTILE_EVERY - 1

    def test_unknown_law_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fuzz(cases=1, laws=["no-such-law"])

    def test_zero_cases_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fuzz(cases=0)

    def test_deterministic_across_runs(self, test_seed):
        first = run_fuzz(seed=test_seed, cases=8)
        second = run_fuzz(seed=test_seed, cases=8)
        assert first == second


class TestErrorParity:
    def test_engines_fail_identically_on_dangling_edges(self, test_seed):
        graph = random_temporal_graph(
            GraphSpec(dangling_edges=2), seed=test_seed
        )
        for name, engine in reference.aggregation_engines().items():
            with pytest.raises(AggregationError):
                engine(graph, ["gender"], distinct=True)


def _corrupting(real_engine):
    """Wrap an engine with an off-by-one node-weight bug."""

    def engine(graph, attributes, distinct=True, times=None):
        result = real_engine(graph, attributes, distinct=distinct, times=times)
        weights = dict(result.node_weights)
        if weights:
            key = sorted(weights, key=repr)[0]
            weights[key] += 1
        return AggregateGraph(
            result.attributes, weights, result.edge_weights, result.distinct
        )

    return engine


class TestInjectedBug:
    """Acceptance check: a deliberately broken engine is caught & shrunk."""

    def test_bug_caught_shrunk_and_reproduced(
        self, test_seed, monkeypatch, tmp_path
    ):
        monkeypatch.setitem(
            reference._ENGINES, "kernel", _corrupting(reference._ENGINES["kernel"])
        )
        report = run_fuzz(
            seed=test_seed,
            cases=12,
            laws=["engines-agree"],
            out_dir=tmp_path,
        )
        assert not report.ok

        smallest = min(report.failures, key=lambda f: f.n_nodes)
        assert smallest.n_nodes <= 5

        reproducer = report.failures[0].reproducer
        assert reproducer is not None and reproducer.exists()
        source = reproducer.read_text(encoding="utf-8")
        compile(source, str(reproducer), "exec")  # syntactically valid
        # Replaying the script under the still-corrupted engine must
        # report the violation (reproducers exit via SystemExit).
        with pytest.raises(SystemExit, match="law violated"):
            exec(compile(source, str(reproducer), "exec"), {})

    def test_relative_out_dir_is_pinned_to_launch_cwd(
        self, test_seed, monkeypatch, tmp_path
    ):
        # A cwd-relative out_dir must resolve where the run started, and
        # the reported reproducer paths must come back absolute so they
        # stay valid even if something chdirs afterwards.
        monkeypatch.setitem(
            reference._ENGINES, "kernel", _corrupting(reference._ENGINES["kernel"])
        )
        monkeypatch.chdir(tmp_path)
        report = run_fuzz(
            seed=test_seed,
            cases=12,
            laws=["engines-agree"],
            out_dir="repros",
            shrink=False,
        )
        assert not report.ok
        reproducer = report.failures[0].reproducer
        assert reproducer is not None
        assert reproducer.is_absolute()
        assert reproducer.is_relative_to(tmp_path / "repros")
        assert reproducer.exists()

    def test_reproducer_passes_once_bug_is_fixed(
        self, test_seed, monkeypatch, tmp_path
    ):
        monkeypatch.setitem(
            reference._ENGINES, "kernel", _corrupting(reference._ENGINES["kernel"])
        )
        report = run_fuzz(
            seed=test_seed, cases=12, laws=["engines-agree"], out_dir=tmp_path
        )
        assert not report.ok
        source = report.failures[0].reproducer.read_text(encoding="utf-8")
        monkeypatch.undo()  # "fix" the engine
        with pytest.raises(SystemExit, match="law passed"):
            exec(compile(source, "<reproducer>", "exec"), {})
