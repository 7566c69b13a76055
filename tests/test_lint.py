"""Fixture-based tests for the repro.lint invariant linter.

For every rule there is one known-bad and one known-good snippet, laid
out on disk the way the real tree is (``src/repro/...``) so the dotted
module-name matching is exercised for real.  The suite also checks the
suppression syntax, the CLI exit-code contract, and — the point of the
whole subsystem — that the repository itself lints clean.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint import LintConfig, Violation, lint_paths, load_config
from repro.lint.config import config_from_mapping

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = config_from_mapping({})


def lint_snippet(
    tmp_path: Path,
    relpath: str,
    source: str,
    config: LintConfig = DEFAULT_CONFIG,
) -> list[Violation]:
    """Write ``source`` at ``tmp_path/relpath`` and lint the tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], config, root=tmp_path)


def rule_ids(violations: list[Violation]) -> set[str]:
    return {violation.rule for violation in violations}


# ---------------------------------------------------------------------------
# GT001 — no mutation of frame-typed inputs
# ---------------------------------------------------------------------------


GT001_BAD = """
    __all__ = ["clobber"]

    def clobber(frame: "LabeledFrame") -> None:
        frame.values[0, 0] = 1
        frame.labels = ()
        frame.values.sort()
"""

GT001_GOOD = """
    __all__ = ["project"]

    def project(frame: "LabeledFrame") -> "LabeledFrame":
        mask = frame.any_mask(frame.col_labels)
        out = frame.select_rows(mask)
        return out
"""


# Appended versions share their parent's frame buffers, so a write into
# an input's frames on the append path (updates, cells) would change
# every version.
@pytest.mark.parametrize("module", ["operators", "updates", "cells"])
def test_gt001_flags_input_mutation(tmp_path: Path, module: str) -> None:
    violations = lint_snippet(tmp_path, f"src/repro/core/{module}.py", GT001_BAD)
    gt001 = [v for v in violations if v.rule == "GT001"]
    assert len(gt001) == 3
    assert "immutable" in gt001[0].message


def test_gt001_accepts_functional_style(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/core/operators.py", GT001_GOOD)
    assert "GT001" not in rule_ids(violations)


def test_gt001_rebound_parameter_is_not_tracked(tmp_path: Path) -> None:
    source = """
        __all__ = ["shrink"]

        def shrink(frame: "LabeledFrame") -> "LabeledFrame":
            frame = frame.select_rows([])
            frame.values[0] = 1  # mutation of the local copy, not the input
            return frame
    """
    violations = lint_snippet(tmp_path, "src/repro/core/operators.py", source)
    assert "GT001" not in rule_ids(violations)


def test_gt001_ignores_modules_outside_scope(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/analysis/scratch.py", GT001_BAD)
    assert "GT001" not in rule_ids(violations)


# ---------------------------------------------------------------------------
# GT002 — vectorization of hot modules
# ---------------------------------------------------------------------------


GT002_BAD = """
    __all__ = ["total", "indexed", "comprehended"]

    def total(frame: "LabeledFrame") -> int:
        acc = 0
        for label, row in frame.iter_rows():
            acc += int(row.sum())
        return acc

    def indexed(frame: "LabeledFrame") -> int:
        acc = 0
        for i in range(frame.n_rows):
            acc += i
        return acc

    def comprehended(frame: "LabeledFrame") -> list:
        return [row for _, row in frame.iter_rows()]
"""

GT002_GOOD = """
    __all__ = ["total"]

    def total(frame: "LabeledFrame") -> int:
        return int(frame.values.sum())
"""


def test_gt002_flags_row_loops(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/core/fast.py", GT002_BAD)
    gt002 = [v for v in violations if v.rule == "GT002"]
    assert len(gt002) == 3
    assert "vectorized" in gt002[0].message


def test_gt002_accepts_whole_array_code(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/core/fast.py", GT002_GOOD)
    assert "GT002" not in rule_ids(violations)


def test_gt002_only_applies_to_hot_modules(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/datasets/loader.py", GT002_BAD)
    assert "GT002" not in rule_ids(violations)


# ---------------------------------------------------------------------------
# GT003 — error taxonomy
# ---------------------------------------------------------------------------


GT003_BAD = """
    __all__ = ["check"]

    def check(x: int) -> None:
        if x < 0:
            raise ValueError("x must be >= 0")
"""

GT003_GOOD = """
    from repro.errors import ValidationError

    __all__ = ["check"]

    def check(x: int) -> None:
        if x < 0:
            raise ValidationError("x must be >= 0")
"""


def test_gt003_flags_bare_builtin_raise(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/analysis/checks.py", GT003_BAD)
    gt003 = [v for v in violations if v.rule == "GT003"]
    assert len(gt003) == 1
    assert "ValueError" in gt003[0].message


def test_gt003_accepts_taxonomy_raise(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/analysis/checks.py", GT003_GOOD)
    assert "GT003" not in rule_ids(violations)


def test_gt003_reraise_and_custom_classes_allowed(tmp_path: Path) -> None:
    source = """
        __all__ = ["passthrough"]

        def passthrough() -> None:
            try:
                helper()
            except Exception:
                raise

        def helper() -> None:
            raise NotImplementedError
    """
    violations = lint_snippet(tmp_path, "src/repro/analysis/checks.py", source)
    assert "GT003" not in rule_ids(violations)


# ---------------------------------------------------------------------------
# GT004 — dependency hygiene
# ---------------------------------------------------------------------------


GT004_BAD = """
    import pandas as pd

    __all__ = ["load"]

    def load() -> "pd.DataFrame":
        return pd.DataFrame()
"""

GT004_GOOD = """
    import json

    import numpy as np

    from repro.errors import ValidationError

    __all__ = ["load"]

    def load() -> "np.ndarray":
        return np.zeros(1)
"""


def test_gt004_flags_third_party_import(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/frames/loader.py", GT004_BAD)
    gt004 = [v for v in violations if v.rule == "GT004"]
    assert len(gt004) == 1
    assert "pandas" in gt004[0].message


def test_gt004_accepts_numpy_stdlib_first_party(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/frames/loader.py", GT004_GOOD)
    assert "GT004" not in rule_ids(violations)


def test_gt004_outer_layers_may_use_third_party(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/interop/pandas_io.py", GT004_BAD)
    assert "GT004" not in rule_ids(violations)


# ---------------------------------------------------------------------------
# GT005 — public API declarations
# ---------------------------------------------------------------------------


GT005_BAD_MISSING = """
    def helper() -> int:
        return 1
"""

GT005_BAD_UNRESOLVED = """
    __all__ = ["helper", "ghost"]

    def helper() -> int:
        return 1
"""

GT005_GOOD = """
    __all__ = ["helper", "CONSTANT"]

    CONSTANT = 3

    def helper() -> int:
        return CONSTANT
"""


def test_gt005_flags_missing_all(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/olap/extras.py", GT005_BAD_MISSING)
    gt005 = [v for v in violations if v.rule == "GT005"]
    assert len(gt005) == 1
    assert "__all__" in gt005[0].message


def test_gt005_flags_unresolved_name(tmp_path: Path) -> None:
    violations = lint_snippet(
        tmp_path, "src/repro/olap/extras.py", GT005_BAD_UNRESOLVED
    )
    gt005 = [v for v in violations if v.rule == "GT005"]
    assert len(gt005) == 1
    assert "ghost" in gt005[0].message


def test_gt005_accepts_complete_all(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/olap/extras.py", GT005_GOOD)
    assert "GT005" not in rule_ids(violations)


def test_gt005_module_getattr_satisfies_resolution(tmp_path: Path) -> None:
    source = """
        __all__ = ["lazy_thing"]

        def __getattr__(name: str) -> object:
            raise AttributeError(name)
    """
    violations = lint_snippet(tmp_path, "src/repro/olap/extras.py", source)
    assert "GT005" not in rule_ids(violations)


def test_gt005_private_modules_exempt(tmp_path: Path) -> None:
    violations = lint_snippet(
        tmp_path, "src/repro/olap/_internal.py", GT005_BAD_MISSING
    )
    assert "GT005" not in rule_ids(violations)


# ---------------------------------------------------------------------------
# GT006 — no print in library code
# ---------------------------------------------------------------------------


GT006_BAD = """
    __all__ = ["report"]

    def report() -> None:
        print("done")
"""

GT006_GOOD = """
    import logging

    __all__ = ["report"]

    logger = logging.getLogger(__name__)

    def report() -> None:
        logger.info("done")
"""


def test_gt006_flags_print(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/olap/report.py", GT006_BAD)
    gt006 = [v for v in violations if v.rule == "GT006"]
    assert len(gt006) == 1
    assert "logging" in gt006[0].message


def test_gt006_accepts_logging(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/olap/report.py", GT006_GOOD)
    assert "GT006" not in rule_ids(violations)


def test_gt006_cli_modules_exempt(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/cli.py", GT006_BAD)
    assert "GT006" not in rule_ids(violations)


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------


def test_line_suppression(tmp_path: Path) -> None:
    source = """
        __all__ = ["check"]

        def check() -> None:
            raise ValueError("known exception")  # lint: ignore[GT003]
    """
    violations = lint_snippet(tmp_path, "src/repro/analysis/checks.py", source)
    assert "GT003" not in rule_ids(violations)


def test_line_suppression_is_rule_specific(tmp_path: Path) -> None:
    source = """
        __all__ = ["check"]

        def check() -> None:
            raise ValueError("still flagged")  # lint: ignore[GT001]
    """
    violations = lint_snippet(tmp_path, "src/repro/analysis/checks.py", source)
    assert "GT003" in rule_ids(violations)


def test_file_suppression(tmp_path: Path) -> None:
    source = """
        # lint: ignore-file[GT005]

        def helper() -> int:
            return 1
    """
    violations = lint_snippet(tmp_path, "src/repro/olap/extras.py", source)
    assert "GT005" not in rule_ids(violations)


def test_bare_ignore_suppresses_all_rules(tmp_path: Path) -> None:
    source = """
        __all__ = ["check"]

        def check() -> None:
            raise ValueError("anything")  # lint: ignore
    """
    violations = lint_snippet(tmp_path, "src/repro/analysis/checks.py", source)
    assert violations == []


# ---------------------------------------------------------------------------
# Engine / config behaviour
# ---------------------------------------------------------------------------


def test_syntax_error_reported_as_gt000(tmp_path: Path) -> None:
    violations = lint_snippet(tmp_path, "src/repro/olap/broken.py", "def f(:\n")
    assert rule_ids(violations) == {"GT000"}


def test_config_select_subset(tmp_path: Path) -> None:
    config = config_from_mapping({"select": ["GT006"]})
    source = """
        def helper() -> None:
            print(1)
    """
    # missing __all__ (GT005) goes unreported; only the selected rule runs
    violations = lint_snippet(tmp_path, "src/repro/olap/report.py", source, config)
    assert rule_ids(violations) == {"GT006"}


def test_config_rejects_unknown_keys() -> None:
    with pytest.raises(ConfigurationError):
        config_from_mapping({"selekt": ["GT001"]})


def test_config_rejects_unknown_rule_ids(tmp_path: Path) -> None:
    config = config_from_mapping({"select": ["GT999"]})
    with pytest.raises(ConfigurationError):
        lint_paths([tmp_path], config, root=tmp_path)


def test_pyproject_overrides_defaults(tmp_path: Path) -> None:
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        '[tool.repro-lint]\nselect = ["GT003"]\n'
        '[tool.repro-lint.GT003]\nmodules = ["repro.*"]\nexempt = ["repro.legacy"]\n'
    )
    config = load_config(pyproject)
    assert config.select == ("GT003",)
    assert config.rule_settings("GT003").exempt == ("repro.legacy",)
    # unspecified options keep their defaults
    assert "ValueError" in config.rule_settings("GT003").option("forbidden")


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


def run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_absolute_paths_outside_root_still_match_rules(tmp_path: Path) -> None:
    """Module names anchor at the `src` segment wherever the tree lives,
    so linting an absolute path from an unrelated cwd still applies the
    `repro.*`-scoped rules (regression: they used to silently pass)."""
    target = tmp_path / "src" / "repro" / "analysis" / "checks.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(GT003_BAD))
    violations = lint_paths([tmp_path / "src"], DEFAULT_CONFIG, root=REPO)
    assert "GT003" in rule_ids(violations)


def test_cli_exit_one_on_violations(tmp_path: Path) -> None:
    target = tmp_path / "src" / "repro" / "olap" / "report.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(GT006_BAD))
    result = run_cli("src", cwd=tmp_path)
    assert result.returncode == 1
    assert "GT006" in result.stdout


def test_cli_exit_zero_on_clean_tree(tmp_path: Path) -> None:
    target = tmp_path / "src" / "repro" / "olap" / "report.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(GT006_GOOD))
    result = run_cli("src", cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_exit_two_on_bad_config(tmp_path: Path) -> None:
    result = run_cli("--config", "missing.toml", cwd=tmp_path)
    assert result.returncode == 2
    assert "error" in result.stderr


def test_cli_list_rules(tmp_path: Path) -> None:
    result = run_cli("--list-rules", cwd=tmp_path)
    assert result.returncode == 0
    for rule_id in ("GT001", "GT002", "GT003", "GT004", "GT005", "GT006"):
        assert rule_id in result.stdout


# ---------------------------------------------------------------------------
# The repository itself lints clean — the acceptance gate of the subsystem.
# ---------------------------------------------------------------------------


def test_repository_lints_clean() -> None:
    config = load_config(REPO / "pyproject.toml")
    violations = lint_paths(
        [REPO / "src", REPO / "tests"], config, root=REPO
    )
    assert violations == [], "\n".join(v.render() for v in violations)


def test_repository_lints_clean_via_cli() -> None:
    result = run_cli("src", cwd=REPO)
    assert result.returncode == 0, result.stdout + result.stderr
