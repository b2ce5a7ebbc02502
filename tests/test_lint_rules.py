"""Per-rule tests for ``repro.lint`` against the snippet fixtures.

Each rule gets three scenarios built from ``tests/lint_fixtures/``: a
clean snippet, a violating one, and a violating one silenced with a
``# repro-lint: disable`` directive.  The helper copies the snippet into
a scratch project tree at the path the rule watches (e.g. the banding
fixture lands at ``src/repro/distances/prune.py``) so the path-scoped
rules see it in scope.
"""

import json
from pathlib import Path

import pytest

from repro.lint import LintError, run_lint
from repro.lint.cli import JSON_SCHEMA_VERSION, main
from repro.lint.engine import collect_project
from repro.lint.rules import all_rules, get_rule, rule_codes

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

#: docs/API.md stand-in documenting both exports of the RPR006 fixture
DOCS_BOTH = "# API\n\n| `dtw(x, y)` | fast path |\n| `cdtw(x, y)` | banded |\n"
#: same, but `cdtw` is missing a row
DOCS_ONE = "# API\n\n| `dtw(x, y)` | fast path |\n"


def build_tree(tmp_path, mapping, docs_api=None, test_text=None):
    """Assemble a scratch project: ``mapping`` is dest-relpath -> fixture
    name (or raw source when the value contains a newline)."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'scratch'\n")
    for dest, content in mapping.items():
        path = tmp_path / dest
        path.parent.mkdir(parents=True, exist_ok=True)
        text = content if "\n" in content else (FIXTURES / content).read_text()
        path.write_text(text)
    if test_text is not None:
        (tmp_path / "tests").mkdir(exist_ok=True)
        (tmp_path / "tests" / "test_differential.py").write_text(test_text)
    if docs_api is not None:
        (tmp_path / "docs").mkdir(exist_ok=True)
        (tmp_path / "docs" / "API.md").write_text(docs_api)
    return tmp_path


def lint_codes(root, **kwargs):
    return [violation.code for violation in run_lint(root=root, **kwargs)]


# ---------------------------------------------------------------------------
# registry sanity


def test_registry_is_contiguous_and_unique():
    codes = rule_codes()
    assert codes == tuple(f"RPR{i:03d}" for i in range(1, len(codes) + 1))
    assert [rule.code for rule in all_rules()] == list(codes)
    assert all(rule.name and rule.summary for rule in all_rules())


def test_get_rule_unknown_code_raises():
    with pytest.raises(LintError, match="unknown rule code"):
        get_rule("RPR999")


# ---------------------------------------------------------------------------
# RPR001 — oracle twins


def test_rpr001_ok(tmp_path):
    root = build_tree(
        tmp_path,
        {"src/repro/distances/dtw.py": "rpr001_ok.py"},
        test_text="from repro.distances.dtw import _dtw_naive\n",
    )
    assert lint_codes(root) == []


def test_rpr001_missing_twin_fires(tmp_path):
    root = build_tree(tmp_path, {"src/repro/distances/dtw.py": "rpr001_bad.py"})
    violations = run_lint(root=root)
    assert [v.code for v in violations] == ["RPR001"]
    assert "_dtw_naive" in violations[0].message
    assert violations[0].path == "src/repro/distances/dtw.py"


def test_rpr001_screened_assignment_needs_dense_twin(tmp_path):
    source = "def assign_sbd(state, fft_C, norms_C, cols, rng):\n    return None\n"
    root = build_tree(tmp_path, {"src/repro/core/kshape.py": source})
    violations = run_lint(root=root)
    assert [v.code for v in violations] == ["RPR001"]
    assert "_assign_sbd_naive" in violations[0].message


def test_rpr001_suppressed(tmp_path):
    root = build_tree(tmp_path, {"src/repro/distances/dtw.py": "rpr001_suppressed.py"})
    assert lint_codes(root) == []


def test_rpr001_orphan_and_unreferenced_twin(tmp_path):
    source = "def _sbd_naive(x, y):\n    return 0.0\n"
    root = build_tree(tmp_path, {"src/repro/distances/extra.py": source})
    messages = [v.message for v in run_lint(root=root)]
    assert len(messages) == 2  # stale oracle + no test reference
    assert any("stale oracle" in m for m in messages)
    assert any("tests/" in m for m in messages)


# ---------------------------------------------------------------------------
# RPR002 — band rounding outside resolve_window


def test_rpr002_ok(tmp_path):
    root = build_tree(tmp_path, {"src/repro/distances/prune.py": "rpr002_ok.py"})
    assert lint_codes(root) == []


def test_rpr002_raw_rounding_fires(tmp_path):
    root = build_tree(tmp_path, {"src/repro/distances/prune.py": "rpr002_bad.py"})
    violations = run_lint(root=root)
    assert [v.code for v in violations] == ["RPR002"]
    assert "resolve_window" in violations[0].message


def test_rpr002_suppressed(tmp_path):
    root = build_tree(tmp_path, {"src/repro/distances/prune.py": "rpr002_suppressed.py"})
    assert lint_codes(root) == []


def test_rpr002_out_of_scope_module_not_flagged(tmp_path):
    # The same arithmetic outside distances/ is not band logic.
    root = build_tree(tmp_path, {"src/repro/stats/windows.py": "rpr002_bad.py"})
    assert lint_codes(root) == []


# ---------------------------------------------------------------------------
# RPR003 — determinism


def test_rpr003_ok(tmp_path):
    root = build_tree(tmp_path, {"src/repro/serving/artifacts.py": "rpr003_ok.py"})
    assert lint_codes(root) == []


def test_rpr003_wall_clock_and_global_rng_fire(tmp_path):
    root = build_tree(tmp_path, {"src/repro/serving/artifacts.py": "rpr003_bad.py"})
    violations = run_lint(root=root)
    assert [v.code for v in violations] == ["RPR003", "RPR003"]
    joined = " ".join(v.message for v in violations)
    assert "time.time" in joined and "np.random.rand" in joined


def test_rpr003_suppressed(tmp_path):
    root = build_tree(tmp_path, {"src/repro/serving/artifacts.py": "rpr003_suppressed.py"})
    assert lint_codes(root) == []


def test_rpr003_wall_clock_allowed_outside_checksum_modules(tmp_path):
    source = "import time\n\n\ndef stamp():\n    return time.time()\n"
    root = build_tree(tmp_path, {"src/repro/benchmarks/timing.py": source})
    assert lint_codes(root) == []


# ---------------------------------------------------------------------------
# RPR004 — picklable process-pool submissions


def test_rpr004_ok(tmp_path):
    root = build_tree(tmp_path, {"src/repro/parallel/engine.py": "rpr004_ok.py"})
    assert lint_codes(root) == []


def test_rpr004_lambda_submission_fires(tmp_path):
    root = build_tree(tmp_path, {"src/repro/parallel/engine.py": "rpr004_bad.py"})
    violations = run_lint(root=root)
    assert [v.code for v in violations] == ["RPR004"]
    assert "lambda" in violations[0].message


def test_rpr004_suppressed(tmp_path):
    root = build_tree(tmp_path, {"src/repro/parallel/engine.py": "rpr004_suppressed.py"})
    assert lint_codes(root) == []


def test_rpr004_thread_pool_lambda_is_exempt(tmp_path):
    source = (
        "from concurrent.futures import ThreadPoolExecutor\n\n\n"
        "def run(items):\n"
        "    with ThreadPoolExecutor(2) as pool:\n"
        "        return list(pool.map(lambda item: item + 1, items))\n"
    )
    root = build_tree(tmp_path, {"src/repro/parallel/engine.py": source})
    assert lint_codes(root) == []


# ---------------------------------------------------------------------------
# RPR005 — __all__ consistency


def test_rpr005_ok(tmp_path):
    root = build_tree(tmp_path, {"src/repro/distances/api.py": "rpr005_ok.py"})
    assert lint_codes(root) == []


def test_rpr005_unbound_export_fires(tmp_path):
    root = build_tree(tmp_path, {"src/repro/distances/api.py": "rpr005_bad.py"})
    violations = run_lint(root=root)
    assert [v.code for v in violations] == ["RPR005"]
    assert "`cdtw`" in violations[0].message


def test_rpr005_suppressed(tmp_path):
    root = build_tree(tmp_path, {"src/repro/distances/api.py": "rpr005_suppressed.py"})
    assert lint_codes(root) == []


# ---------------------------------------------------------------------------
# RPR006 — docs/API.md sync


def test_rpr006_documented_exports_ok(tmp_path):
    root = build_tree(
        tmp_path,
        {"src/repro/__init__.py": "rpr006_module.py"},
        docs_api=DOCS_BOTH,
    )
    assert lint_codes(root) == []


def test_rpr006_undocumented_export_fires(tmp_path):
    root = build_tree(
        tmp_path,
        {"src/repro/__init__.py": "rpr006_module.py"},
        docs_api=DOCS_ONE,
    )
    violations = run_lint(root=root)
    assert [v.code for v in violations] == ["RPR006"]
    assert "`cdtw`" in violations[0].message


def test_rpr006_suppressed(tmp_path):
    root = build_tree(
        tmp_path,
        {"src/repro/__init__.py": "rpr006_suppressed.py"},
        docs_api=DOCS_ONE,
    )
    assert lint_codes(root) == []


def test_rpr006_skipped_when_docs_absent(tmp_path):
    root = build_tree(tmp_path, {"src/repro/__init__.py": "rpr006_module.py"})
    assert lint_codes(root) == []


# ---------------------------------------------------------------------------
# RPR007 / RPR008 / RPR009 — hygiene


@pytest.mark.parametrize(
    "fixture, expected",
    [
        ("rpr007_ok.py", []),
        ("rpr007_bad.py", ["RPR007"]),
        ("rpr007_suppressed.py", []),
        ("rpr008_ok.py", []),
        ("rpr008_bad.py", ["RPR008", "RPR008"]),
        ("rpr008_suppressed.py", []),
        ("rpr009_ok.py", []),
        ("rpr009_bad.py", ["RPR009", "RPR009", "RPR009"]),  # arg + two stores
        ("rpr009_suppressed.py", []),
    ],
)
def test_hygiene_fixtures(tmp_path, fixture, expected):
    root = build_tree(tmp_path, {"src/repro/util.py": fixture})
    assert lint_codes(root) == expected


def test_rpr008_reexport_alias_is_exempt(tmp_path):
    source = "from math import sqrt as sqrt\n"
    root = build_tree(tmp_path, {"src/repro/util.py": source})
    assert lint_codes(root) == []


# ---------------------------------------------------------------------------
# RPR010 — cost constants under parallel/ must be declared fallbacks


@pytest.mark.parametrize(
    "fixture, expected",
    [
        ("rpr010_ok.py", []),
        ("rpr010_bad.py", ["RPR010", "RPR010"]),
        ("rpr010_suppressed.py", []),
    ],
)
def test_rpr010_fixtures(tmp_path, fixture, expected):
    root = build_tree(tmp_path, {"src/repro/parallel/costs.py": fixture})
    assert lint_codes(root) == expected


def test_rpr010_out_of_scope_module_not_flagged(tmp_path):
    # The same constants outside parallel/ are not scheduling knobs.
    root = build_tree(tmp_path, {"src/repro/serving/costs.py": "rpr010_bad.py"})
    assert lint_codes(root) == []


def test_rpr010_message_points_at_fallback_table(tmp_path):
    root = build_tree(tmp_path, {"src/repro/parallel/costs.py": "rpr010_bad.py"})
    violations = run_lint(root=root)
    assert all("_STATIC_FALLBACK_CONSTANTS" in v.message for v in violations)
    assert all("HardwareProfile" in v.message for v in violations)


# ---------------------------------------------------------------------------
# RPR000 — parse errors, and engine plumbing


def test_parse_error_reported_as_rpr000(tmp_path):
    root = build_tree(tmp_path, {"src/repro/broken.py": "def broken(:\n"})
    violations = run_lint(root=root)
    assert [v.code for v in violations] == ["RPR000"]
    assert violations[0].line == 0


def test_select_limits_rules(tmp_path):
    root = build_tree(
        tmp_path,
        {
            "src/repro/distances/prune.py": "rpr002_bad.py",
            "src/repro/util.py": "rpr007_bad.py",
        },
    )
    assert lint_codes(root) == ["RPR002", "RPR007"]
    assert lint_codes(root, select=["RPR007"]) == ["RPR007"]


def test_explicit_paths_narrow_the_scope(tmp_path):
    root = build_tree(
        tmp_path,
        {
            "src/repro/distances/prune.py": "rpr002_bad.py",
            "src/repro/util.py": "rpr007_bad.py",
        },
    )
    only = run_lint(root=root, paths=[Path("src/repro/util.py")])
    assert [v.code for v in only] == ["RPR007"]


def test_collect_project_skips_pycache(tmp_path):
    root = build_tree(tmp_path, {"src/repro/ok.py": "x = 1\n"})
    cache = root / "src" / "repro" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "junk.py").write_text("def broken(:\n")
    project = collect_project(root=root)
    assert [f.relpath for f in project.files] == ["src/repro/ok.py"]
    assert project.parse_errors == []


def test_violations_are_sorted_by_location(tmp_path):
    root = build_tree(
        tmp_path,
        {
            "src/repro/a.py": "import os\nimport sys\n",
            "src/repro/b.py": "import json\n",
        },
    )
    violations = run_lint(root=root)
    assert [(v.path, v.line) for v in violations] == [
        ("src/repro/a.py", 1),
        ("src/repro/a.py", 2),
        ("src/repro/b.py", 1),
    ]


# ---------------------------------------------------------------------------
# CLI: exit codes and the JSON report schema


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    root = build_tree(tmp_path, {"src/repro/ok.py": "x = 1\n"})
    assert main(["--root", str(root)]) == 0
    assert "no violations" in capsys.readouterr().out


def test_cli_text_output_format(tmp_path, capsys):
    root = build_tree(tmp_path, {"src/repro/distances/prune.py": "rpr002_bad.py"})
    assert main(["--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/distances/prune.py:5:" in out
    assert "RPR002" in out
    assert "1 violation(s)" in out


def test_cli_json_schema(tmp_path, capsys):
    root = build_tree(
        tmp_path,
        {
            "src/repro/distances/prune.py": "rpr002_bad.py",
            "src/repro/util.py": "rpr007_bad.py",
        },
    )
    assert main(["--root", str(root), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "repro.lint"
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["root"] == str(root.resolve())
    assert payload["rules"] == list(rule_codes())
    assert payload["summary"] == {
        "violations": 2,
        "by_code": {"RPR002": 1, "RPR007": 1},
    }
    for record in payload["violations"]:
        assert set(record) == {"code", "message", "path", "line", "col"}
        assert record["code"].startswith("RPR")
        assert isinstance(record["line"], int)


def test_cli_select_and_json(tmp_path, capsys):
    root = build_tree(
        tmp_path,
        {
            "src/repro/distances/prune.py": "rpr002_bad.py",
            "src/repro/util.py": "rpr007_bad.py",
        },
    )
    assert main(["--root", str(root), "--select", "rpr002", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == ["RPR002"]
    assert payload["summary"]["by_code"] == {"RPR002": 1}


def test_cli_unknown_code_exits_two(tmp_path, capsys):
    root = build_tree(tmp_path, {"src/repro/ok.py": "x = 1\n"})
    assert main(["--root", str(root), "--select", "RPR999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in rule_codes():
        assert code in out


def test_rpr003_wall_clock_fires_in_registry_module(tmp_path):
    # The registry writes a checksummed index: it inherits artifacts.py's
    # determinism contract.
    root = build_tree(tmp_path, {"src/repro/serving/registry.py": "rpr003_bad.py"})
    violations = run_lint(root=root)
    assert [v.code for v in violations] == ["RPR003", "RPR003"]
    assert any("time.time" in v.message for v in violations)


def test_shipped_registry_module_is_clean():
    import repro.serving.registry as registry_module

    violations = [
        v
        for v in run_lint(paths=[Path(registry_module.__file__)])
        if v.code == "RPR003"
    ]
    assert violations == []
