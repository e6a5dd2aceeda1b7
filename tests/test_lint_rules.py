"""tangolint rule tests: every rule fires on its bad fixture and stays
quiet on its good twin; suppressions, JSON output, and the CLI work."""

import json
import os
import subprocess
import sys

import pytest

from repro.tools.discovery import iter_python_files, module_name_for
from repro.tools.lint import (
    ALL_RULES,
    Severity,
    lint_paths,
    render_json,
    render_text,
    rules_by_id,
)
from repro.tools.lint.engine import PARSE_ERROR_ID, lint_file

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")

RULE_IDS = [rule.rule_id for rule in ALL_RULES]


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def finding_ids(path: str):
    return [d.rule_id for d in lint_paths([path])]


# ---------------------------------------------------------------------------
# each rule fires on its bad fixture, not on its good one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_fires_on_bad_fixture(rule_id):
    path = fixture(f"{rule_id.lower()}_bad.py")
    ids = finding_ids(path)
    assert rule_id in ids, f"{rule_id} did not fire on {path}: {ids}"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_good_fixture_is_clean(rule_id):
    path = fixture(f"{rule_id.lower()}_good.py")
    ids = finding_ids(path)
    assert ids == [], f"good fixture {path} produced findings: {ids}"


def test_bad_fixtures_fire_only_their_own_rule():
    for rule_id in RULE_IDS:
        ids = set(finding_ids(fixture(f"{rule_id.lower()}_bad.py")))
        assert ids == {rule_id}, (
            f"{rule_id} bad fixture produced cross-rule findings: {ids}"
        )


def test_expected_finding_counts():
    # The bad fixtures each contain a known number of violations.
    assert len(finding_ids(fixture("tl001_bad.py"))) == 3
    assert len(finding_ids(fixture("tl003_bad.py"))) == 3
    assert len(finding_ids(fixture("tl005_bad.py"))) == 2
    assert len(finding_ids(fixture("tl006_bad.py"))) == 2
    assert len(finding_ids(fixture("tl009_bad.py"))) == 3


# ---------------------------------------------------------------------------
# parse failures, suppressions
# ---------------------------------------------------------------------------


def test_unparsable_file_reports_tl000():
    findings = lint_paths([fixture("tl000_bad.py")])
    assert [d.rule_id for d in findings] == [PARSE_ERROR_ID]
    assert findings[0].severity is Severity.ERROR


def test_inline_suppressions_silence_findings():
    assert finding_ids(fixture("suppressed.py")) == []


def test_suppression_is_rule_specific():
    # The same-line suppression names TL001 only; selecting a different
    # rule must not be affected, and stripping the comment must re-fire.
    source_path = fixture("suppressed.py")
    with open(source_path, "r", encoding="utf-8") as handle:
        stripped = "".join(
            line.split("# tangolint:")[0].rstrip() + "\n"
            for line in handle
        )
    unsuppressed = os.path.join(FIXTURES, "_stripped_tmp.py")
    with open(unsuppressed, "w", encoding="utf-8") as handle:
        handle.write(stripped)
    try:
        ids = finding_ids(unsuppressed)
        assert ids == ["TL001", "TL001", "TL001"]
    finally:
        os.remove(unsuppressed)


# ---------------------------------------------------------------------------
# engine API: selection, ordering, reporters
# ---------------------------------------------------------------------------


def test_select_restricts_rules():
    path = fixture("tl003_bad.py")
    assert lint_paths([path], select=["TL001"]) == []
    assert {d.rule_id for d in lint_paths([path], select=["TL003"])} == {"TL003"}


def test_findings_are_sorted_and_stable():
    findings = lint_paths([FIXTURES])
    assert findings == sorted(findings)
    assert findings == lint_paths([FIXTURES])  # deterministic


def test_render_text_shape():
    findings = lint_paths([fixture("tl008_bad.py")])
    text = render_text(findings)
    assert "tl008_bad.py" in text
    assert "TL008" in text
    assert "finding(s)" in text
    assert render_text([]) == "tangolint: no findings"


def test_render_json_schema():
    findings = lint_paths([fixture("tl007_bad.py")])
    payload = json.loads(render_json(findings))
    assert payload["version"] == 1
    assert payload["summary"]["total"] == len(findings) > 0
    assert payload["summary"]["errors"] >= 1
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "col", "rule", "severity", "message"}
    assert first["rule"].startswith("TL")


def test_lint_file_with_explicit_rules():
    rule = rules_by_id()["TL008"]
    findings = lint_file(fixture("tl008_bad.py"), [rule])
    assert {d.rule_id for d in findings} == {"TL008"}


# ---------------------------------------------------------------------------
# discovery helpers (shared with the other tools)
# ---------------------------------------------------------------------------


def test_iter_python_files_dedups_and_sorts():
    files = list(iter_python_files([FIXTURES, fixture("tl001_bad.py")]))
    assert len(files) == len(set(files))
    assert all(f.endswith(".py") for f in files)
    assert any(f.endswith("tl001_bad.py") for f in files)


def test_module_name_for():
    assert module_name_for("src/repro/tango/runtime.py") == "repro.tango.runtime"
    assert module_name_for("src/repro/tools/lint/__init__.py") == (
        "repro.tools.lint"
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run_cli(*args):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.tools.lint", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_exit_codes_and_json():
    clean = _run_cli(fixture("tl001_good.py"))
    assert clean.returncode == 0, clean.stderr
    assert "no findings" in clean.stdout

    dirty = _run_cli("--json", fixture("tl001_bad.py"))
    assert dirty.returncode == 1
    payload = json.loads(dirty.stdout)
    assert payload["summary"]["total"] == 3

    selected = _run_cli("--select", "TL007", fixture("tl001_bad.py"))
    assert selected.returncode == 0


def test_cli_list_rules_and_bad_args():
    listing = _run_cli("--list-rules")
    assert listing.returncode == 0
    for rule_id in RULE_IDS:
        assert rule_id in listing.stdout

    unknown = _run_cli("--select", "TL999", fixture("tl001_good.py"))
    assert unknown.returncode == 2

    missing = _run_cli("no/such/path.py")
    assert missing.returncode == 2
