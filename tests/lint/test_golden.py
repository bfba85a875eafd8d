"""Golden-output tests: each fixture's text/JSON/SARIF renderings are frozen.

``defective.manifest`` fires every enumerable code;
``decomposable.manifest`` spreads its findings over five interleaved
collaborative sets (its goldens were rendered by the global SA3xx/SA6xx
engine, before lint analyzed one set at a time).

Regenerate after an intentional output change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/lint/test_golden.py
"""

import os
from pathlib import Path

import pytest

from repro.lint import lint_text, render_json, render_sarif, render_text

FIXTURES = Path("tests/lint/fixtures")
GOLDEN = Path("tests/lint/golden")

RENDERERS = {
    "txt": lambda report: render_text(report, verbose=True),
    "json": render_json,
    "sarif": render_sarif,
}


@pytest.mark.parametrize(
    "name",
    [
        f"{fixture}.{suffix}"
        for fixture in ("decomposable", "defective")
        for suffix in sorted(RENDERERS)
    ],
)
def test_golden(name):
    fixture, suffix = name.split(".")
    source = FIXTURES / f"{fixture}.manifest"
    report = lint_text(source.read_text(encoding="utf-8"), path=source.as_posix())
    rendered = RENDERERS[suffix](report) + "\n"
    golden_path = GOLDEN / name
    if os.environ.get("REGEN_GOLDEN"):
        golden_path.write_text(rendered, encoding="utf-8")
    expected = golden_path.read_text(encoding="utf-8")
    assert rendered == expected, (
        f"{name} drifted from its golden output; rerun with REGEN_GOLDEN=1 "
        "if the change is intentional"
    )
