"""The package version has one source: ``repro.__version__``."""

import re
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_version_is_the_latest_changelog_release():
    """``pyproject.toml`` reads its version from ``repro.__version__``,
    and every release opens a CHANGELOG section: the two agree."""
    changelog = (REPO_ROOT / "CHANGELOG.md").read_text()
    latest = re.search(r"^## (\S+)$", changelog, re.MULTILINE)
    assert latest is not None
    assert repro.__version__ == latest.group(1)
