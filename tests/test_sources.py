import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_file_parses_at_the_oldest_supported_python():
    # Parsing with the grammar of the oldest Python that pyproject.toml
    # declares catches newer syntax, such as ``except*`` before 3.11,
    # without that interpreter.
    pyproject = (ROOT / "pyproject.toml").read_text("utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text("utf-8"), str(path), feature_version=(int(major), int(minor)))
