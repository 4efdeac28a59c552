"""The repository's pytest configuration reports a failing property test."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers())
def test_below_ten(x):
    assert x < 10
"""


def test_a_failing_property_reports_its_falsifying_example(pytester):
    # Hypothesis imports libcst while it explains a failure, and that import
    # warns; under `error::DeprecationWarning` alone the warning became an
    # INTERNALERROR that ended the session. A fresh interpreter is needed, as
    # the warning fires only on the first import.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_property=FAILING_PROPERTY)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.stdout.fnmatch_lines(["*Falsifying example*", "*1 failed*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    assert result.ret == 1
