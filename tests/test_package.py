import subprocess
import sys
from pathlib import Path

import pytest

import drawelo
from conftest import child_env, run_cli
from drawelo import cli, engine, models


def test_every_export_resolves_and_is_listed():
    listed = dir(drawelo)
    for name in drawelo.__all__:
        assert getattr(drawelo, name) is not None
        assert name in listed
    assert drawelo.__version__ == "0.1.0"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from drawelo import *", namespace)
    assert set(drawelo.__all__) <= set(namespace)
    assert namespace["run_season"] is engine.run_season


def test_update_mode_is_one_object_everywhere():
    assert drawelo.UpdateMode is engine.UpdateMode is models.UpdateMode


@pytest.mark.parametrize("module", [drawelo, cli], ids=["drawelo", "drawelo.cli"])
def test_unknown_name_is_an_attribute_error_naming_the_module(module):
    with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'nope'"):
        module.nope  # noqa: B018


def test_cli_resolves_the_library_names_it_defers():
    assert cli.run_season is engine.run_season
    assert cli.score_games is drawelo.score_games


def test_importing_a_module_loads_no_unrelated_module():
    result = run_cli([], driver="import drawelo.data\n"
                                "print(*sorted(m for m in sys.modules if m.startswith('drawelo')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode().split() == [
        "drawelo", "drawelo.data", "drawelo.errors", "drawelo.models"]


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_below_ten(x):
    assert x < 10
"""


def test_a_failing_property_reports_its_counterexample(tmp_path):
    # under this project's pytest settings, where warnings are errors, a failing
    # Hypothesis test is one failure with its example, not an INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        env=child_env(), cwd=tmp_path, capture_output=True, timeout=120)
    output = (result.stdout + result.stderr).decode()
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
