import pytest

import drawelo
from conftest import run_cli
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
