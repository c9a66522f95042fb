import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import drawelo
from conftest import child_env, run_cli
from drawelo import cli, engine, evaluation, models, sim


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


# Each record type with an example of its fields, in order; whether it is
# frozen; and a change its checks refuse, with the message's start (None
# for a type without checks).  Frozen types hold hashable values here, but
# for SimSpec, whose ratings are always a dict.
PARAMS = models.ModelParams(sigma=400.0, kappa=1.5, eta=0.2, v0=0.0)
RECORDS = [
    (models.ModelParams, dict(sigma=400.0, kappa=1.5, eta=0.2, v0=0.1, family="threshold"),
     True, dict(sigma=-1.0), "sigma must be a finite real >= "),
    (sim.SimSpec, dict(theta_true={"A": 1.0, "B": -1.0}, model=PARAMS, rounds=2, seed=3),
     True, dict(rounds=0), "rounds must be >= 1, got 0"),
    (cli.RunConfig, dict(command="rate", input_path="season.csv", sigma=500.0, k_tilde=0.1,
                         kappa=0.5, eta=0.2, v0=0.0, mode="elo", family="davidson",
                         output_format="csv", eval_window="full"),
     False, None, None),
    (engine.RatingState, dict(ratings={"A": 1.0}), False, None, None),
    (engine.EngineConfig, dict(model=PARAMS, k_tilde=0.1, mode="elo-check", check_kappa=0.5),
     True, dict(k_tilde=-1.0), "k_tilde must be >= 0, got -1.0"),
    (engine.SeasonResult, dict(state=engine.RatingState(), predictions=[], trajectory=()),
     False, None, None),
    (engine.CompiledSeason, dict(players=("A", "B"), home=(0,), away=(1,), score=(1.0,), given=0),
     True, None, None),
    (engine.OnlineRun, dict(diffs=((0.0,),), ratings=((1.0, -1.0),)), True, None, None),
    (engine.FitResult, dict(theta={"A": 0.0}, nll=1.0, grad_max_norm=0.0, iterations=3,
                            stop_reason="gradient"),
     False, None, None),
    (evaluation.EmpiricalStats, dict(p_home_bar=0.5, p_away_bar=0.3, p_draw_bar=0.2,
                                     delta_bar=0.2, kappa_bar=0.5, n_games=10),
     True, None, None),
    (evaluation.EvalReport, dict(mean_ls=1.0, interval_low=0.1, interval_high=2.0,
                                 per_game_ls=(1.0,), window=(0, 1)),
     True, None, None),
]


@pytest.mark.parametrize("cls, fields, frozen, bad, message", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_types_keep_their_constructor_equality_and_checks(cls, fields, frozen, bad,
                                                                 message):
    record = cls(**fields)
    assert cls(*fields.values()) == record  # by position, in field order
    # the same attribute names and values (an enum's value equals its member)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(record).startswith(f"{cls.__name__}({next(iter(fields))}=")
    assert record != (*fields.values(),) and not record != cls(**fields)
    name, value = next(iter(fields.items()))
    changed = record.replace(**{name: value})
    assert changed == record and changed is not record
    if frozen:
        if cls is sim.SimSpec:  # unhashable, as the dataclass was
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(record) == hash(cls(**fields))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(record, name, value)
        assert getattr(record, name) is value
    if bad is not None:
        with pytest.raises(ValueError) as raised:
            cls(**{**fields, **bad})
        assert str(raised.value).startswith(message)
        with pytest.raises(ValueError) as replaced:
            record.replace(**bad)
        assert str(replaced.value) == str(raised.value)
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        record.replace(nope=1)


def test_run_config_stays_mutable_and_replace_leaves_it_alone():
    cfg = cli.RunConfig(command="fit", input_path="season.csv")
    cfg.family, cfg.v0 = models.ModelFamily.THRESHOLD, 0.4  # as the benchmark's fit call does
    cell = cfg.replace(kappa=1.2)
    assert (cell.family, cell.v0, cell.kappa, cfg.kappa) == (
        models.ModelFamily.THRESHOLD, 0.4, 1.2, 0.7)
    assert cell.model_params() == models.ModelParams(
        sigma=600.0, kappa=1.2, eta=0.3, v0=0.4, family="threshold")


def test_only_the_game_list_types_are_dataclasses():
    # perfbench calls dataclasses.replace on a GameRecord and a Dataset
    exported = {name for name in drawelo.__all__ if dataclasses.is_dataclass(getattr(drawelo, name))}
    assert exported == {"GameRecord", "Dataset"}
