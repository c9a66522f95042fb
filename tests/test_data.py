import copy
import csv
import dataclasses
import datetime as dt
import io
import math
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import game
from drawelo.data import (
    Dataset,
    GameRecord,
    _parse_date,
    load_matches,
    odds_to_probs,
    parse_matches,
    serialize_matches,
)
from drawelo.errors import RowError, SchemaError
from drawelo.evaluation import empirical_stats
from drawelo.models import ModelParams
from drawelo.sim import SimSpec, generate_season

HEADER = "Date,HomeTeam,AwayTeam,FTR,B365H,B365D,B365A"


def test_parse_single_row():
    text = f"{HEADER}\n12/08/2017,Arsenal,Leicester,H,1.53,4.5,6.5\n"
    dataset = parse_matches(text)
    assert dataset.n_games == 1 and dataset.n_teams == 2
    g = dataset.games[0]
    assert g.date == dt.date(2017, 8, 12)
    assert (g.home_id, g.away_id, g.outcome) == ("Arsenal", "Leicester", "H")
    assert g.odds == (1.53, 4.5, 6.5)


def test_parse_two_digit_years():
    dataset = parse_matches("Date,HomeTeam,AwayTeam,FTR\n25/12/97,A,B,D\n01/01/17,C,D,A\n")
    assert dataset.games[0].date == dt.date(1997, 12, 25)
    assert dataset.games[1].date == dt.date(2017, 1, 1)


# cells from which the hand-parsed form and its near misses are built: ASCII
# digits, signs and spaces that int() would accept, and a non-ASCII digit
# that strptime's \d matches but a date may not hold
_DATE_CHARS = "0123456789/ +-\u0661"
_DATE_PART = st.text("0123456789", min_size=1, max_size=5) | st.text(
    _DATE_CHARS.replace("/", ""), max_size=5
)


@settings(max_examples=500, deadline=None)
@given(
    st.text(_DATE_CHARS, max_size=12)
    | st.builds("/".join, st.lists(_DATE_PART, min_size=2, max_size=4))
)
@example("31/02/2001")
@example("29/02/1900")
@example("29/02/2000")
@example("0/1/2001")
@example("1/13/2001")
@example("001/1/2001")
@example("1/1/999")
@example("1/1/0000")
@example("01/01/68")
@example("01/01/69")
@example("1/1/20001")
@example(" 1/1/2001")
@example("1/1/+001")
@example("\u0661/1/2001")
@example("1\u0661/1/2001")
# int() or Python 3.11's wider fromisoformat grammar would read these
@example("1/1/2_01")
@example("1_/1/2001")
@example("1/W1/2001")
@example("1/1/-001")
@example("01/01/20010101")
def test_parse_date_agrees_with_strptime(text):
    want = oracles.parse_date(text)
    if want is None:
        # parse_matches adds the line (test_parse_bad_date_is_row_error)
        with pytest.raises(ValueError) as exc_info:
            _parse_date(text)
        assert str(exc_info.value) == f"unparseable date {text!r}"
    else:
        assert _parse_date(text) == want


_EXTRA_COLUMNS = ["Div", "FTHG", "Referee", "BWH"]
_TEAMS = ["Arsenal", "Team, United", 'B "b"', " Spaced ", "New\nport", "\u00c9vian"]
_ODDS = ["1.53", "4.5", "10", "2e0", ""]
# one cell that faults a row; float() would read the odds "2_10" and "\u0663.5"
_FAULTS = [("FTR", "X"), ("HomeTeam", ""), ("AwayTeam", " "), ("Date", "31/02/2001"),
           ("Date", "1/1/2_01"), ("B365H", "x"), ("B365H", "2_10"), ("B365H", "\u0663.5"),
           ("B365H", "0.9"), ("B365H", "inf")]


@st.composite
def _date_cells(draw):
    """A day-first date cell: 1- or 2-digit day and month, 2- or 4-digit year."""
    day = draw(st.dates(dt.date(1950, 1, 1), dt.date(2080, 12, 31)))
    d, m = (draw(st.sampled_from([str(x), f"{x:02d}"])) for x in (day.day, day.month))
    two_digit = 1969 <= day.year <= 2068 and draw(st.booleans())
    return f"{d}/{m}/{day.year % 100:02d}" if two_digit else f"{d}/{m}/{day.year}"


@st.composite
def _season_files(draw):
    """football-data CSV text: shuffled, extra and repeated columns, blank and short rows."""
    odds = draw(st.sampled_from([["B365H", "B365D", "B365A"], ["B365H", "B365D"], []]))
    columns = draw(st.permutations(
        ["Date", "HomeTeam", "AwayTeam", "FTR", *odds,
         *draw(st.lists(st.sampled_from(_EXTRA_COLUMNS), max_size=3, unique=True))]))
    columns += draw(st.lists(st.sampled_from(columns), max_size=2))  # the last copy is read
    last = {name: i for i, name in enumerate(columns)}
    dates = draw(st.lists(_date_cells(), min_size=1, max_size=4))  # shared, so dates repeat
    rows = [columns]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["game"] * 3 + ["blank", "short"]))
        home, away = draw(st.lists(st.sampled_from(_TEAMS), min_size=2, max_size=2, unique=True))
        cell = {"Date": draw(st.sampled_from(dates)), "HomeTeam": home, "AwayTeam": away,
                "FTR": draw(st.sampled_from(["H", "D", "A", " D "])),
                **{c: draw(st.sampled_from(_ODDS)) for c in ("B365H", "B365D", "B365A")}}
        cell.update([draw(st.sampled_from(_FAULTS))] if draw(st.integers(0, 9)) == 0 else [])
        row = [cell.get(name, "E0") if last[name] == i else "junk"
               for i, name in enumerate(columns)]
        rows.append({"game": row, "blank": [], "short": row[:draw(st.integers(1, 4))]}[kind])
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    return draw(st.sampled_from(["", "\ufeff"])) + buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(_season_files())
def test_parse_matches_agrees_with_the_dict_reader_oracle(text):
    try:
        want = oracles.parse_matches(text)
    except RowError as exc:
        with pytest.raises(RowError) as exc_info:
            parse_matches(text)
        assert exc_info.value.line == exc.line
    else:
        dataset = parse_matches(text)
        assert (dataset.games, dataset.team_names) == want


def test_parse_header_only():
    dataset = parse_matches(HEADER + "\n")
    assert dataset.n_games == 0 and dataset.n_teams == 0


def test_parse_keeps_one_string_per_team():
    dataset = parse_matches(f"{HEADER}\n12/08/2017,Arsenal,Spurs,H,,,\n"
                            f"19/08/2017, Spurs ,Arsenal,D,,,\n")
    first, second = dataset.games
    assert first.home_id is second.away_id == "Arsenal"
    assert first.away_id is second.home_id == "Spurs"


def test_parse_missing_odds_cells_yield_none():
    text = f"{HEADER}\n12/08/2017,A,B,H,,,\n13/08/2017,C,D,A,2.0,3.4,3.9\n"
    dataset = parse_matches(text)
    assert dataset.games[0].odds is None
    assert dataset.games[1].odds == (2.0, 3.4, 3.9)


def test_parse_odds_column_absent_entirely():
    dataset = parse_matches("Date,HomeTeam,AwayTeam,FTR\n12/08/2017,A,B,H\n")
    assert dataset.games[0].odds is None


def test_parse_short_row_treats_trailing_cells_as_missing():
    dataset = parse_matches(f"{HEADER}\n12/08/2017,A,B,H\n")
    assert dataset.games[0].odds is None


def test_parse_realistic_source_layout():
    # the public season files carry many extra columns around the ones we use
    text = (
        "Div,Date,HomeTeam,AwayTeam,FTHG,FTAG,FTR,HTHG,HTAG,HTR,Referee,"
        "B365H,B365D,B365A,BWH,BWD,BWA\n"
        "E0,11/08/2017,Arsenal,Leicester,4,3,H,2,2,D,M Dean,1.53,4.5,6.5,1.53,4.4,6.25\n"
        "E0,17/08/13,Arsenal,Aston Villa,1,3,A,1,1,D,A Taylor,1.4,5,9.5,1.4,4.75,8.25\n"
    )
    dataset = parse_matches(text)
    assert dataset.games[0].date == dt.date(2013, 8, 17)
    assert dataset.games[0].outcome == "A"
    assert dataset.games[1].odds == (1.53, 4.5, 6.5)


def test_parse_extra_columns_ignored():
    text = "Div,Date,HomeTeam,AwayTeam,FTHG,FTAG,FTR\nE0,12/08/2017,A,B,4,3,H\n"
    assert parse_matches(text).games[0].outcome == "H"


def test_parse_duplicated_column_last_one_wins():
    text = "Date,HomeTeam,AwayTeam,FTR,FTR\n12/08/2017,A,B,X,D\n"
    assert parse_matches(text).games[0].outcome == "D"


def test_parse_cells_past_the_header_are_ignored():
    text = "Date,HomeTeam,AwayTeam,FTR\n12/08/2017,A,B,H,4,3,extra\n"
    g = parse_matches(text).games[0]
    assert (g.home_id, g.away_id, g.outcome) == ("A", "B", "H")


def test_parse_odds_columns_before_date():
    text = "B365H,B365D,B365A,Date,HomeTeam,AwayTeam,FTR\n1.53,4.5,6.5,12/08/2017,A,B,H\n"
    g = parse_matches(text).games[0]
    assert g.odds == (1.53, 4.5, 6.5)
    assert g.date == dt.date(2017, 8, 12)


def test_parse_row_error_after_a_blank_line_names_its_own_line():
    text = "Date,HomeTeam,AwayTeam,FTR\n12/08/2017,A,B,H\n\n,,,\n13/08/2017,C,D,X\n"
    with pytest.raises(RowError, match="line 5") as exc_info:
        parse_matches(text)
    assert exc_info.value.line == 5


def test_parse_drops_a_leading_byte_order_mark():
    text = "Date,HomeTeam,AwayTeam,FTR\n12/08/2017,A,B,H\n"
    assert parse_matches("\ufeff" + text).games == parse_matches(text).games
    with pytest.raises(RowError, match="line 3") as exc_info:
        parse_matches("\ufeff" + text + "13/08/2017,C,D,X\n")
    assert exc_info.value.line == 3
    # the mark is stripped before csv.reader reads the text, so a quoted first cell loses it too
    quoted = '"Date",HomeTeam,AwayTeam,FTR\n12/08/2017,A,B,H\n'
    assert parse_matches("\ufeff" + quoted).games == parse_matches(text).games


def test_parse_missing_required_column_is_schema_error():
    with pytest.raises(SchemaError, match="FTR"):
        parse_matches("Date,HomeTeam,AwayTeam\n12/08/2017,A,B\n")


def test_parse_bad_ftr_is_row_error_with_line():
    text = f"{HEADER}\n12/08/2017,A,B,H,,,\n13/08/2017,C,D,X,,,\n"
    with pytest.raises(RowError, match="line 3") as exc_info:
        parse_matches(text)
    assert exc_info.value.line == 3


def test_parse_empty_team_cell_is_row_error_with_line():
    # only a fully blank row is skipped; an empty or blank team is no team
    text = f"{HEADER}\n12/08/2017,A,B,H,,,\n13/08/2017,C,  ,A,,,\n"
    with pytest.raises(RowError, match="line 3: away_id") as exc_info:
        parse_matches(text)
    assert exc_info.value.line == 3


def test_load_undecodable_byte_is_row_error_with_line(tmp_path):
    # latin-1 "Cafe" with an acute e: replacing the byte would merge it with
    # any other team whose name differs only there
    path = tmp_path / "latin1.csv"
    path.write_bytes(
        b"Date,HomeTeam,AwayTeam,FTR\n12/08/2017,Caf\xc3\xa8,B,H\n13/08/2017,Caf\xe9,B,H\n"
    )
    with pytest.raises(RowError, match="line 3") as exc_info:
        load_matches(path)
    assert exc_info.value.line == 3


def test_parse_bad_date_is_row_error():
    with pytest.raises(RowError, match="date"):
        parse_matches("Date,HomeTeam,AwayTeam,FTR\n2017-08-12,A,B,H\n")
    # the line is the file's, past a quoted cell that spans two
    text = 'Date,HomeTeam,AwayTeam,FTR\n12/08/2017,"A\nA",B,H\n31/02/2017,C,D,A\n'
    with pytest.raises(RowError) as exc_info:
        parse_matches(text)
    assert str(exc_info.value) == "line 4: unparseable date '31/02/2017'"
    assert exc_info.value.line == 4


def test_parse_bad_odds_are_row_errors():
    with pytest.raises(RowError, match="exceed 1"):
        parse_matches(f"{HEADER}\n12/08/2017,A,B,H,1.0,4.5,6.5\n")
    with pytest.raises(RowError, match="odds"):
        parse_matches(f"{HEADER}\n12/08/2017,A,B,H,x,4.5,6.5\n")
    # float() reads both, a decimal odds cell neither: only ASCII, no "_"
    for cell in ("2_10", "\u0663.5"):
        with pytest.raises(RowError) as exc_info:
            parse_matches(f"{HEADER}\n12/08/2017,A,B,H,2.0,3.4,3.9\n13/08/2017,B,A,D,{cell},3.4,3.5\n")
        assert str(exc_info.value) == f"line 3: unparseable odds {[cell, '3.4', '3.5']}"



@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_odds_are_rejected_where_they_are_read(column, bad):
    cells = ["1.53", "4.5", "6.5"]
    cells[column] = bad
    text = f"{HEADER}\n12/08/2017,A,B,H,2.0,3.4,3.9\n13/08/2017,B,A,D,{','.join(cells)}\n"
    with pytest.raises(RowError, match="line 3: decimal odds") as exc_info:
        parse_matches(text)
    assert exc_info.value.line == 3
    with pytest.raises(ValueError, match="odds"):
        game("A", "B", "H", odds=tuple(float(c) for c in cells))

def test_parse_duplicate_fixture_same_date_accepted():
    text = "Date,HomeTeam,AwayTeam,FTR\n12/08/2017,A,B,H\n12/08/2017,A,B,D\n"
    dataset = parse_matches(text)
    assert dataset.n_games == 2
    assert [g.outcome for g in dataset.games] == ["H", "D"]


def test_parse_sorts_by_date_keeping_intraday_order():
    text = (
        "Date,HomeTeam,AwayTeam,FTR\n"
        "14/08/2017,E,F,A\n"
        "12/08/2017,A,B,H\n"
        "12/08/2017,C,D,D\n"
    )
    dataset = parse_matches(text)
    assert [g.home_id for g in dataset.games] == ["A", "C", "E"]


def test_parse_rfc4180_quoting():
    text = 'Date,HomeTeam,AwayTeam,FTR\n12/08/2017,"Team, United","B ""b""",H\n'
    g = parse_matches(text).games[0]
    assert g.home_id == "Team, United"
    assert g.away_id == 'B "b"'


def test_roundtrip_preserves_every_field():
    games = [
        game("Alpha", "Beta", "H", 0, odds=(1.53, 4.5, 6.5)),
        game("Beta", "Gamma", "D", 1),
        game("Gamma", "Alpha", "A", 4, odds=(3.1415926535, 3.0, 2.25)),
    ]
    first = parse_matches(serialize_matches(Dataset(games=games)))
    second = parse_matches(serialize_matches(first))
    assert first.games == games
    assert second.games == first.games
    assert second.team_index == first.team_index


@pytest.mark.parametrize("year", [50, 999, 1999])
def test_roundtrip_keeps_years_below_1000(year):
    games = [GameRecord(dt.date(year, 3, 4), "A", "B", "H")]
    text = serialize_matches(Dataset(games=games))
    assert text.splitlines()[1] == f"04/03/{year:04d},A,B,H"
    assert parse_matches(text).games == games


def test_simulated_season_flows_through_the_parser():
    spec = SimSpec(
        theta_true={f"T{i:02d}": (9.5 - i) * 40.0 for i in range(20)},
        model=ModelParams(eta=0.3),
        seed=5,
    )
    season = generate_season(spec)
    parsed = parse_matches(serialize_matches(season))
    assert parsed.n_teams == 20
    assert parsed.n_games == 380
    assert parsed.games == season.games
    stats = empirical_stats(parsed.games)
    assert stats.p_home_bar + stats.p_away_bar + stats.p_draw_bar == pytest.approx(1.0)


def test_game_record_validation():
    with pytest.raises(ValueError, match="differ"):
        game("A", "A", "H")
    with pytest.raises(ValueError, match="^home_id"):
        game("", "B", "H")
    with pytest.raises(ValueError, match="^away_id"):
        game("A", "", "H")
    with pytest.raises(ValueError, match="outcome"):
        game("A", "B", "W")
    with pytest.raises(ValueError, match="odds"):
        game("A", "B", "H", odds=(0.9, 2.0, 3.0))


def test_game_record_is_a_slotted_frozen_value():
    record = game("A", "B", "H", 3, odds=(1.5, 4.0, 6.0))
    assert not hasattr(record, "__dict__")
    for same in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
                 dataclasses.replace(record)):
        assert same == record and hash(same) == hash(record)
    assert dataclasses.replace(record, odds=None) == game("A", "B", "H", 3)
    assert len({record, game("A", "B", "H", 3, odds=(1.5, 4.0, 6.0)), game("B", "A", "H", 3)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.outcome = "D"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del record.odds
    # CPython's slotted frozen dataclasses raise TypeError for a name that is no field
    with pytest.raises((AttributeError, TypeError)):
        record.extra = "D"
    assert record == game("A", "B", "H", 3, odds=(1.5, 4.0, 6.0))
    # replace runs the same checks, with the same messages
    for change, message in [
        ({"away_id": "A"}, "home and away must differ, got 'A' twice"),
        ({"home_id": ""}, "home_id must be a non-empty team name"),
        ({"away_id": ""}, "away_id must be a non-empty team name"),
        ({"outcome": "W"}, "outcome must be one of ('H', 'D', 'A'), got 'W'"),
        ({"odds": (0.9, 2.0, 3.0)},
         "decimal odds must all be finite and exceed 1, got (0.9, 2.0, 3.0)"),
    ]:
        with pytest.raises(ValueError) as exc_info:
            dataclasses.replace(record, **change)
        assert str(exc_info.value) == message


# ---------------------------------------------------------------------------
# odds
# ---------------------------------------------------------------------------


def test_odds_to_probs_fair_book():
    probs = odds_to_probs(2.0, 4.0, 4.0)
    assert (probs.p_home, probs.p_draw, probs.p_away) == (0.5, 0.25, 0.25)


def test_odds_to_probs_removes_the_margin():
    probs = odds_to_probs(1.5, 4.5, 6.0)
    assert probs.p_home == pytest.approx(0.63158, abs=5e-6)
    assert probs.p_draw == pytest.approx(0.21053, abs=5e-6)
    assert probs.p_away == pytest.approx(0.15789, abs=5e-6)
    assert probs.p_home + probs.p_draw + probs.p_away == pytest.approx(1.0, abs=1e-12)


def test_odds_to_probs_symmetric_book():
    probs = odds_to_probs(3.0, 3.0, 3.0)
    assert probs.p_home == pytest.approx(1 / 3, abs=1e-15)


@pytest.mark.parametrize("odds", [(1.0, 3.0, 3.0), (2.0, 0.5, 3.0), (2.0, 3.0, -4.0),
                                  (math.inf, math.inf, math.inf), (math.inf, 2.0, 3.0)])
def test_odds_to_probs_rejects_degenerate_odds(odds):
    # GameRecord's check and words; infinite odds would divide 0 by 0 or price a side at 0
    message = f"^{re.escape(f'decimal odds must all be finite and exceed 1, got {odds}')}$"
    with pytest.raises(ValueError, match=message):
        odds_to_probs(*odds)
    with pytest.raises(ValueError, match=message):
        game("A", "B", "H", odds=odds)


@given(
    o=st.tuples(st.floats(1.01, 50), st.floats(1.01, 50), st.floats(1.01, 50)),
    c=st.floats(1.0, 20.0),
)
def test_odds_to_probs_invariant_to_common_scaling(o, c):
    base = odds_to_probs(*o)
    scaled = odds_to_probs(o[0] * c, o[1] * c, o[2] * c)
    assert scaled.p_home == pytest.approx(base.p_home, rel=1e-12, abs=1e-15)
    assert scaled.p_draw == pytest.approx(base.p_draw, rel=1e-12, abs=1e-15)

