"""Match-result ingestion in the public football-data.co.uk CSV layout.

Required columns: Date, HomeTeam, AwayTeam, FTR (H/D/A).  The Bet365 odds
columns B365H, B365D, B365A are picked up when present; everything else is
ignored.  Dates are day first, d/m/y: 1- or 2-digit day and month, 2- or
4-digit year (both occur in the source files), 2-digit years 69-99 read as
19xx and 00-68 as 20xx: a cell's day and month are zero-padded, a 2-digit
year gets its century, and ``date.fromisoformat`` reads the YYYY-MM-DD
result, ASCII digits only.  Odds are ASCII decimals.  ``rate --trajectory``
writes ``game_index,team,rating`` rows, one per team per game, ratings to 6
significant digits, team names quoted only where CSV needs it.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .errors import RowError, SchemaError
from .models import OutcomeProbs

REQUIRED_COLUMNS = ("Date", "HomeTeam", "AwayTeam", "FTR")
ODDS_COLUMNS = ("B365H", "B365D", "B365A")
OUTCOMES = ("H", "D", "A")


@dataclass(frozen=True, slots=True, init=False)
class GameRecord:
    """One fixture: identities, categorical outcome, optional decimal odds.

    ``odds`` is (o_H, o_D, o_A) in the bookmaker column order, or None when
    the source row carries no odds.
    """

    date: dt.date
    home_id: str
    away_id: str
    outcome: str
    odds: tuple[float, float, float] | None = None

    def __init__(self, date, home_id, away_id, outcome, odds=None):
        # The generated frozen __init__ sets each field by object.__setattr__,
        # which looks the slot up again; a parse builds one record per row, so
        # this one sets the slots' descriptors directly.  replace() calls it
        # too, so every record still passes __post_init__'s checks.
        _set_date(self, date)
        _set_home_id(self, home_id)
        _set_away_id(self, away_id)
        _set_outcome(self, outcome)
        _set_odds(self, odds)
        self.__post_init__()

    def __post_init__(self):
        if not self.home_id:
            raise ValueError("home_id must be a non-empty team name")
        if not self.away_id:
            raise ValueError("away_id must be a non-empty team name")
        if self.home_id == self.away_id:
            raise ValueError(f"home and away must differ, got {self.home_id!r} twice")
        if self.outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}, got {self.outcome!r}")
        if self.odds is not None:
            _check_odds(self.odds)


def _check_odds(odds: tuple[float, float, float]) -> None:
    if not all(math.isfinite(o) and o > 1.0 for o in odds):
        raise ValueError(f"decimal odds must all be finite and exceed 1, got {odds}")


_set_date, _set_home_id, _set_away_id, _set_outcome, _set_odds = (
    vars(GameRecord)[name].__set__ for name in GameRecord.__slots__)


@dataclass
class Dataset:
    """Chronologically ordered games plus a dense team index."""

    games: list[GameRecord]
    team_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.team_index:
            for g in self.games:
                for name in (g.home_id, g.away_id):
                    self.team_index.setdefault(name, len(self.team_index))

    @property
    def team_names(self) -> list[str]:
        return list(self.team_index)

    @property
    def n_games(self) -> int:
        return len(self.games)

    @property
    def n_teams(self) -> int:
        return len(self.team_index)


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------


def _parse_date(text: str) -> dt.date:
    try:
        d, m, y = text.split("/")
        if len(y) == 2:
            y = ("19" if y >= "69" else "20") + y  # strptime's %y pivot
        if 0 < len(d) <= 2 and 0 < len(m) <= 2 and len(y) == 4:
            # fromisoformat reads ASCII digits only and checks that the day exists
            return dt.date.fromisoformat(f"{y}-{m.zfill(2)}-{d.zfill(2)}")
    except ValueError:
        pass  # not three parts, not digits or no such date
    raise ValueError(f"unparseable date {text!r}")


def _parse_odds(cells: list[str]) -> tuple[float, float, float] | None:
    if any(c == "" for c in cells):
        return None
    try:  # float() would also read "2_10" and non-ASCII digits
        if not all(c.isascii() and "_" not in c for c in cells):
            raise ValueError
        return tuple(float(c) for c in cells)  # GameRecord checks the values
    except ValueError:
        raise ValueError(f"unparseable odds {cells}") from None


def parse_matches(text: str) -> Dataset:
    """Parse football-data CSV text into a Dataset.

    Games are sorted by date, preserving file order within a date (the
    files themselves do not record kick-off order).  Duplicate fixtures on
    the same date are accepted; cup replays exist.  As with DictReader, the
    last of a repeated column wins and a row's cells past the header are
    ignored, missing ones empty.
    """
    # a spreadsheet's UTF-8 byte-order mark would hide the first column's name
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    header = next(reader, [])
    column = {name: i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in column]
    if missing:
        raise SchemaError(f"missing required column(s): {', '.join(missing)}")
    date_i, home_i, away_i, ftr_i = (column[c] for c in REQUIRED_COLUMNS)
    odds_i = [column[c] for c in ODDS_COLUMNS] if all(c in column for c in ODDS_COLUMNS) else []
    width = max(column.values()) + 1

    games: list[GameRecord] = []
    names: dict[str, str] = {}  # one string per team, shared by all of its records
    for row in reader:
        if len(row) < width:
            row += [""] * (width - len(row))
        date_cell = row[date_i].strip()
        home = row[home_i].strip()
        home = names.setdefault(home, home)
        away = row[away_i].strip()
        away = names.setdefault(away, away)
        outcome = row[ftr_i].strip()
        if not (date_cell or home or away or outcome):
            continue  # blank line
        try:  # the line is read only for a row at fault
            if outcome not in OUTCOMES:
                raise ValueError(f"FTR must be one of {OUTCOMES}, got {outcome!r}")
            date = _parse_date(date_cell)
            odds = _parse_odds([row[i].strip() for i in odds_i]) if odds_i else None
            games.append(GameRecord(date, home, away, outcome, odds))
        except ValueError as exc:
            raise RowError(str(exc), reader.line_num) from None

    games.sort(key=attrgetter("date"))  # stable: file order kept within a date
    return Dataset(games=games)


def load_matches(path: str | Path) -> Dataset:
    """Read and parse a UTF-8 football-data CSV file.

    Undecodable bytes are a RowError naming their line, never replaced:
    replacement would merge distinct team names into one.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise RowError(f"invalid UTF-8 byte {data[exc.start:exc.end]!r}", line) from None
    return parse_matches(text)


def serialize_matches(dataset: Dataset) -> str:
    """Write a Dataset back to the same CSV layout (cache format).

    Dates come out day-first with 4-digit years; odds columns are emitted
    only if at least one game carries odds.  Re-parsing the output yields
    records equal to the input.
    """
    with_odds = any(g.odds is not None for g in dataset.games)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(REQUIRED_COLUMNS) + (list(ODDS_COLUMNS) if with_odds else [])
    writer.writerow(header)
    for g in dataset.games:
        d = g.date
        row = [f"{d.day:02d}/{d.month:02d}/{d.year:04d}", g.home_id, g.away_id, g.outcome]
        if with_odds:
            row += [repr(o) for o in g.odds] if g.odds is not None else ["", "", ""]
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def odds_to_probs(o_home: float, o_draw: float, o_away: float) -> OutcomeProbs:
    """Bookmaker decimal odds -> probabilities, margin removed.

    Reciprocal odds sum above 1 by the bookmaker's margin; normalizing the
    reciprocals removes it.  Odds are checked as ``GameRecord`` checks them.
    """
    _check_odds((o_home, o_draw, o_away))
    w_home, w_draw, w_away = 1.0 / o_home, 1.0 / o_draw, 1.0 / o_away
    total = w_home + w_draw + w_away
    return OutcomeProbs(p_home=w_home / total, p_away=w_away / total, p_draw=w_draw / total)
