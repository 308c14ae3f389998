"""Configuration-driven scenario runner: verification suites, figure-data
regeneration, parameter sweeps, machine-readable reports.

Reports are deterministic functions of (config, seed): no timestamps, cases
sorted by key, floats serialized with full round-trip precision. Every CSV row
can be recomputed from its recorded inputs with library calls alone. The figure
runners record each row's cases from that row's own values: figure2 checks its
columns against each other, while figure3, figure4 and sweep compare a value
with itself until they get independent checks (ROADMAP item 8).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import chain, compress
from pathlib import Path
from sys import float_info
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from . import closedform as cf
from . import dynamics as dyn
from . import fock
from . import gibbs
from .errors import BudgetExceededError, ConfigError, UndefinedRatioError

MAX_DENOMINATOR = 64
ENV_MAX_DIM = "QFLUX_MAX_DIM"
#: the chi range the closed forms are written for; chi_grid must lie in it
CHI_RANGE = (1e-6, 50.0)
#: the most bytes a sampled U's padded block layout, 16 n_blocks s_max^2, may take
MAX_LAYOUT_BYTES = 1 << 30


def _max_dim_cap() -> int:
    raw = os.environ.get(ENV_MAX_DIM)
    if raw is None:
        return 4096
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{ENV_MAX_DIM} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise ConfigError(f"{ENV_MAX_DIM} must be >= 2, got {cap}")
    return cap


def _parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(f"not a rational: {value!r}")
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ConfigError(f"not a rational: {value!r}") from exc
    if frac <= 0:
        raise ConfigError(f"frequencies must be positive, got {frac}")
    if frac.denominator > MAX_DENOMINATOR:
        raise ConfigError(
            f"rational {frac} has denominator {frac.denominator} > {MAX_DENOMINATOR}"
        )
    return frac


def _check_layout(blocks: Sequence[np.ndarray]) -> None:
    """ConfigError, before any sampling, when a unitary on ``blocks`` would
    pad them past ``MAX_LAYOUT_BYTES``."""
    size = 16 * len(blocks) * max(idx.size for idx in blocks) ** 2
    if size > MAX_LAYOUT_BYTES:
        raise ConfigError(f"the unitary's padded block layout would take {size / 2 ** 30:.1f} "
                          f"GiB, past the {MAX_LAYOUT_BYTES / 2 ** 30:g} GiB cap")


def _is_integer(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite JSON number; False for nan, inf and ints beyond the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= float_info.max)


def _grid(name: str, values, is_entry, convert) -> Optional[tuple]:
    """None (the suite's default), or a nonempty array (list or tuple) of
    distinct entries that pass ``is_entry``, as a tuple: an empty one runs no
    case, and a repeated entry would record its cases twice under one key."""
    if values is None:
        return None
    if not isinstance(values, (list, tuple)) or not all(map(is_entry, values)):
        raise ConfigError(f"{name} must be an array of "
                          f"{'integers' if convert is int else 'finite numbers'}")
    if not values:
        raise ConfigError(f"{name} must not be empty; omit it for the suite's default")
    grid = tuple(convert(v) for v in values)
    if len(set(grid)) != len(grid):
        raise ConfigError(f"{name} must not repeat an entry")
    return grid


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified experiment."""

    kind: str
    seed: int = 2024
    omega_i: Fraction = Fraction(1)
    omega_f: Fraction = Fraction(3, 2)
    chi_grid: Optional[tuple[float, ...]] = None   # None: the suite's default
    p_grid: Optional[tuple[float, ...]] = None
    n_grid: Optional[tuple[int, ...]] = None
    w_values: Optional[tuple[float, ...]] = None
    cases: int = 200
    system_cutoff: int = 8
    ladder_dim: int = 24
    tolerance: Optional[float] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.kind not in SUITES:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; "
                              f"expected one of {tuple(SUITES)}")
        object.__setattr__(self, "omega_i", _parse_rational(self.omega_i))
        object.__setattr__(self, "omega_f", _parse_rational(self.omega_f))
        for name in ("chi_grid", "p_grid", "w_values"):
            object.__setattr__(self, name,
                               _grid(name, getattr(self, name), _is_finite, float))
        object.__setattr__(self, "n_grid", _grid("n_grid", self.n_grid, _is_integer, int))
        for name in ("seed", "cases", "system_cutoff", "ladder_dim"):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.tolerance is not None and not (_is_finite(self.tolerance)
                                               and self.tolerance >= 0):
            raise ConfigError(f"tolerance must be null or a finite number >= 0, "
                              f"got {self.tolerance!r}")
        if self.cases < 1:
            raise ConfigError("cases must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        cap = _max_dim_cap()
        if self.system_cutoff > cap or self.ladder_dim > cap:
            raise ConfigError(
                f"cutoffs ({self.system_cutoff}, {self.ladder_dim}) exceed "
                f"{ENV_MAX_DIM}={cap}"
            )
        if self.system_cutoff < 2 or self.ladder_dim < 2:
            raise ConfigError("cutoffs must be >= 2")
        if any(not CHI_RANGE[0] <= c <= CHI_RANGE[1] for c in self.chi_grid or ()):
            raise ConfigError(f"chi grid entries must lie in {list(CHI_RANGE)}")
        if any(not 0 <= p <= 1 for p in self.p_grid or ()):
            raise ConfigError("p grid entries must lie in [0, 1]")
        if any(n < 1 for n in self.n_grid or ()):
            raise ConfigError("n grid entries must be >= 1")

    @classmethod
    def from_mapping(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        if "kind" not in data:
            raise ConfigError("config is missing required field 'kind'")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def effective_tolerance(self) -> float:
        return self.tolerance if self.tolerance is not None else SUITES[self.kind].tolerance

    def provenance(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "omega_i": str(self.omega_i),
            "omega_f": str(self.omega_f),
            "system_cutoff": self.system_cutoff,
            "ladder_dim": self.ladder_dim,
            "tolerance": self.effective_tolerance(),
            "tool_version": __version__,
        }


#: a case's fields, in the order a report writes them
_FIELDS = ("abs_dev", "closed_form", "inputs", "key", "passed", "rel_dev", "simulated")
#: the fields ``_record`` computes, held as arrays: ``passed`` bool, the others float64
_NUMBERS = ("abs_dev", "closed_form", "passed", "rel_dev", "simulated")


@dataclass
class VerificationReport:
    """A suite's cases, held as columns: ``columns`` maps each name in
    ``_FIELDS`` to a list that each ``_record`` call extends by its keys, by
    an array for each name in ``_NUMBERS`` and, in ``inputs``, by one table
    ``(start, values)``: the record index of its first case and an array per
    input name (``_input_column``). ``finalize`` joins every other field into
    one array in key order and sets ``order``, each case's record index in
    key order. No case has a dict or float object of its own: ``to_dict``,
    ``failing_cases`` and the JSON writer make them a chunk at a time."""

    kind: str
    tolerance: float
    provenance: dict
    summary: dict = field(default_factory=dict)
    columns: dict = field(default_factory=lambda: {name: [] for name in _FIELDS})
    order: np.ndarray = field(init=False, default_factory=lambda: np.empty(0, dtype=np.intp))

    def finalize(self) -> "VerificationReport":
        """Join the columns in a stable sort by key and sum them up in
        ``summary``; once, after the last ``_record``."""
        columns, keys = self.columns, np.array(self.columns["key"], dtype=object)
        self.order = np.argsort(keys, kind="stable")
        columns["key"] = keys[self.order]
        for name in _NUMBERS:
            empty = np.empty(0, dtype=bool if name == "passed" else float)
            columns[name] = np.concatenate((empty, *columns[name]))[self.order]
        count, passed = len(keys), int(np.count_nonzero(columns["passed"]))
        self.summary = {"cases": count, "passed": passed, "failed": count - passed,
                        "max_abs_dev": float(max(columns["abs_dev"], default=0.0)),
                        "max_rel_dev": float(max(columns["rel_dev"], default=0.0)),
                        "all_passed": count > 0 and passed == count}
        return self

    @property
    def all_passed(self) -> bool:
        return bool(self.summary.get("all_passed", False))

    def _cases(self, at: np.ndarray) -> list[dict]:
        """The cases at positions ``at`` (in key order) as fresh dicts, each
        with its own ``inputs``, made a chunk at a time."""
        cases = []
        for start in range(0, at.size, _CASE_CHUNK):
            chunk = at[start:start + _CASE_CHUNK]
            fields = [_per_table(self.columns["inputs"], self.order[chunk], _inputs_dicts)
                      if name == "inputs" else self.columns[name][chunk].tolist()
                      for name in _FIELDS]
            cases += (dict(zip(_FIELDS, case)) for case in zip(*fields))
        return cases

    def failing_cases(self) -> list[dict]:
        """The cases that did not pass, in order, as ``to_dict`` gives them."""
        return self._cases(np.flatnonzero(~self.columns["passed"]))

    def to_dict(self) -> dict:
        """The report as plain data; every case a fresh dict with its own
        ``inputs``."""
        return {"kind": self.kind, "tolerance": self.tolerance, "provenance": self.provenance,
                "summary": self.summary, "cases": self._cases(np.arange(self.order.size))}

    def _json_chunks(self) -> Iterator[str]:
        """``to_json()`` in pieces, ``_CASE_CHUNK`` cases each, once every case's
        ``inputs`` has been checked: a TypeError, naming the first case in key
        order whose ``inputs`` hold anything but a string, number, boolean or
        None, comes before the first piece."""
        bad = [start + row for start, values in self.columns["inputs"]
               for value in values.values() if value.dtype == object
               for row, entry in enumerate(value.tolist()) if not isinstance(entry, _SCALARS)]
        if bad:
            first = np.flatnonzero(np.isin(self.order, bad))[0]
            raise TypeError(f"case {self.columns['key'][first]!r}: inputs must hold only "
                            "strings, numbers, booleans and None")
        head = json.dumps({"kind": self.kind, "tolerance": self.tolerance, "provenance":
                           self.provenance, "summary": self.summary}, indent=2, sort_keys=True)
        starts = range(0, self.order.size, _CASE_CHUNK)
        return chain(['{\n  "cases": [' + ("\n" if starts else "")],
                     (("" if start == 0 else ",\n")
                      + _cases_json(self, slice(start, start + _CASE_CHUNK)) for start in starts),
                     [("\n  ]" if starts else "]") + ",\n" + head[2:]])

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, byte for
        byte, with the cases written column by column into a fixed layout:
        json's indent encoder runs in pure Python, the flat one in C.
        TypeError for an ``inputs`` value that is not a string, number,
        boolean or None."""
        return "".join(self._json_chunks())

    def write(self, path) -> Path:
        """Stream ``to_json()`` and a newline to ``path`` a chunk of cases at a
        time, so the full text is never held; the file is opened only once
        every case's ``inputs`` has passed ``to_json``'s check."""
        path = Path(path)
        chunks = self._json_chunks()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.writelines(chunks)
            out.write("\n")
        return path


#: cases formatted per chunk: a report is written, and a CSV too, one chunk's
#: text at a time
_CASE_CHUNK = 1 << 8
#: json's C encoder, its item separator a newline: json escapes every newline
#: inside a string, so a list of scalars encodes to one line per item
_VALUES = json.JSONEncoder(separators=("\n", ": "))
_SCALARS = (str, int, float, type(None))
#: one case as ``json.dumps(..., indent=2)`` writes it inside a report, its
#: fields in ``_FIELDS`` order
_CASE_JSON = ('    {\n      "abs_dev": %s,\n      "closed_form": %s,\n      "inputs": %s,\n'
              '      "key": %s,\n      "passed": %s,\n      "rel_dev": %s,\n'
              '      "simulated": %s\n    }')


def _json_lines(values: np.ndarray) -> list[str]:
    """Each entry of a nonempty ``values`` as json writes it, from one C call."""
    return _VALUES.encode(values.tolist())[1:-1].split("\n")


def _per_table(tables: list, idx: np.ndarray, read: Callable) -> list:
    """``read(values, rows)`` of every table holding one of the cases ``idx``
    (record indices), one entry per case, in the order of ``idx``."""
    starts = np.array([start for start, _ in tables])
    which = np.searchsorted(starts, idx, side="right") - 1
    out = [None] * idx.size
    for table in np.unique(which).tolist():
        (start, values), at = tables[table], np.flatnonzero(which == table)
        for i, entry in zip(at.tolist(), read(values, idx[at] - start)):
            out[i] = entry
    return out


def _inputs_dicts(values: dict, rows: np.ndarray) -> list[dict]:
    """The ``inputs`` of a table's ``rows``, a fresh dict each."""
    columns = [value[rows].tolist() for value in values.values()]
    return ([dict(zip(values, row)) for row in zip(*columns)] if columns
            else [{} for _ in range(rows.size)])


def _inputs_json(values: dict, rows: np.ndarray) -> list[str]:
    """The ``inputs`` of a table's ``rows`` as json lays each out inside its
    case: the names written into one template, each column encoded at once."""
    if not values:
        return ["{}"] * rows.size
    names = sorted(values)
    template = "{\n        " + ",\n        ".join(
        json.encoder.encode_basestring_ascii(name).replace("%", "%%") + ": %s"
        for name in names) + "\n      }"
    return list(map(template.__mod__, zip(*(_json_lines(values[name][rows]) for name in names))))


def _cases_json(report: VerificationReport, at: slice) -> str:
    """The cases at ``at`` (a nonempty run of positions in key order) as they
    sit in a report's case list, each field encoded at once for all of them,
    and once for all fields of the same bits (not ``==``: -0.0 == 0.0 and
    nan != nan)."""
    columns, texts = report.columns, {}

    def encode(values):
        bits = (values.dtype.char, values.tobytes())
        if bits not in texts:
            texts[bits] = _json_lines(values)
        return texts[bits]

    fields = [_per_table(columns["inputs"], report.order[at], _inputs_json) if name == "inputs"
              else encode(columns[name][at]) for name in _FIELDS]
    return ",\n".join(map(_CASE_JSON.__mod__, zip(*fields)))


def _input_column(value, count: int) -> np.ndarray:
    """A runner's input as a report holds it: a column (a list or tuple) as
    float64 if every entry is a float, else as objects; anything else is a
    constant, held once and read as a column of ``count`` equal entries."""
    if not isinstance(value, (list, tuple)):
        return np.broadcast_to(_input_column([value], 1), count)
    kind = float if set(map(type, value)) == {float} else object
    return np.fromiter(value, dtype=kind, count=len(value))


def _record(report: VerificationReport, keys: Sequence[str], inputs: dict,
            simulated: Sequence[float], closed_form: Sequence[float],
            tolerance: Optional[float | Sequence[float]] = None,
            relative: bool = True) -> None:
    """Append one case per key, ``simulated`` against ``closed_form``:
    abs_dev = |s - c|, rel_dev = abs_dev / |c| (abs_dev unless |c| > 0), passed
    if rel_dev (abs_dev unless ``relative``) <= ``tolerance``, one value or
    one per case (None: the report's). numpy's elementwise arithmetic is
    IEEE's: each value has the bits Python floats give, and warns of none.
    ``inputs`` gives each name once, with a column (one entry per key) or a
    constant that every case shares."""
    sim, closed = np.array(simulated, dtype=float), np.array(closed_form, dtype=float)
    with np.errstate(all="ignore"):
        abs_dev = np.abs(sim - closed)
        scale = np.abs(closed)
        rel_dev = np.divide(abs_dev, scale, out=abs_dev.copy(), where=scale > 0)
        passed = (rel_dev if relative else abs_dev) <= (
            report.tolerance if tolerance is None else tolerance)
    columns = report.columns
    columns["inputs"].append((len(columns["key"]), {
        name: _input_column(value, len(keys)) for name, value in inputs.items()}))
    columns["key"] += keys
    for name, column in zip(_NUMBERS, (abs_dev, closed, passed, rel_dev, sim)):
        columns[name].append(column)


def _transpose(rows: Sequence[Sequence], width: int) -> list[list]:
    """Rows of ``width`` values as one list per place, empty for no rows."""
    return [[row[i] for row in rows] for i in range(width)]


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

#: a number in a CSV cell or a case key, as ``format(float(v), ".17g")``
#: writes it; a C method, so mapping it over a column runs no Python frame
_fmt = "%.17g".__mod__


def write_csv(path, header: Sequence[str], columns: Sequence[Sequence[float]]) -> Path:
    """``header`` and the rows of ``columns``, one sequence per header name,
    each cell as ``_fmt`` writes it, a None cell left empty; each column is
    formatted in one pass, ``_CASE_CHUNK`` rows at a time, and written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CASE_CHUNK):
            cells = [column[start:start + _CASE_CHUNK] for column in columns]
            cells = [map(_fmt, part) if None not in part
                     else ["" if v is None else _fmt(v) for v in part] for part in cells]
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def read_csv(path) -> tuple[list[str], list[list[Optional[float]]]]:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[None if cell == "" else float(cell) for cell in line.split(",")]
            for line in lines[1:]]
    return header, rows


def _write_gnuplot(path, csv_name: str, title: str, columns: Sequence[str]) -> Path:
    path = Path(path)
    using = "\n".join(
        f'    "{csv_name}" using 1:{i + 2} with lines title "{c}", \\'
        for i, c in enumerate(columns)
    ).rstrip(", \\")
    path.write_text(
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set logscale x\n"
        f"set title '{title}'\n"
        f"plot \\\n{using}\n"
    )
    return path


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

_FT_FREQUENCIES = (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2),
                   Fraction(5, 2), Fraction(3))
#: the (omega_i, omega_f) pairs the photon crooks suites scan
_CROOKS_FREQUENCIES = tuple((Fraction(1), Fraction(r)) for r in ("3/2", "2", "5"))


def _random_system_operator(rng: np.random.Generator, dim: int, family: int) -> np.ndarray:
    """One member of the measurement-operator zoo on a dim-level system."""
    if family == 0:
        return np.eye(dim, dtype=complex)
    if family == 1:
        return np.diag(np.arange(dim, dtype=complex))                  # N
    if family == 2:
        return np.diag(np.arange(1, dim + 1, dtype=complex))           # N + 1
    if family == 3:
        proj = np.zeros((dim, dim), dtype=complex)
        k = int(rng.integers(dim))
        proj[k, k] = 1.0
        return proj
    if family == 4:
        return np.diag(rng.uniform(0.05, 1.0, size=dim).astype(complex))
    if family == 5:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        return m / np.linalg.eigvalsh(m).max()
    # binomial projector: coherent content in the number basis
    n = int(rng.integers(1, dim))
    p = float(rng.uniform(0.1, 0.9))
    st = fock.binomial_state(n, p, fock.HilbertSpace(dim, "sys"))
    return st.projector().matrix


def _random_ladder_operator(rng: np.random.Generator, ladder: int, family: int):
    """Measurement operator on the bare battery ladder: a ``PureState`` for
    the rank-one families 0-2 (a level, a binomial and a coherent state),
    a positive diagonal matrix for family 3."""
    space = fock.HilbertSpace(ladder, "ladder")
    if family == 0:
        return fock.PureState(space, np.arange(ladder) == int(rng.integers(ladder)))
    if family == 1:
        n = int(rng.integers(1, min(ladder, 10)))
        p = float(rng.uniform(0.1, 0.9))
        return fock.binomial_state(n, p, space)
    if family == 2:
        alpha = float(rng.uniform(0.3, 1.2))
        return fock.coherent_state(alpha, space, tail_tol=0.5)
    return np.diag(rng.uniform(0.05, 1.0, size=ladder).astype(complex))


def _on_sector(battery: dyn.SwitchedBattery, ladder, sector: int):
    """A ladder state (``PureState``) or operator (matrix) on one switch
    sector of ``battery``, at the battery indices b = 2 w + sector."""
    if isinstance(ladder, fock.PureState):
        return fock.PureState(battery.space, _on_sector(battery, ladder.amplitudes, sector))
    placed = np.zeros((battery.dim,) * ladder.ndim, dtype=complex)
    placed[(slice(sector, None, 2),) * ladder.ndim] = ladder
    return placed


def run_global_ft(config: ScenarioConfig, report: VerificationReport) -> None:
    """Random-scenario verification of the global forward/reverse equality:
    ln Q_F - ln Q_R = beta (dW_tilde - dF_tilde), with effective potentials
    evaluated on the same truncated spaces as the dynamics. Draws with Q_F or
    Q_R at or below 1e-12 are counted in ``provenance["dropped"]``."""
    if config.system_cutoff < 4 or config.ladder_dim < 8:   # the ranges drawn below
        raise ConfigError("global-ft needs system_cutoff >= 4 and ladder_dim >= 8, "
                          f"got ({config.system_cutoff}, {config.ladder_dim})")
    rows, simulated, closed_form = [], [], []   # the inputs and values of each case
    attempt = 0
    report.provenance["dropped"] = {"below_floor": 0}
    while len(rows) < config.cases:
        rng = np.random.default_rng([config.seed, attempt])
        attempt += 1
        omega_i = _FT_FREQUENCIES[int(rng.integers(len(_FT_FREQUENCIES)))]
        omega_f = _FT_FREQUENCIES[int(rng.integers(len(_FT_FREQUENCIES)))]
        ds = int(rng.integers(4, config.system_cutoff + 1))
        ladder = int(rng.integers(8, config.ladder_dim + 1))
        beta = float(np.exp(rng.uniform(np.log(0.05), np.log(4.0))))
        battery = dyn.SwitchedBattery(ladder, dyn.battery_spacing_for(omega_i, omega_f))
        model = dyn.build_joint_model(omega_i, omega_f, ds, battery)
        blocks = dyn.spectral_blocks(model)
        _check_layout(blocks)
        u = dyn.sample_conserving_unitary(blocks, int(rng.integers(2 ** 32)))

        h_i = model.system_mode(dyn.SECTOR_INITIAL).energies
        h_f = model.system_mode(dyn.SECTOR_FINAL).energies
        h_b = battery.energies
        x_s_i = _random_system_operator(rng, ds, int(rng.integers(7)))
        x_s_f = _random_system_operator(rng, ds, int(rng.integers(7)))
        lads = [_random_ladder_operator(rng, ladder, int(rng.integers(4))) for _ in range(2)]
        x_b_i, x_b_f = (_on_sector(battery, lad, sector)
                        for lad, sector in zip(lads, (dyn.SECTOR_INITIAL, dyn.SECTOR_FINAL)))

        rho_s_i = gibbs.gibbs_map(x_s_i, h_i, beta).matrix
        rho_s_f = gibbs.gibbs_map(x_s_f, h_f, beta).matrix
        rho_b_i = gibbs.gibbs_map(x_b_i, h_b, beta)
        rho_b_f = gibbs.gibbs_map(x_b_f, h_b, beta)

        q_f, q_r = dyn.q_quantity((np.array((x_s_f, x_s_i)), (x_b_f, x_b_i)),
                                  (np.array((rho_s_i, rho_s_f)), (rho_b_i, rho_b_f)),
                                  u, model).tolist()
        if q_f <= 1e-12 or q_r <= 1e-12:
            report.provenance["dropped"]["below_floor"] += 1
            continue
        d_f_tilde = gibbs.gen_free_energy_diff(beta, h_i, x_s_i, h_f, x_s_f)
        d_w_tilde = gibbs.gen_work_diff(beta, h_b, x_b_i, x_b_f)
        rows.append((str(omega_i), str(omega_f), ds, ladder, beta, attempt - 1))
        simulated.append(math.log(q_f) - math.log(q_r))
        closed_form.append(beta * (d_w_tilde - d_f_tilde))
    names = ("omega_i", "omega_f", "system_cutoff", "ladder_dim", "beta", "attempt")
    _record(report, [f"case-{i:04d}" for i in range(len(rows))],
            dict(zip(names, _transpose(rows, len(names)))), simulated, closed_form,
            relative=False)
    report.provenance["attempts"] = attempt


def _dynamics_scan(config: ScenarioConfig, report: VerificationReport,
                   reasons: Sequence[str], frequencies: Sequence[tuple],
                   chis: Sequence[float], *, by_spacing: bool = False,
                   translation_invariant: bool = False):
    """Yield ``(model, chi, beta, U)`` per (omega_i, omega_f) in ``frequencies``
    and chi in ``chis``: one model per pair, beta = 2 chi / omega_i (or / the
    ladder spacing, ``by_spacing``), U translation invariant on the middle
    ladder level if asked (ConfigError without an interior, raised before the
    pair's model is built). U's seed is keyed by (config seed, kind, flat grid
    index). No yielded U is kept here: drop yours before the next point and one
    U is alive at a time. Starts ``provenance["dropped"]`` at zero per reason."""
    report.provenance["dropped"] = dict.fromkeys(reasons, 0)
    suite = int.from_bytes(config.kind.encode(), "little")
    middle = (config.ladder_dim - 1) // 2
    for pair, (omega_i, omega_f) in enumerate(frequencies):
        spacing = dyn.battery_spacing_for(omega_i, omega_f)
        if translation_invariant and (reach := dyn.reach_for(
                omega_i, omega_f, config.system_cutoff, spacing)) > middle:
            raise ConfigError(f"ladder_dim {config.ladder_dim} leaves no interior "
                              f"window (translation reach {reach})")
        battery = dyn.SwitchedBattery(config.ladder_dim, spacing)
        model = dyn.build_joint_model(omega_i, omega_f, config.system_cutoff, battery)
        blocks = dyn.spectral_blocks(model)
        _check_layout(blocks)
        scale = float(battery.spacing if by_spacing else omega_i)
        for point, chi in enumerate(chis):
            key = (suite, pair * len(chis) + point)   # the flat grid index
            seed = int(np.random.SeedSequence(config.seed, spawn_key=key)
                       .generate_state(1, np.uint64)[0])
            yield model, chi, 2.0 * chi / scale, (
                dyn.sample_translation_invariant_unitary(model, blocks, (middle,) * 2, seed)
                if translation_invariant else dyn.sample_conserving_unitary(blocks, seed))


def _photon_states(model: dyn.JointModel, beta: float, sign: int) -> tuple:
    """Photon-added (+1) or -subtracted (-1) states of both modes, tails unchecked."""
    maker = fock.photon_added_state if sign == +1 else fock.photon_subtracted_state
    return (maker(beta, model.system_mode(dyn.SECTOR_INITIAL), tail_tol=1.0),
            maker(beta, model.system_mode(dyn.SECTOR_FINAL), tail_tol=1.0))


def _note_tail_mass(report: VerificationReport, *states: fock.DensityState) -> None:
    """Keep the largest tail mass the truncation of ``states`` dropped in
    ``provenance["max_tail_mass"]``."""
    report.provenance["max_tail_mass"] = max(report.provenance.get("max_tail_mass", 0.0),
                                             *(state.tail_mass for state in states))


def _crooks_pair_scan(config: ScenarioConfig, report: VerificationReport,
                      sign: int) -> None:
    """Measured forward/reverse battery transition ratios for photon
    added (+1) / subtracted (-1) system preparations, compared against the
    closed-form prediction prefactor_R * exp(beta (W -+ dE_vac - 2 dF)).
    Transitions below the probability floor, or where the closed form is
    undefined, are counted per reason in ``provenance["dropped"]``."""
    w0 = config.ladder_dim // 2
    for model, chi, beta, u in _dynamics_scan(
            config, report, ("below_floor", "undefined_ratio"), _CROOKS_FREQUENCIES,
            config.chi_grid or (0.1, 0.5, 1.0, 2.0)):
        battery, ratio = model.battery, model.omega_f
        params = cf.ScenarioParams(beta, float(model.omega_i), float(ratio))
        gamma_i, gamma_f = _photon_states(model, beta, sign)
        _note_tail_mass(report, gamma_i, gamma_f)
        b_i = battery.basis_index(w0, dyn.SECTOR_INITIAL)
        b_f = 2 * np.arange(config.ladder_dim) + dyn.SECTOR_FINAL   # every w_meas at once
        p_fwds = dyn.transition_probability(b_f, gamma_i, b_i, u, model).tolist()
        p_revs = dyn.transition_probability(b_i, gamma_f, b_f, u, model).tolist()
        kept, predicted = [], []   # (W, P_F, P_R) of each case
        for w_meas, p_fwd, p_rev in zip(range(config.ladder_dim), p_fwds, p_revs):
            if p_fwd <= 1e-10 or p_rev <= 1e-10:   # the probability floor
                report.provenance["dropped"]["below_floor"] += 1
                continue
            work = battery.spacing.numerator * (w0 - w_meas) / battery.spacing.denominator
            try:
                predicted.append(cf.crooks_rhs_pm(work, params, sign))
            except UndefinedRatioError:
                report.provenance["dropped"]["undefined_ratio"] += 1
                continue
            kept.append((work, p_fwd, p_rev))
        works, p_f, p_r = _transpose(kept, 3)
        _record(report, [f"r{ratio}-chi{chi}-W{work:+.3f}" for work in works],
                {"omega_ratio": str(ratio), "chi": chi, "W": works, "P_F": p_f, "P_R": p_r,
                 "which": "N" if sign == +1 else "N+1"},
                [a / b for a, b in zip(p_f, p_r)], predicted)
        del u   # else it stays alive while the next U is built beside it


def _binomial_battery_state(battery: dyn.SwitchedBattery, n: int, p: float, sector: int,
                            ladder=fock.binomial_state) -> fock.PureState:
    """The binomial state |n, p> of the ladder, made by ``ladder`` (built
    afresh by default), on one switch sector."""
    return _on_sector(battery, ladder(n, p, battery.ladder_space), sector)


def _run_crooks_binomial(config: ScenarioConfig, report: VerificationReport,
                         regime: str) -> None:
    """Battery-coherence Crooks check: thermal system, binomial battery
    projectors read as their vectors, measured ratio against
    exp(beta (q(chi) W_q - dF)). Per chi, one stacked Q reads every pair's
    forward and reverse term in turn. Pairs with a probability at or below
    1e-12 are counted in ``provenance["dropped"]``. Raises ConfigError,
    before any sampling, for an n at or above ``ladder_dim`` (no binomial
    state of that size fits the ladder) or a p of 0 (no distortion factor)."""
    p_grid = config.p_grid or (0.2, 0.5, 0.8)
    n_grid = config.n_grid or (2, 4, 6)
    if max(n_grid) >= config.ladder_dim or min(p_grid) == 0.0:
        raise ConfigError(f"crooks-binomial-{regime} needs every n below ladder_dim "
                          f"{config.ladder_dim} and every p above 0, got n_grid "
                          f"{list(n_grid)}, p_grid {list(p_grid)}")
    if regime == "align":
        pairs = [(n, p_i, n, p_f) for n in n_grid
                 for p_i in p_grid for p_f in p_grid if p_i != p_f]
    else:
        pairs = [(n_i, p, n_f, p) for n_i in n_grid for n_f in n_grid
                 if n_i != n_f for p in p_grid]
    stack = (2 * len(pairs), config.system_cutoff, config.system_cutoff)   # forward, reverse
    eye_s = np.broadcast_to(np.eye(config.system_cutoff, dtype=complex), stack)
    ladder = cache(fock.binomial_state)   # each binomial state built once per scan
    for model, chi_b, beta, u in _dynamics_scan(
            config, report, ("below_floor",), [(Fraction(1), Fraction(1))],
            config.chi_grid or (0.1, 0.5, 1.0), by_spacing=True):
        battery, spacing = model.battery, float(model.battery.spacing)
        h_b = battery.energies
        gamma = np.broadcast_to(fock.thermal_state(beta, model.system_mode(dyn.SECTOR_INITIAL),
                                                   tail_tol=1.0).matrix, stack)
        # the battery factors as the vectors of their rank-one projectors, each
        # state and each Gibbs map made once per chi
        state = cache(lambda *key: _binomial_battery_state(battery, *key, ladder))
        prepared = cache(lambda *key: gibbs.gibbs_map(state(*key), h_b, beta).amplitudes)
        x_b, rho_b = [], []
        for n_i, p_i, n_f, p_f in pairs:
            x_b += (state(n_f, p_f, dyn.SECTOR_FINAL).amplitudes,
                    state(n_i, p_i, dyn.SECTOR_INITIAL).amplitudes)
            rho_b += (prepared(n_i, p_i, dyn.SECTOR_INITIAL),
                      prepared(n_f, p_f, dyn.SECTOR_FINAL))
        q = dyn.q_quantity((eye_s, x_b), (gamma, rho_b), u, model).tolist() if pairs else []
        kept, predicted = [], []   # (n_i, n_f, p_i, p_f, P_F, P_R) of each case
        for (n_i, p_i, n_f, p_f), p_fwd, p_rev in zip(pairs, q[::2], q[1::2]):
            if p_fwd <= 1e-12 or p_rev <= 1e-12:
                report.provenance["dropped"]["below_floor"] += 1
                continue
            if regime == "align":
                q_factor = cf.q_align(p_i, p_f, chi_b)
                w_q = cf.w_q_align(n_i, p_i, p_f, beta, spacing)
            else:
                q_factor = cf.q_size(p_i, chi_b)
                w_q = cf.w_q_size(n_i, n_f, p_i, beta, spacing)
            predicted.append(math.exp(beta * q_factor * w_q))   # dF = 0: equal spectra
            kept.append((n_i, n_f, p_i, p_f, p_fwd, p_rev))
        columns = dict(zip(("n_i", "n_f", "p_i", "p_f", "P_F", "P_R"), _transpose(kept, 6)))
        _record(report, [f"chi{chi_b}-n{n_i}-{n_f}-p{p_i}-{p_f}"
                         for n_i, n_f, p_i, p_f, *_ in kept], {"chi_battery": chi_b, **columns},
                [a / b for a, b in zip(columns["P_F"], columns["P_R"])], predicted)
        del u, state, prepared, x_b, rho_b   # the vectors go with this chi's U


def run_jarzynski(config: ScenarioConfig, report: VerificationReport) -> None:
    """Work-distribution route: translation-invariant dynamics, battery point
    mass at the middle ladder level, averaged inverse-prefactor exponential
    against exp(-beta (2 dF +- dE_vac)); plus exact normalization of the
    reverse distribution. Forward work values of zero probability or with an
    undefined prefactor are counted per reason in ``provenance["dropped"]``."""
    for model, chi, beta, u in _dynamics_scan(
            config, report, ("below_floor", "undefined_ratio"),
            [(config.omega_i, config.omega_f)], config.chi_grid or (0.25, 0.5),
            translation_invariant=True):
        level, spacing = u.window[0], model.battery.spacing
        params = cf.ScenarioParams(beta, float(model.omega_i), float(model.omega_f))
        for sign, label in ((+1, "added"), (-1, "subtracted")):
            gamma_i, gamma_f = _photon_states(model, beta, sign)
            _note_tail_mass(report, gamma_i, gamma_f)
            fwd = dyn._level_probabilities("F", gamma_i, level, u, model).tolist()
            total = covered = 0.0
            averaged = 0
            for w, prob in enumerate(fwd):
                if prob <= 0.0:
                    report.provenance["dropped"]["below_floor"] += 1
                    continue
                work = spacing.numerator * (level - w) / spacing.denominator
                try:
                    r = cf.prefactor_R(work, params, sign)
                except UndefinedRatioError:
                    report.provenance["dropped"]["undefined_ratio"] += 1
                    continue
                total += prob / r * math.exp(-beta * work)
                covered += prob
                averaged += 1
            _record(report, [f"chi{chi}-{label}-average"],
                    {"chi": chi, "sign": sign, "covered_probability": covered,
                     "averaged": averaged},
                    [total], [cf.jarzynski_rhs(params, sign)])
            _record(report, [f"chi{chi}-{label}-reverse-normalization"],
                    {"chi": chi, "sign": sign},
                    [sum(dyn._level_probabilities("R", gamma_f, level, u, model).tolist())],
                    [1.0], tolerance=1e-10, relative=False)
        del u


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def _set_rows(columns: Sequence[Sequence], index: int) -> list[list]:
    """``columns`` cut to the rows whose cell in column ``index`` is set."""
    kept = [cell is not None for cell in columns[index]]
    return [list(compress(column, kept)) for column in columns]


def _emit_rows(report: VerificationReport, config: ScenarioConfig, header: Sequence[str],
               columns: Sequence[Sequence], plot: Optional[tuple] = None) -> None:
    """Write the rows of ``columns`` to ``<kind>.csv`` (and a ``<kind>.gp`` of
    ``plot`` = (title, columns)) in ``config.out_dir`` when set."""
    if config.out_dir is not None:
        csv_path = write_csv(Path(config.out_dir) / f"{report.kind}.csv", header, columns)
        if plot is not None:
            _write_gnuplot(csv_path.with_suffix(".gp"), csv_path.name, *plot)
        report.provenance["csv"] = csv_path.name


def _chi_points(config: ScenarioConfig):
    """Yield ``(chi, beta, params)`` over the chi grid (default: 60 log-spaced
    points on [0.01, 4]), beta = 2 chi / omega_i."""
    omega_i, omega_f = float(config.omega_i), float(config.omega_f)
    for chi in config.chi_grid or np.logspace(np.log10(0.01), np.log10(4.0), 60).tolist():
        beta = 2.0 * chi / omega_i
        yield chi, beta, cf.ScenarioParams(beta, omega_i, omega_f)


def run_figure2(config: ScenarioConfig, report: VerificationReport) -> None:
    """Generalized free-energy curves (energies in units of k_B T) versus chi
    for the added/subtracted protocols at omega_f = 1.5 omega_i."""
    header = ["chi", "dF", "twodF", "dEvac", "dFplus", "dFminus"]
    columns, expected = [[] for _ in header], []
    for chi, beta, params in _chi_points(config):
        d_f, e_vac = cf.delta_F(params), cf.delta_E_vac(params)
        for column, cell in zip(columns, (chi, beta * d_f, 2.0 * beta * d_f, beta * e_vac,
                                          beta * cf.gen_free_energy_pm(params, +1),
                                          beta * cf.gen_free_energy_pm(params, -1))):
            column.append(cell)
        expected.append(beta * (2.0 * d_f + e_vac))
    chis, (twodf, devac, dfp, dfm) = columns[0], map(np.array, columns[2:])
    for suffix, compared, simulated, closed_form in (
            ("", "dFplus", dfp, expected), ("-consistency", "twodF+dEvac", twodf + devac, dfp),
            ("-minus", "dFminus", dfm, twodf - devac)):
        _record(report, [f"chi={_fmt(chi)}{suffix}" for chi in chis],
                {"chi": chis, "columns": compared}, simulated, closed_form, relative=False)
    _emit_rows(report, config, header, columns, ("generalized free energies vs chi", header[1:]))


def run_figure3(config: ScenarioConfig, report: VerificationReport) -> None:
    """Predicted forward/reverse ratio and prefactor versus chi for
    omega_f = 5 omega_i at the work values requested (defaults 0 and 2)."""
    works = config.w_values or (0.0, 2.0 * float(config.omega_i))
    header = ["chi", "W", "R_plus", "R_minus", "rhs_plus", "rhs_minus", "classical"]
    columns = [[] for _ in header]
    for chi, beta, params in _chi_points(config):
        for work in works:
            row = [chi, work, None, None, None, None]   # R_+-, rhs_+- empty where undefined
            for column, sign in ((2, +1), (3, -1)):
                try:
                    row[column], row[column + 2] = (cf.prefactor_R(work, params, sign),
                                                    cf.crooks_rhs_pm(work, params, sign))
                except UndefinedRatioError:
                    pass
            for column, cell in zip(columns, row + [math.exp(beta * (work - cf.delta_F(params)))]):
                column.append(cell)
    for tag, column in (("plus", 2), ("minus", 5), ("classical", 6)):
        kept = _set_rows(columns, column)
        chis, works, values = kept[0], kept[1], kept[column]
        _record(report, [f"chi={_fmt(chi)}-W={_fmt(work)}-{tag}"
                         for chi, work in zip(chis, works)],
                {"chi": chis, "W": works}, values, values)
    _emit_rows(report, config, header, columns,
               ("predicted ratio and prefactor vs chi", header[2:]))


def run_figure4(config: ScenarioConfig, report: VerificationReport) -> None:
    """Distortion factors versus chi: q_align on the p_f = 0.8 slice and
    q_size, over the configured p grid."""
    p_grid = config.p_grid or (0.2, 0.4, 0.6)
    p_f = 0.8
    header = ["chi", "p", "q_align_pf08", "q_size"]
    chis, ps = _transpose([(chi, p) for chi, _, _ in _chi_points(config) for p in p_grid], 2)
    columns = [chis, ps, [cf.q_align(p, p_f, chi) if p != p_f else None
                          for chi, p in zip(chis, ps)],
               [cf.q_size(p, chi) for chi, p in zip(chis, ps)]]
    for tag, column, fixed in (("align", 2, {"p_f": p_f}), ("size", 3, {})):
        kept = _set_rows(columns, column)
        _record(report, [f"chi={_fmt(chi)}-p={_fmt(p)}-{tag}" for chi, p in zip(*kept[:2])],
                {"chi": kept[0], "p": kept[1], **fixed}, kept[column], kept[column])
    _emit_rows(report, config, header, columns,
               ("quantum distortion factors vs chi", header[2:]))


def run_harmonic_limit(config: ScenarioConfig, report: VerificationReport) -> None:
    """Convergence of binomial batteries to the coherent limit: state overlap,
    characteristic-function gap, and the distortion factor against tanh(chi)/chi.
    Each size after the first is checked against the one before it."""
    lam = 1.0
    t_grid = np.linspace(0.0, 6.0, 121)
    sizes = config.n_grid or (8, 32, 128)
    overlaps, gaps = [], []
    for n in sizes:
        space = fock.HilbertSpace(n + 2, "ladder")
        target = fock.coherent_state(math.sqrt(lam), space, tail_tol=0.5)
        overlaps.append(1.0 - fock.state_fidelity(target, fock.binomial_state(n, lam / n, space)))
        gaps.append(max(abs(cf.char_fn_binomial(n, lam / n, 1.0, t)
                            - cf.char_fn_coherent(lam, 1.0, t)) for t in t_grid))
    for name, label, values in (("overlap", "defect", overlaps), ("charfn", "gap", gaps)):
        _record(report, [f"{name}-decreasing-{n}" for n in sizes[1:]],
                {"n": sizes[1:], label: values[1:], "previous": values[:-1]},
                values[1:], [0.0] * (len(sizes) - 1), tolerance=values[:-1], relative=False)
    _record(report, ["overlap-final"], {"n": sizes[-1]}, overlaps[-1:], [0.0],
            tolerance=1e-2, relative=False)
    n_large = 10_000
    chis = config.chi_grid or (0.5, 1.0, 2.0)
    _record(report, [f"distortion-chi{chi}" for chi in chis],
            {"chi": chis, "n": n_large},
            [cf.q_align(0.5 / n_large, 1.5 / n_large, chi) for chi in chis],
            [cf.q_harmonic(chi) for chi in chis], tolerance=1e-3, relative=False)


def run_sweep(config: ScenarioConfig, report: VerificationReport) -> None:
    """Closed-form curve sweep over the chi grid, emitted as plot-ready CSV."""
    header = ["chi", "dF", "dFplus", "dFminus", "jarzynski_plus",
              "jarzynski_minus", "q_harmonic"]
    columns = _transpose([[chi, cf.delta_F(params), cf.gen_free_energy_pm(params, +1),
                           cf.gen_free_energy_pm(params, -1), cf.jarzynski_rhs(params, +1),
                           cf.jarzynski_rhs(params, -1), cf.q_harmonic(chi)]
                          for chi, _, params in _chi_points(config)], len(header))
    _record(report, [f"chi={_fmt(chi)}" for chi in columns[0]], {"chi": columns[0]},
            columns[1], columns[1], relative=False)
    _emit_rows(report, config, header, columns)


@dataclass(frozen=True)
class Suite:
    """One verification suite: the runner that fills its report, its default
    pass tolerance, and the config fields it runs with unless told otherwise."""

    runner: Callable[[ScenarioConfig, VerificationReport], None]
    tolerance: float
    defaults: dict = field(default_factory=dict)


#: every suite by kind, in the order ``verify_all`` runs them
SUITES: dict[str, Suite] = {
    "global-ft": Suite(run_global_ft, 1e-8,
                       {"cases": 200, "system_cutoff": 12, "ladder_dim": 24}),
    "figure2": Suite(run_figure2, 1e-12, {"omega_i": 1, "omega_f": Fraction(3, 2)}),
    "figure3": Suite(run_figure3, 1e-12, {"omega_i": 1, "omega_f": 5}),
    "figure4": Suite(run_figure4, 1e-12),
    "sweep": Suite(run_sweep, 1e-12),
    "harmonic-limit": Suite(run_harmonic_limit, 1e-3),
    "crooks-binomial-align": Suite(partial(_run_crooks_binomial, regime="align"), 1e-6,
                                   {"system_cutoff": 4, "ladder_dim": 12}),
    "crooks-binomial-size": Suite(partial(_run_crooks_binomial, regime="size"), 1e-6,
                                  {"system_cutoff": 4, "ladder_dim": 12}),
    "crooks-added": Suite(partial(_crooks_pair_scan, sign=+1), 1e-6,
                          {"system_cutoff": 8, "ladder_dim": 24}),
    "crooks-subtracted": Suite(partial(_crooks_pair_scan, sign=-1), 1e-6,
                               {"system_cutoff": 8, "ladder_dim": 24}),
    "jarzynski": Suite(run_jarzynski, 1e-6, {"omega_i": 1, "omega_f": 2,
                                             "system_cutoff": 5, "ladder_dim": 44}),
}


def default_config(kind: str, path=None, **overrides) -> ScenarioConfig:
    """The config loader: the suite defaults of ``kind``, then the JSON object
    read from ``path`` (its ``kind`` may be omitted but must match), then
    every override that is not None, each overriding the one before."""
    if kind not in SUITES:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    data = {"kind": kind, **SUITES[kind].defaults}
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        if loaded.setdefault("kind", kind) != kind:
            raise ConfigError(f"config kind {loaded['kind']!r} is not {kind!r}")
        data.update(loaded)
    data.update({k: v for k, v in overrides.items() if v is not None})
    return ScenarioConfig.from_mapping(data)


def run_scenario(config: ScenarioConfig) -> VerificationReport:
    """Run one suite; writes `<kind>.json` (and CSV artifacts for the
    figure kinds) into config.out_dir when set."""
    report = VerificationReport(config.kind, config.effective_tolerance(), config.provenance())
    SUITES[config.kind].runner(config, report)
    report.finalize()
    if config.out_dir is not None:
        report.write(Path(config.out_dir) / f"{config.kind}.json")
    return report


def verify_all(seed: int = 2024, budget_seconds: float = 600.0,
               out_dir: Optional[str] = None,
               tolerance: Optional[float] = None) -> dict:
    """Run every verification suite under a wall-clock budget, all configs and
    the budget (NaN is a ConfigError) checked before the first; returns an
    aggregate mapping with per-suite summaries and an overall flag."""
    if math.isnan(budget_seconds):
        raise ConfigError("budget must be a number of seconds, got nan")
    configs = [default_config(kind, seed=seed, out_dir=out_dir, tolerance=tolerance)
               for kind in SUITES]
    t0 = time.perf_counter()
    reports: dict[str, VerificationReport] = {}
    for config in configs:
        elapsed = time.perf_counter() - t0
        if elapsed > budget_seconds:
            raise BudgetExceededError(
                f"verification exceeded budget: {elapsed:.1f}s > {budget_seconds}s "
                f"before suite {config.kind!r}"
            )
        reports[config.kind] = run_scenario(config)
    results = {"seed": seed, "tool_version": __version__,
               "suites": {kind: report.to_dict() for kind, report in reports.items()},
               "elapsed_seconds": round(time.perf_counter() - t0, 3),
               "all_passed": all(r.all_passed for r in reports.values())}
    if out_dir is not None:
        # json.dumps(results minus elapsed_seconds, indent=2, sort_keys=True):
        # each report's own JSON, indented two levels deeper (json escapes
        # every newline inside a string, so each "\n" is a line break)
        nested = {kind: reports[kind].to_json().replace("\n", "\n    ")
                  for kind in sorted(reports)}
        suites = ",\n    ".join(f"{json.dumps(kind)}: {text}" for kind, text in nested.items())
        path = Path(out_dir) / "verify.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f'{{\n  "all_passed": {json.dumps(results["all_passed"])},\n'
                        f'  "seed": {json.dumps(seed)},\n'
                        f'  "suites": {{\n    {suites}\n  }},\n'
                        f'  "tool_version": {json.dumps(__version__)}\n}}\n')
    return results
