"""Scenario configuration files: parsing, validation, diagnostics.

Nested key-value text format:

    [cell]
    masters = 1
    cycle = 5 ms

    [segment.nr_up]
    kind = fiveg
    model = truncnorm
    mean = 10.2 ms
    ...

Sections: [cell], [segment.<id>], [path], [source], [plc], [safety].
Durations accept `us`, `ms` and `s` suffixes (bare numbers are microseconds)
and must be exactly whole microseconds. Unknown keys are rejected so typos
cannot silently fall back to defaults. All problems in a file are reported
together, each with its line and column; a problem with a whole section
points at its [header], or at 1:1 if the section is missing.
"""

from __future__ import annotations

import codecs
import math
import re
from collections.abc import Callable
from typing import NamedTuple, TypeVar

from .fiveg import Constant, Empirical, LatencyModel, TruncNormal, Uniform
from .iolw import IolwCellConfig, IolwTransferModel, validate_cell
from .plc import PlcConfig
from .scenario import POLL_WAIT, Scenario, SegmentSpec, SignalSource, path_components
from .stats import BIN_WIDTH_US, DENSE_BIN_CAP

_SECTION_RE = re.compile(r"^\[(?P<name>[A-Za-z0-9_.-]+)\]\s*$")
_KEY_RE = re.compile(r"^(?P<key>[A-Za-z0-9_.-]+)\s*=\s*(?P<value>.*)$")
_DURATION_RE = re.compile(r"^(?P<num>-?(?P<int>\d+)(\.(?P<frac>\d+))?)\s*(?P<unit>us|ms|s)?$")
# the one line-end rule of the parser and of decode_scenario's diagnostics, as
# editors count lines: str.splitlines() also breaks at U+2028, \f and others
_LINE_END = re.compile(r"\r\n|\r|\n")

# each unit's power of ten in microseconds
_DURATION_SHIFT = {"us": 0, "ms": 3, "s": 6, None: 0}

_T = TypeVar("_T")


class Diagnostic(NamedTuple):
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ScenarioError(Exception):
    """Configuration is invalid; carries every diagnostic found."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class _Raw(NamedTuple):
    value: str
    line: int
    col: int

    def at(self, message: str) -> Diagnostic:
        return Diagnostic(self.line, self.col, message)


class _Section(dict):
    """Keys of one section; line is that of its [header], 1 for a missing one."""

    def __init__(self, line: int = 1):
        super().__init__()
        self.line = line

    def at(self, message: str) -> Diagnostic:
        return Diagnostic(self.line, 1, message)


def _parse_sections(text: str, diags: list[Diagnostic]) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    for lineno, raw_line in enumerate(_LINE_END.split(text), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            name = m.group("name")
            if name in sections:
                diags.append(Diagnostic(lineno, 1, f"duplicate section [{name}]"))
            current = sections.setdefault(name, _Section(lineno))
            continue
        m = _KEY_RE.match(line.strip())
        if not m:
            diags.append(Diagnostic(lineno, 1, f"cannot parse line: {line.strip()!r}"))
            continue
        if current is None:
            diags.append(Diagnostic(lineno, 1, "key outside any section"))
            continue
        key = m.group("key")
        col = raw_line.index(key) + 1
        if key in current:
            diags.append(Diagnostic(lineno, col, f"duplicate key {key!r}"))
        current[key] = _Raw(m.group("value").strip(), lineno, col)
    return sections


def _duration_us(raw: _Raw, diags: list[Diagnostic]) -> int | None:
    m = _DURATION_RE.match(raw.value)
    if not m:
        diags.append(raw.at(f"invalid duration {raw.value!r}"))
        return None
    shift = _DURATION_SHIFT[m.group("unit")]
    # past 2**53 a double cannot tell whole microseconds apart (and hundreds
    # of digits overflow to inf)
    if not abs(float(m.group("num")) * 10**shift) < 2**53:
        diags.append(raw.at(f"duration {raw.value!r} is out of range"))
        return None
    # whole iff every digit past the unit's shift is 0; leading zeros go
    # first, since int() refuses a string of more than 4 300 digits
    frac = m.group("frac") or ""
    if frac[shift:].strip("0"):
        diags.append(raw.at(f"duration {raw.value!r} is not a whole microsecond"))
        return None
    us = int((m.group("int") + frac[:shift].ljust(shift, "0")).lstrip("0") or "0")
    return -us if raw.value.startswith("-") else us


def _int(raw: _Raw, diags: list[Diagnostic]) -> int | None:
    try:
        return int(raw.value)
    except ValueError:
        diags.append(raw.at(f"invalid integer {raw.value!r}"))
        return None


def _float(raw: _Raw, diags: list[Diagnostic]) -> float | None:
    try:
        x = float(raw.value)
    except ValueError:
        diags.append(raw.at(f"invalid number {raw.value!r}"))
        return None
    if not math.isfinite(x):  # nan, inf, or a literal past the float range
        diags.append(raw.at(f"number {raw.value!r} is not finite"))
        return None
    return x


def _items(raw: _Raw, diags: list[Diagnostic] | None = None) -> list[str]:
    """The items of a comma-separated list, stripped; empty ones are dropped."""
    return [tok.strip() for tok in raw.value.split(",") if tok.strip()]


def _blocklist(raw: _Raw, diags: list[Diagnostic]) -> frozenset[int] | None:
    try:
        return frozenset(map(int, _items(raw)))
    except ValueError:
        diags.append(raw.at(f"invalid blocklist {raw.value!r}"))
        return None


def _bins(raw: _Raw, diags: list[Diagnostic]) -> tuple[tuple[int, float], ...] | None:
    """Empirical bins: "duration:weight, duration:weight, ..."."""
    bins = []
    for tok in _items(raw):
        if ":" not in tok:
            diags.append(raw.at(f"invalid empirical bin {tok!r}"))
            return None
        dur_s, weight_s = tok.split(":", 1)
        d = _duration_us(_Raw(dur_s.strip(), raw.line, raw.col), diags)
        w = _float(_Raw(weight_s, raw.line, raw.col), diags)
        if d is None or w is None:
            return None
        bins.append((d, w))
    return tuple(bins)


# Each section's vocabulary: key -> (constructor keyword, parser).
_CELL_FIELDS = {
    "masters": ("masters", _int),
    "tracks": ("tracks_per_master", _int),
    "slots_per_track": ("slots_per_track", _int),
    "devices": ("devices", _int),
    "cycle": ("cycle_us", _duration_us),
    "subcycles": ("subcycles_per_cycle", _int),
    "subcycle": ("subcycle_us", _duration_us),
    "channels": ("channel_count", _int),
    "blocklist": ("blocklist", _blocklist),
    "min_hop_distance": ("min_hop_distance", _int),
}
_SOURCE_FIELDS = {
    "toggle_period": ("toggle_period_us", _duration_us),
    "sequences": ("sequences", _int),
    "sequence_length": ("sequence_length_us", _duration_us),
}
_PLC_FIELDS = {
    "task_cycle": ("task_cycle_us", _duration_us),
    "query_cycle": ("query_cycle_us", _duration_us),
    "jitter": ("jitter_us", _duration_us),
}
_SAFETY_FIELDS = {"approach_speed": ("approach_speed_mps", _float)}  # + budget.<name>
_PATH_FIELDS = {"forward": ("forward", _items), "return": ("return", _items)}
_IOLW_AIR_FIELDS = {
    "completion_offset": ("completion_offset_us", _duration_us),
    "error_prob": ("per_subcycle_error_prob", _float),
    "max_attempts": ("max_attempts", _int),
}
# Link models: model kind -> (class, keys in constructor order); every key
# is a duration except the empirical bins.
_MODELS = {
    "constant": (Constant, ("value",)),
    "uniform": (Uniform, ("low", "high")),
    "truncnorm": (TruncNormal, ("mean", "stddev", "low", "high")),
    "empirical": (Empirical, ("bins",)),
}
_LINK_KINDS = ("iol-wire", "ethernet", "fiveg")
# where a plc segment may sit: (path key, test of its segment kinds, message);
# the forward path ends in its only plc segment, the return path has none
_PLC_RULES = (
    ("forward", lambda kinds: kinds[-1:] != ["plc"], "forward path must end in a plc segment"),
    ("forward", lambda kinds: "plc" in kinds[:-1],
     "forward path may hold a plc segment only at its end"),
    ("return", lambda kinds: "plc" in kinds, "return path must not contain a plc segment"),
)
# component names a run and its report use besides the segment ids
_RESERVED_IDS = (POLL_WAIT, "end_to_end")


def _fields(
    name: str, raw: dict[str, _Raw], table: dict, diags: list[Diagnostic]
) -> dict | None:
    """Constructor kwargs of the keys present in raw; None if one failed to parse."""
    kw = {}
    for key, r in raw.items():
        if key not in table:
            diags.append(r.at(f"unknown key {key!r} in section [{name}]"))
            continue
        keyword, parse = table[key]
        kw[keyword] = parse(r, diags)
    return None if any(v is None for v in kw.values()) else kw


def _build_section(
    sections: dict[str, _Section],
    name: str,
    cls: type[_T],
    table: dict,
    check: Callable[[_T], list[str]],
    diags: list[Diagnostic],
) -> _T:
    """A cls of the keys of [name], all defaults if one failed to parse;
    what check finds wrong with it is reported at the section's header."""
    raw = sections[name]
    obj = cls(**(_fields(name, raw, table, diags) or {}))
    diags.extend(raw.at(f"[{name}]: {msg}") for msg in check(obj))
    return obj


def _build_model(
    sid: str, raw: _Section, models: dict[tuple, LatencyModel], diags: list[Diagnostic]
) -> LatencyModel | None:
    """The segment's link model; models holds the load's models by (class,
    *constructor args), so segments with equal parameters share one model."""
    kind_raw = raw.get("model")
    if kind_raw is None:
        diags.append(raw.at(f"segment {sid!r} is missing a latency model"))
        return None
    if kind_raw.value not in _MODELS:
        diags.append(kind_raw.at(f"unknown model kind {kind_raw.value!r}"))
        return None
    cls, keys = _MODELS[kind_raw.value]
    table = {k: (k, _bins if k == "bins" else _duration_us) for k in keys}
    body = {k: r for k, r in raw.items() if k not in ("kind", "model")}
    kw = _fields(f"segment.{sid}", body, table, diags)
    missing = [k for k in sorted(keys) if k not in raw]
    if missing:
        msg = f"segment {sid!r}: model {kind_raw.value!r} is missing keys {missing}"
        diags.append(kind_raw.at(msg))
        return None
    if kw is None:
        return None
    key = (cls, *(kw[k] for k in keys))
    if key not in models:
        models[key] = cls(*key[1:])
    return models[key]


def _build_segment(
    sid: str, raw: _Section, cell: IolwCellConfig, models: dict, diags: list[Diagnostic]
) -> SegmentSpec | None:
    kind_raw = raw.get("kind")
    if kind_raw is None:
        diags.append(raw.at(f"segment {sid!r} has no kind"))
        return None
    kind = kind_raw.value
    body = {k: r for k, r in raw.items() if k != "kind"}
    if kind in _LINK_KINDS:
        model = _build_model(sid, raw, models, diags)
        if model is None:
            return None
        spec, problems = SegmentSpec(kind, model=model), model.validate()
    elif kind == "iolw-air":
        kw = _fields(f"segment.{sid}", body, _IOLW_AIR_FIELDS, diags)
        if kw is None:
            return None
        transfer = IolwTransferModel(
            **{"completion_offset_us": 0, "max_attempts": cell.subcycles_per_cycle, **kw}
        )
        spec, problems = SegmentSpec(kind, transfer=transfer), transfer.validate(cell)
    elif kind == "plc":
        _fields(f"segment.{sid}", body, {}, diags)
        return SegmentSpec(kind)
    else:
        diags.append(kind_raw.at(f"unknown segment kind {kind!r}"))
        return None
    diags.extend(kind_raw.at(f"segment {sid!r}: {msg}") for msg in problems)
    return spec


def _build_paths(
    raw: _Section,
    segments: dict[str, SegmentSpec],
    declared: dict[str, _Section],
    diags: list[Diagnostic],
) -> tuple[list[str], list[str]]:
    """Forward and return ids; a declared segment that failed to build has
    its own diagnostic, so only ids without a [segment.<id>] are unresolved,
    and the plc rules apply to a path whose segments all built."""
    paths = _fields("path", raw, _PATH_FIELDS, diags)
    for key in _PATH_FIELDS:
        if key not in paths:
            diags.append(raw.at(f"[path] is missing {key!r}"))
        for sid in paths.get(key, ()):
            if sid not in declared:
                diags.append(raw[key].at(f"unresolved segment id {sid!r}"))
    for key, broken, message in _PLC_RULES:
        ids = paths.get(key)
        if ids is not None and all(sid in segments for sid in ids):
            if broken([segments[sid].kind for sid in ids]):
                diags.append(raw[key].at(message))
    return paths.get("forward", []), paths.get("return", [])


def _safety_keys(raw: _Section, components: set[str], diags: list[Diagnostic]) -> dict:
    """Scenario keywords of [safety]: approach_speed_mps if set, and budgets, floors of maxima."""
    budgets = {k: r for k, r in raw.items() if k.startswith("budget.")}
    rest = {k: r for k, r in raw.items() if k not in budgets}
    kw = _fields("safety", rest, _SAFETY_FIELDS, diags) or {}
    if kw.get("approach_speed_mps", 1.0) <= 0:  # _float has rejected nan and inf
        r = rest["approach_speed"]
        diags.append(r.at(f"approach_speed must be > 0, got {r.value}"))
    kw["budgets"] = {}
    for key, r in budgets.items():
        name = key[len("budget."):]
        if name not in components:
            msg = (
                f"budget {name!r} is neither a segment of the paths nor {POLL_WAIT!r}"
                if name != POLL_WAIT
                else f"budget {name!r}: the forward path has no network segment to poll for"
            )
            diags.append(r.at(msg))
            continue
        d = _duration_us(r, diags)
        if d is not None and d < 0:
            diags.append(r.at(f"budget {name!r} must be >= 0"))
        elif d is not None:
            kw["budgets"][name] = d
    return kw


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario; raises ScenarioError with all problems."""
    diags: list[Diagnostic] = []
    sections = _parse_sections(text, diags)
    known_plain = ("cell", "path", "source", "plc", "safety")
    declared: dict[str, _Section] = {}  # [segment.<id>] sections by id
    for name, raw in sections.items():
        if name.startswith("segment."):
            declared[name[len("segment."):]] = raw
        elif name not in known_plain:
            diags.append(raw.at(f"unknown section [{name}]"))
    for name in known_plain:
        sections.setdefault(name, _Section())

    cell = _build_section(sections, "cell", IolwCellConfig, _CELL_FIELDS, validate_cell, diags)
    segments: dict[str, SegmentSpec] = {}
    models: dict[tuple, LatencyModel] = {}
    for sid, raw in declared.items():
        if not sid:
            diags.append(raw.at("segment section with empty id"))
            continue
        if sid in _RESERVED_IDS:
            diags.append(raw.at(f"segment id {sid!r} is reserved"))
            continue
        seg = _build_segment(sid, raw, cell, models, diags)
        if seg is not None:
            segments[sid] = seg

    forward, ret = _build_paths(sections["path"], segments, declared, diags)
    plc_cfg = _build_section(sections, "plc", PlcConfig, _PLC_FIELDS, PlcConfig.validate, diags)
    source = _build_section(
        sections, "source", SignalSource, _SOURCE_FIELDS, SignalSource.validate, diags
    )
    if 0 < source.toggle_period_us <= plc_cfg.query_cycle_us:  # the dither's span
        msg = "[source]: toggle_period must exceed the [plc] query_cycle"
        diags.append(sections["source"].at(msg))
    names = path_components(segments, forward, ret)
    safety_kw = _safety_keys(sections["safety"], set(names), diags)

    if diags:
        raise ScenarioError(diags)
    scenario = Scenario(cell, segments, forward, ret, source, plc_cfg, **safety_kw)
    # every latency a run records lies in 0..worst, so one histogram holds it
    worst = sum(scenario.bounds.values())
    if worst >= DENSE_BIN_CAP * BIN_WIDTH_US:
        msg = (f"[path]: the paths' derived worst case of {worst} us must be below "
               f"{DENSE_BIN_CAP * BIN_WIDTH_US} us, the span of one histogram")
        diags.append(sections["path"].at(msg))
    # the scenario raises a budget below its bound to it; a file may not state one
    for name, budget in scenario.budgets.items():
        bound = scenario.bounds[name]
        if budget < bound:
            msg = f"budget {name!r} of {budget} us is below its derived bound of {bound} us"
            diags.append(sections["safety"][f"budget.{name}"].at(msg))
    # the report rounds the safety distance up to 0.1 m, so ten times it must be finite
    sfrt = scenario.worst_case_sfrt_us
    if not math.isfinite(scenario.approach_speed_mps * sfrt / 1_000_000.0 * 10):
        r = sections["safety"]["approach_speed"]  # the default speed stays finite
        msg = f"approach_speed {r.value} over {sfrt} us gives a safety distance past the float range"
        diags.append(r.at(msg))
    if diags:
        raise ScenarioError(diags)
    return scenario


def decode_scenario(data: bytes) -> str:
    """UTF-8 text of a scenario file; a bad byte raises ScenarioError at its line:col."""
    data = data.removeprefix(codecs.BOM_UTF8)  # columns count from after a BOM
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _LINE_END.split(data[: exc.start].decode("utf-8"))
        msg = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        raise ScenarioError([Diagnostic(len(lines), len(lines[-1]) + 1, msg)]) from None
