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
and must resolve to whole microseconds. Unknown keys are rejected so typos
cannot silently fall back to defaults. All problems in a file are reported
together, each with its line and column; a problem with a whole section
points at its [header], or at 1:1 if the section is missing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .fiveg import Constant, Empirical, LatencyModel, TruncNormal, Uniform
from .iolw import IolwCellConfig, IolwTransferModel, usable_channels, validate_cell
from .plc import PlcConfig
from .scenario import POLL_WAIT, Scenario, SegmentSpec, SignalSource
from .stats import SafetyParams

_SECTION_RE = re.compile(r"^\[(?P<name>[A-Za-z0-9_.-]+)\]\s*$")
_KEY_RE = re.compile(r"^(?P<key>[A-Za-z0-9_.-]+)\s*=\s*(?P<value>.*)$")
_DURATION_RE = re.compile(r"^(?P<num>-?\d+(\.\d+)?)\s*(?P<unit>us|ms|s)?$")

_DURATION_SCALE = {"us": 1, "ms": 1000, "s": 1_000_000, None: 1}


@dataclass(frozen=True)
class Diagnostic:
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


@dataclass(frozen=True)
class _Raw:
    value: str
    line: int
    col: int


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
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
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
        diags.append(Diagnostic(raw.line, raw.col, f"invalid duration {raw.value!r}"))
        return None
    us = float(m.group("num")) * _DURATION_SCALE[m.group("unit")]
    if not math.isfinite(us):  # hundreds of digits overflow to inf
        diags.append(Diagnostic(raw.line, raw.col, f"duration {raw.value!r} is out of range"))
        return None
    if abs(us - round(us)) > 1e-6:
        diags.append(
            Diagnostic(raw.line, raw.col, f"duration {raw.value!r} is not a whole microsecond")
        )
        return None
    return int(round(us))


def _int(raw: _Raw, diags: list[Diagnostic]) -> int | None:
    try:
        return int(raw.value)
    except ValueError:
        diags.append(Diagnostic(raw.line, raw.col, f"invalid integer {raw.value!r}"))
        return None


def _float(raw: _Raw, diags: list[Diagnostic]) -> float | None:
    try:
        x = float(raw.value)
    except ValueError:
        diags.append(Diagnostic(raw.line, raw.col, f"invalid number {raw.value!r}"))
        return None
    if not math.isfinite(x):  # nan, inf, or a literal past the float range
        diags.append(Diagnostic(raw.line, raw.col, f"number {raw.value!r} is not finite"))
        return None
    return x


def _constant(raw: _Raw, diags: list[Diagnostic]) -> Constant | None:
    us = _duration_us(raw, diags)
    return None if us is None else Constant(us)


def _blocklist(raw: _Raw, diags: list[Diagnostic]) -> frozenset[int] | None:
    try:
        return frozenset(int(tok) for tok in raw.value.split(",") if tok.strip())
    except ValueError:
        diags.append(Diagnostic(raw.line, raw.col, f"invalid blocklist {raw.value!r}"))
        return None


def _ids(raw: _Raw, diags: list[Diagnostic]) -> list[str]:
    return [tok.strip() for tok in raw.value.split(",") if tok.strip()]


def _bins(raw: _Raw, diags: list[Diagnostic]) -> tuple[tuple[int, float], ...] | None:
    """Empirical bins: "duration:weight, duration:weight, ..."."""
    bins = []
    for tok in raw.value.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            diags.append(Diagnostic(raw.line, raw.col, f"invalid empirical bin {tok!r}"))
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
    "dither": ("dither_us", _duration_us),
}
_PLC_FIELDS = {
    "task_cycle": ("task_cycle_us", _duration_us),
    "query_cycle": ("query_cycle_us", _duration_us),
    "jitter": ("jitter", _constant),
}
_SAFETY_FIELDS = {"approach_speed": ("approach_speed_mps", _float)}  # + budget.<name>
_PATH_FIELDS = {"forward": ("forward", _ids), "return": ("return", _ids)}
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
_SEGMENT_KEYS = ("kind", "role")


def _fields(
    name: str, raw: dict[str, _Raw], table: dict, diags: list[Diagnostic]
) -> dict | None:
    """Constructor kwargs of the keys present in raw; None if one failed to parse."""
    kw = {}
    for key, r in raw.items():
        if key not in table:
            diags.append(Diagnostic(r.line, r.col, f"unknown key {key!r} in section [{name}]"))
            continue
        keyword, parse = table[key]
        kw[keyword] = parse(r, diags)
    return None if any(v is None for v in kw.values()) else kw


def _build_model(
    sid: str, raw: _Section, diags: list[Diagnostic]
) -> LatencyModel | None:
    kind_raw = raw.get("model")
    if kind_raw is None:
        diags.append(raw.at(f"segment {sid!r} is missing a latency model"))
        return None
    if kind_raw.value not in _MODELS:
        diags.append(
            Diagnostic(kind_raw.line, kind_raw.col, f"unknown model kind {kind_raw.value!r}")
        )
        return None
    cls, keys = _MODELS[kind_raw.value]
    table = {k: (k, _bins if k == "bins" else _duration_us) for k in keys}
    body = {k: r for k, r in raw.items() if k not in (*_SEGMENT_KEYS, "model")}
    kw = _fields(f"segment.{sid}", body, table, diags)
    missing = [k for k in sorted(keys) if k not in raw]
    if missing:
        diags.append(
            Diagnostic(
                kind_raw.line, kind_raw.col,
                f"segment {sid!r}: model {kind_raw.value!r} is missing keys {missing}",
            )
        )
        return None
    return None if kw is None else cls(*(kw[k] for k in keys))


def _build_segment(
    sid: str, raw: _Section, cell: IolwCellConfig, diags: list[Diagnostic]
) -> SegmentSpec | None:
    kind_raw = raw.get("kind")
    if kind_raw is None:
        diags.append(raw.at(f"segment {sid!r} has no kind"))
        return None
    kind = kind_raw.value
    role = "both"
    if "role" in raw:
        role = raw["role"].value
        if role not in ("forward", "return", "both"):
            r = raw["role"]
            diags.append(Diagnostic(r.line, r.col, f"invalid role {role!r}"))
            role = "both"
    if kind in _LINK_KINDS:
        model = _build_model(sid, raw, diags)
        if model is None:
            return None
        for msg in model.validate():
            diags.append(Diagnostic(kind_raw.line, kind_raw.col, f"segment {sid!r}: {msg}"))
        return SegmentSpec(id=sid, kind=kind, model=model, role=role)
    body = {k: r for k, r in raw.items() if k not in _SEGMENT_KEYS}
    if kind == "iolw-air":
        kw = _fields(f"segment.{sid}", body, _IOLW_AIR_FIELDS, diags)
        if kw is None:
            return None
        transfer = IolwTransferModel(
            **{"completion_offset_us": 0, "max_attempts": cell.subcycles_per_cycle, **kw}
        )
        for msg in transfer.validate(cell):
            diags.append(Diagnostic(kind_raw.line, kind_raw.col, f"segment {sid!r}: {msg}"))
        return SegmentSpec(id=sid, kind=kind, transfer=transfer, role=role)
    if kind == "plc":
        _fields(f"segment.{sid}", body, {}, diags)
        return SegmentSpec(id=sid, kind=kind, role=role)
    diags.append(
        Diagnostic(kind_raw.line, kind_raw.col, f"unknown segment kind {kind!r}")
    )
    return None


def _build_paths(
    raw: _Section,
    segments: dict[str, SegmentSpec],
    declared: set[str],
    diags: list[Diagnostic],
) -> tuple[list[str], list[str]]:
    """Forward and return ids; a declared segment that failed to build has
    its own diagnostic, so only ids without a [segment.<id>] are unresolved."""
    paths = _fields("path", raw, _PATH_FIELDS, diags)

    def resolve(key: str, direction: str) -> list[str]:
        if key not in paths:
            diags.append(raw.at(f"[path] is missing {key!r}"))
            return []
        r, ids = raw[key], paths[key]
        for sid in ids:
            seg = segments.get(sid)
            if sid not in declared:
                diags.append(Diagnostic(r.line, r.col, f"unresolved segment id {sid!r}"))
            elif seg is not None and seg.role not in ("both", direction):
                diags.append(
                    Diagnostic(
                        r.line, r.col,
                        f"segment {sid!r} has role {seg.role!r} but appears in the "
                        f"{direction} path",
                    )
                )
        return ids

    forward = resolve("forward", "forward")
    ret = resolve("return", "return")
    r = raw.get("forward")
    if forward and all(sid in segments for sid in forward):
        if segments[forward[-1]].kind != "plc":
            diags.append(
                Diagnostic(r.line, r.col, "forward path must end in a plc segment")
            )
    rr = raw.get("return")
    if ret and all(sid in segments for sid in ret):
        for sid in ret:
            if segments[sid].kind == "plc":
                diags.append(
                    Diagnostic(rr.line, rr.col, "return path must not contain a plc segment")
                )
    return forward, ret


def _build_safety(
    raw: _Section, components: set[str], diags: list[Diagnostic]
) -> SafetyParams:
    budgets = {k: r for k, r in raw.items() if k.startswith("budget.")}
    rest = {k: r for k, r in raw.items() if k not in budgets}
    kw = _fields("safety", rest, _SAFETY_FIELDS, diags) or {}
    maxima: list[tuple[str, int]] = []
    for key, r in budgets.items():
        name = key[len("budget."):]
        if name not in components:
            diags.append(
                Diagnostic(
                    r.line, r.col,
                    f"budget {name!r} is neither a segment of the paths nor {POLL_WAIT!r}",
                )
            )
            continue
        d = _duration_us(r, diags)
        if d is not None:
            maxima.append((name, d))
    return SafetyParams(**kw, segment_maxima=tuple(maxima))


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario; raises ScenarioError with all problems."""
    diags: list[Diagnostic] = []
    sections = _parse_sections(text, diags)
    known_plain = ("cell", "path", "source", "plc", "safety")
    for name, raw in sections.items():
        if name not in known_plain and not name.startswith("segment."):
            diags.append(raw.at(f"unknown section [{name}]"))
    for name in known_plain:
        sections.setdefault(name, _Section())

    kw = _fields("cell", sections["cell"], _CELL_FIELDS, diags)
    cell = IolwCellConfig() if kw is None else IolwCellConfig(**kw)
    cell_msgs = validate_cell(cell)
    # hop-plan feasibility is a configuration property; the plan itself is
    # generated per track
    if len(usable_channels(cell.channel_count, cell.blocklist, cell.min_hop_distance)) < 2:
        cell_msgs.append(
            f"no valid hop pair among {cell.channel_count} channels with min hop "
            f"distance {cell.min_hop_distance}"
        )
    for msg in cell_msgs:
        diags.append(sections["cell"].at(f"[cell]: {msg}"))

    segments: dict[str, SegmentSpec] = {}
    declared = {name[len("segment."):] for name in sections if name.startswith("segment.")}
    for name, raw in sections.items():
        if not name.startswith("segment."):
            continue
        sid = name[len("segment."):]
        if not sid:
            diags.append(raw.at("segment section with empty id"))
            continue
        seg = _build_segment(sid, raw, cell, diags)
        if seg is not None:
            segments[sid] = seg

    forward, ret = _build_paths(sections["path"], segments, declared, diags)
    kw = _fields("source", sections["source"], _SOURCE_FIELDS, diags)
    source = SignalSource() if kw is None else SignalSource(**kw)
    for msg in source.validate():
        diags.append(sections["source"].at(f"[source]: {msg}"))
    kw = _fields("plc", sections["plc"], _PLC_FIELDS, diags)
    plc_cfg = PlcConfig() if kw is None else PlcConfig(**kw)
    for msg in plc_cfg.validate():
        diags.append(sections["plc"].at(f"[plc]: {msg}"))
    safety = _build_safety(sections["safety"], {*forward, *ret, POLL_WAIT}, diags)
    for msg in safety.validate():
        diags.append(sections["safety"].at(f"[safety]: {msg}"))

    if diags:
        raise ScenarioError(diags)
    return Scenario(
        cell=cell,
        segments=segments,
        forward=forward,
        ret=ret,
        source=source,
        plc=plc_cfg,
        safety=safety,
    )


def decode_scenario(data: bytes) -> str:
    """UTF-8 text of a scenario file; a bad byte raises ScenarioError at its line:col."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, line_start) + 1
        col = len(data[line_start:exc.start].decode("utf-8")) + 1
        raise ScenarioError(
            [Diagnostic(line, col, f"invalid UTF-8 byte 0x{data[exc.start]:02x}")]
        ) from None


def load_scenario_file(path) -> Scenario:
    with open(path, "rb") as fh:
        return load_scenario(decode_scenario(fh.read()))
