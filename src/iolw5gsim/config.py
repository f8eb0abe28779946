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
together, each with its line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fiveg import Constant, Empirical, LatencyModel, LinkBudgetMeta, TruncNormal, Uniform
from .iolw import HopPlanError, IolwCellConfig, IolwTransferModel, generate_hop_plan, validate_cell
from .plc import PlcConfig
from .scenario import Scenario, SegmentSpec, SignalSource
from .stats import SafetyParams

_SECTION_RE = re.compile(r"^\[(?P<name>[A-Za-z0-9_.-]+)\]\s*$")
_KEY_RE = re.compile(r"^(?P<key>[A-Za-z0-9_.-]+)\s*=\s*(?P<value>.*)$")
_DURATION_RE = re.compile(r"^(?P<num>-?\d+(\.\d+)?)\s*(?P<unit>us|ms|s)?$")

_DURATION_SCALE = {"us": 1, "ms": 1000, "s": 1_000_000, None: 1}

_CELL_KEYS = {
    "masters", "tracks", "slots_per_track", "devices", "cycle",
    "subcycles", "subcycle", "channels", "blocklist", "min_hop_distance",
}
_SOURCE_KEYS = {"toggle_period", "sequences", "sequence_length", "dither"}
_PLC_KEYS = {"task_cycle", "query_cycle", "jitter"}
_SEGMENT_COMMON_KEYS = {"kind", "role"}
_MODEL_KEYS = {
    "constant": {"value"},
    "uniform": {"low", "high"},
    "truncnorm": {"mean", "stddev", "low", "high"},
    "empirical": {"bins"},
}
_FIVEG_META_KEYS = {"downlink_mbps", "uplink_mbps", "rssi_dbm"}


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


def _parse_sections(text: str, diags: list[Diagnostic]) -> dict[str, dict[str, _Raw]]:
    sections: dict[str, dict[str, _Raw]] = {}
    current: dict[str, _Raw] | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            name = m.group("name")
            if name in sections:
                diags.append(Diagnostic(lineno, 1, f"duplicate section [{name}]"))
            current = sections.setdefault(name, {})
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
        return float(raw.value)
    except ValueError:
        diags.append(Diagnostic(raw.line, raw.col, f"invalid number {raw.value!r}"))
        return None


def _check_keys(
    name: str,
    raw: dict[str, _Raw],
    allowed: set[str],
    diags: list[Diagnostic],
) -> None:
    for key, r in raw.items():
        if key not in allowed:
            diags.append(
                Diagnostic(r.line, r.col, f"unknown key {key!r} in section [{name}]")
            )


def _build_cell(raw: dict[str, _Raw], diags: list[Diagnostic]) -> IolwCellConfig:
    _check_keys("cell", raw, _CELL_KEYS, diags)
    kw: dict = {}
    if "masters" in raw:
        kw["masters"] = _int(raw["masters"], diags)
    if "tracks" in raw:
        kw["tracks_per_master"] = _int(raw["tracks"], diags)
    if "slots_per_track" in raw:
        kw["slots_per_track"] = _int(raw["slots_per_track"], diags)
    if "devices" in raw:
        kw["devices"] = _int(raw["devices"], diags)
    if "cycle" in raw:
        kw["cycle_us"] = _duration_us(raw["cycle"], diags)
    if "subcycles" in raw:
        kw["subcycles_per_cycle"] = _int(raw["subcycles"], diags)
    if "subcycle" in raw:
        kw["subcycle_us"] = _duration_us(raw["subcycle"], diags)
    if "channels" in raw:
        kw["channel_count"] = _int(raw["channels"], diags)
    if "min_hop_distance" in raw:
        kw["min_hop_distance"] = _int(raw["min_hop_distance"], diags)
    if "blocklist" in raw and raw["blocklist"].value:
        try:
            kw["blocklist"] = frozenset(
                int(tok) for tok in raw["blocklist"].value.split(",") if tok.strip()
            )
        except ValueError:
            r = raw["blocklist"]
            diags.append(Diagnostic(r.line, r.col, f"invalid blocklist {r.value!r}"))
    if any(v is None for v in kw.values()):
        return IolwCellConfig()
    return IolwCellConfig(**kw)


def _build_model(
    sid: str, raw: dict[str, _Raw], diags: list[Diagnostic]
) -> LatencyModel | None:
    kind_raw = raw.get("model")
    if kind_raw is None:
        diags.append(Diagnostic(0, 0, f"segment {sid!r} is missing a latency model"))
        return None
    kind = kind_raw.value
    if kind not in _MODEL_KEYS:
        diags.append(
            Diagnostic(kind_raw.line, kind_raw.col, f"unknown model kind {kind!r}")
        )
        return None
    needed = _MODEL_KEYS[kind]
    missing = [k for k in sorted(needed) if k not in raw]
    if missing:
        diags.append(
            Diagnostic(
                kind_raw.line, kind_raw.col,
                f"segment {sid!r}: model {kind!r} is missing keys {missing}",
            )
        )
        return None
    if kind == "constant":
        v = _duration_us(raw["value"], diags)
        return Constant(v) if v is not None else None
    if kind == "uniform":
        lo = _duration_us(raw["low"], diags)
        hi = _duration_us(raw["high"], diags)
        return Uniform(lo, hi) if lo is not None and hi is not None else None
    if kind == "truncnorm":
        mean = _duration_us(raw["mean"], diags)
        sd = _duration_us(raw["stddev"], diags)
        lo = _duration_us(raw["low"], diags)
        hi = _duration_us(raw["high"], diags)
        if None in (mean, sd, lo, hi):
            return None
        return TruncNormal(float(mean), float(sd), lo, hi)
    # empirical: "value:weight, value:weight, ..."
    r = raw["bins"]
    bins = []
    for tok in r.value.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            diags.append(Diagnostic(r.line, r.col, f"invalid empirical bin {tok!r}"))
            return None
        dur_s, weight_s = tok.split(":", 1)
        d = _duration_us(_Raw(dur_s.strip(), r.line, r.col), diags)
        try:
            w = float(weight_s)
        except ValueError:
            diags.append(Diagnostic(r.line, r.col, f"invalid bin weight {weight_s!r}"))
            return None
        if d is None:
            return None
        bins.append((d, w))
    return Empirical(tuple(bins))


def _build_segment(
    sid: str, raw: dict[str, _Raw], cell: IolwCellConfig, diags: list[Diagnostic]
) -> SegmentSpec | None:
    kind_raw = raw.get("kind")
    if kind_raw is None:
        diags.append(Diagnostic(0, 0, f"segment {sid!r} has no kind"))
        return None
    kind = kind_raw.value
    role = "both"
    if "role" in raw:
        role = raw["role"].value
        if role not in ("forward", "return", "both"):
            r = raw["role"]
            diags.append(Diagnostic(r.line, r.col, f"invalid role {role!r}"))
            role = "both"
    n = len(diags)
    if kind in ("iol-wire", "ethernet", "fiveg"):
        allowed = _SEGMENT_COMMON_KEYS | {"model"} | set().union(*_MODEL_KEYS.values())
        if kind == "fiveg":
            allowed |= _FIVEG_META_KEYS
        _check_keys(f"segment.{sid}", raw, allowed, diags)
        model = _build_model(sid, raw, diags)
        meta = None
        if kind == "fiveg" and any(k in raw for k in _FIVEG_META_KEYS):
            meta = LinkBudgetMeta(
                downlink_mbps=_float(raw["downlink_mbps"], diags) or 0.0
                if "downlink_mbps" in raw else 0.0,
                uplink_mbps=_float(raw["uplink_mbps"], diags) or 0.0
                if "uplink_mbps" in raw else 0.0,
                rssi_dbm=_float(raw["rssi_dbm"], diags) if "rssi_dbm" in raw else None,
            )
        if model is None or len(diags) > n:
            return None
        for msg in model.validate():
            diags.append(Diagnostic(kind_raw.line, kind_raw.col, f"segment {sid!r}: {msg}"))
        return SegmentSpec(id=sid, kind=kind, model=model, role=role, link_meta=meta)
    if kind == "iolw-air":
        _check_keys(
            f"segment.{sid}", raw,
            _SEGMENT_COMMON_KEYS | {"completion_offset", "error_prob", "max_attempts"},
            diags,
        )
        offset = (
            _duration_us(raw["completion_offset"], diags)
            if "completion_offset" in raw else 0
        )
        prob = _float(raw["error_prob"], diags) if "error_prob" in raw else 0.0
        attempts = (
            _int(raw["max_attempts"], diags)
            if "max_attempts" in raw else cell.subcycles_per_cycle
        )
        if len(diags) > n or offset is None or prob is None or attempts is None:
            return None
        transfer = IolwTransferModel(
            completion_offset_us=offset,
            per_subcycle_error_prob=prob,
            max_attempts=attempts,
        )
        for msg in transfer.validate(cell):
            diags.append(Diagnostic(kind_raw.line, kind_raw.col, f"segment {sid!r}: {msg}"))
        return SegmentSpec(id=sid, kind=kind, transfer=transfer, role=role)
    if kind == "plc":
        _check_keys(f"segment.{sid}", raw, _SEGMENT_COMMON_KEYS, diags)
        return SegmentSpec(id=sid, kind=kind, role=role)
    diags.append(
        Diagnostic(kind_raw.line, kind_raw.col, f"unknown segment kind {kind!r}")
    )
    return None


def _build_paths(
    raw: dict[str, _Raw],
    segments: dict[str, SegmentSpec],
    diags: list[Diagnostic],
) -> tuple[list[str], list[str]]:
    _check_keys("path", raw, {"forward", "return"}, diags)

    def resolve(key: str, direction: str) -> list[str]:
        r = raw.get(key)
        if r is None:
            diags.append(Diagnostic(0, 0, f"[path] is missing {key!r}"))
            return []
        ids = [tok.strip() for tok in r.value.split(",") if tok.strip()]
        for sid in ids:
            seg = segments.get(sid)
            if seg is None:
                diags.append(Diagnostic(r.line, r.col, f"unresolved segment id {sid!r}"))
            elif seg.role not in ("both", direction):
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


def _build_source(raw: dict[str, _Raw], diags: list[Diagnostic]) -> SignalSource:
    _check_keys("source", raw, _SOURCE_KEYS, diags)
    kw: dict = {}
    if "toggle_period" in raw:
        kw["toggle_period_us"] = _duration_us(raw["toggle_period"], diags)
    if "sequences" in raw:
        kw["sequences"] = _int(raw["sequences"], diags)
    if "sequence_length" in raw:
        kw["sequence_length_us"] = _duration_us(raw["sequence_length"], diags)
    if "dither" in raw:
        kw["dither_us"] = _duration_us(raw["dither"], diags)
    if any(v is None for v in kw.values()):
        return SignalSource()
    return SignalSource(**kw)


def _build_plc(raw: dict[str, _Raw], diags: list[Diagnostic]) -> PlcConfig:
    _check_keys("plc", raw, _PLC_KEYS, diags)
    kw: dict = {}
    if "task_cycle" in raw:
        kw["task_cycle_us"] = _duration_us(raw["task_cycle"], diags)
    if "query_cycle" in raw:
        kw["query_cycle_us"] = _duration_us(raw["query_cycle"], diags)
    if "jitter" in raw:
        j = _duration_us(raw["jitter"], diags)
        if j is not None:
            kw["jitter"] = Constant(j)
    if any(v is None for v in kw.values()):
        return PlcConfig()
    return PlcConfig(**kw)


def _build_safety(raw: dict[str, _Raw], diags: list[Diagnostic]) -> SafetyParams:
    speed = 2.0
    maxima: list[tuple[str, int]] = []
    for key, r in raw.items():
        if key == "approach_speed":
            v = _float(r, diags)
            if v is not None:
                speed = v
        elif key.startswith("budget."):
            d = _duration_us(r, diags)
            if d is not None:
                maxima.append((key[len("budget."):], d))
        else:
            diags.append(
                Diagnostic(r.line, r.col, f"unknown key {key!r} in section [safety]")
            )
    return SafetyParams(approach_speed_mps=speed, segment_maxima=tuple(maxima))


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario; raises ScenarioError with all problems."""
    diags: list[Diagnostic] = []
    sections = _parse_sections(text, diags)

    known_plain = {"cell", "path", "source", "plc", "safety"}
    for name in sections:
        if name not in known_plain and not name.startswith("segment."):
            diags.append(Diagnostic(0, 0, f"unknown section [{name}]"))

    cell = _build_cell(sections.get("cell", {}), diags)
    for msg in validate_cell(cell):
        diags.append(Diagnostic(0, 0, f"[cell]: {msg}"))
    if not validate_cell(cell):
        try:
            # hop-plan feasibility is a configuration property; the plan
            # itself is regenerated per run
            generate_hop_plan(
                length=8,
                channel_count=cell.channel_count,
                blocklist=cell.blocklist,
                min_hop_distance=cell.min_hop_distance,
                seed=0,
                track_id=0,
            )
        except HopPlanError as exc:
            diags.append(Diagnostic(0, 0, f"[cell]: {exc}"))

    segments: dict[str, SegmentSpec] = {}
    for name, raw in sections.items():
        if not name.startswith("segment."):
            continue
        sid = name[len("segment."):]
        if not sid:
            diags.append(Diagnostic(0, 0, "segment section with empty id"))
            continue
        seg = _build_segment(sid, raw, cell, diags)
        if seg is not None:
            segments[sid] = seg

    forward, ret = _build_paths(sections.get("path", {}), segments, diags)
    source = _build_source(sections.get("source", {}), diags)
    for msg in source.validate():
        diags.append(Diagnostic(0, 0, f"[source]: {msg}"))
    plc_cfg = _build_plc(sections.get("plc", {}), diags)
    for msg in plc_cfg.validate():
        diags.append(Diagnostic(0, 0, f"[plc]: {msg}"))
    safety = _build_safety(sections.get("safety", {}), diags)
    for msg in safety.validate():
        diags.append(Diagnostic(0, 0, f"[safety]: {msg}"))

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
