"""Pipeline orchestration and alert reporting.

``detect`` runs ingest output through fact extraction and rule evaluation,
then maps every atom of the anomaly catalog to an :class:`Alert` carrying
its derivation, a DAG of :class:`~stratalog.engine.DerivationNode`; all
alerts of a run are explained through one memo. Alerts render as indented
text for reading or as json-lines for machines, each derivation as a DAG:
a derived atom met again inside one alert refers back to its first
occurrence (``[see #k]``, or a JSON ``see`` object). Each render call
formats every constant, atom, rule tag and day once. Both renderings are
byte-deterministic for a fixed input and configuration.

Pipeline failures surface as :class:`StageError` naming the failing stage;
a violated constraint is not an error but a distinguished result
(:class:`stratalog.engine.Inconsistent`) that callers must handle.
"""
from __future__ import annotations

import json
from collections import Counter
from datetime import datetime, timezone, tzinfo
from pathlib import Path
from types import MappingProxyType
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .engine import (
    ComparisonCheck,
    DerivationGraph,
    DerivationNode,
    Inconsistent,
    Model,
    ThresholdCheck,
    _explain,
    evaluate,
    query,
)
from .extract import DEFAULT_TABLE, MappingTable, entries_to_facts
from .facts import (
    Constant,
    Fact,
    Symbol,
    constant_key,
    format_constant,
    write_facts_file,
)
from .ingest import (
    DEFAULT_BASE_YEAR,
    IngestOptions,
    IngestResult,
    LogEntry,
    iter_csv_entries,
    iter_syslog_entries,
)
from .lang import Program
from .parser import override_consts, parse_facts, parse_program
from .rules import ANOMALY_CATALOG, RULES_TEXT


class StageError(Exception):
    """A pipeline stage failed; ``stage`` names which one."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        self.message = message
        super().__init__(f"{stage}: {message}")


class _RunFields(NamedTuple):
    input_path: str
    input_format: str = "csv"  # csv | syslog
    base_year: int = DEFAULT_BASE_YEAR
    zone: tzinfo = timezone.utc
    overrides: Mapping[str, int] = MappingProxyType({})
    rules_path: Optional[str] = None
    extra_facts_path: Optional[str] = None
    facts_out: Optional[str] = None
    emit_rules: Optional[str] = None
    output: str = "text"  # text | json
    group: bool = False
    mapping_table: MappingTable = DEFAULT_TABLE


class RunConfig(_RunFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.input_format not in ("csv", "syslog"):
            raise ValueError(f"input_format must be csv or syslog, got {self.input_format!r}")
        if self.output not in ("text", "json"):
            raise ValueError(f"output must be text or json, got {self.output!r}")
        return self


class Alert(NamedTuple):
    kind: str
    entities: dict[str, Constant]
    timestamps: list[int]
    atom: Fact
    explanation: DerivationNode

    def sort_key(self) -> tuple:
        return (self.kind,
                tuple(constant_key(v) for v in self.entities.values()),
                tuple(self.timestamps))


class GroupedAlert(NamedTuple):
    kind: str
    entities: dict[str, Constant]
    count: int
    first_timestamp: Optional[int]
    last_timestamp: Optional[int]


# -- pipeline stages ----------------------------------------------------------


def stream_entries(config: RunConfig, result: IngestResult) -> Iterator[LogEntry]:
    """Yield the configured input file's entries as they are read ("ingest"
    stage), writing skip reasons into ``result``. The file opens at the
    first entry asked for; a reader error, raised then or partway through
    the file, becomes a :class:`StageError`."""
    options = IngestOptions(base_year=config.base_year, zone=config.zone)
    read = iter_csv_entries if config.input_format == "csv" else iter_syslog_entries
    try:
        with open(config.input_path, encoding="utf-8", errors="replace",
                  newline="") as stream:
            yield from read(stream, options, result)
    except (OSError, ValueError) as exc:
        raise StageError("ingest", str(exc)) from exc


def load_entries(config: RunConfig) -> tuple[list[LogEntry], IngestResult]:
    """Ingest the configured input file ("ingest" stage): every entry of
    :func:`stream_entries`, kept in ``result.records``."""
    result = IngestResult()
    result.records.extend(stream_entries(config, result))
    return result.records, result


def load_program(config: RunConfig) -> Program:
    """Resolve and parse the rule program ("rules" stage): the rule text,
    ``RULES_TEXT`` or the ``rules_path`` file, with the configured
    ``#const`` values set in it, which is also the text ``emit_rules``
    receives."""
    try:
        text = (RULES_TEXT if config.rules_path is None
                else Path(config.rules_path).read_text(encoding="utf-8"))
        text = override_consts(text, config.overrides)
        if config.emit_rules:
            Path(config.emit_rules).write_text(text, encoding="utf-8")
        return parse_program(text)
    except (OSError, ValueError) as exc:
        raise StageError("rules", str(exc)) from exc


def _load_extra_facts(config: RunConfig) -> list[Fact]:
    if not config.extra_facts_path:
        return []
    try:
        text = Path(config.extra_facts_path).read_text(encoding="utf-8")
        return parse_facts(text)
    except (OSError, ValueError) as exc:
        raise StageError("facts", str(exc)) from exc


def _alerts_from_model(model: Model, graph: DerivationGraph) -> list[Alert]:
    """Every catalog alert of the model, explained through one memo, so an
    atom that several alerts rest on is resolved once."""
    alerts: list[Alert] = []
    nodes: dict[tuple, DerivationNode] = {}
    for entry in ANOMALY_CATALOG:
        for atom in query(model, entry.predicate):
            if len(atom.args) != entry.arity:
                continue
            entities: dict[str, Constant] = {}
            timestamps: list[int] = []
            for role, value in zip(entry.arg_roles, atom.args):
                if role == "timestamp" and isinstance(value, int):
                    timestamps.append(value)
                else:
                    entities[role] = value
            alerts.append(Alert(entry.kind, entities, timestamps, atom,
                                _explain(graph, atom, nodes)))
    alerts.sort(key=Alert.sort_key)
    return alerts


def detect(entries: Iterable[LogEntry],
           config: RunConfig) -> Union[list[Alert], Inconsistent]:
    """Extract facts, evaluate the rules, and collect catalog alerts.

    ``entries`` is consumed once, as the first step, so it may be the live
    iterator of :func:`stream_entries`.

    Returns the violated-constraint result instead of alerts when the
    program is inconsistent over these facts.
    """
    facts = entries_to_facts(entries, config.mapping_table)
    facts.extend(_load_extra_facts(config))
    program = load_program(config)
    if config.facts_out:
        try:
            with open(config.facts_out, "w", encoding="utf-8") as sink:
                write_facts_file(facts, sink)
        except OSError as exc:
            raise StageError("facts", str(exc)) from exc
    try:
        result = evaluate(program, facts)
    except ValueError as exc:
        raise StageError("evaluate", str(exc)) from exc
    if isinstance(result, Inconsistent):
        return result
    model, graph = result
    return _alerts_from_model(model, graph)


def group_alerts(alerts: Sequence[Alert]) -> list[GroupedAlert]:
    """Collapse alerts sharing (kind, entities) into one summary each."""
    groups: dict[tuple, list[Alert]] = {}
    for alert in alerts:
        groups.setdefault((alert.kind, tuple(alert.entities.items())), []).append(alert)
    summaries = []
    for members in groups.values():
        stamps = [ts for alert in members for ts in alert.timestamps]
        summaries.append(GroupedAlert(members[0].kind, dict(members[0].entities), len(members),
                                      min(stamps, default=None), max(stamps, default=None)))
    return summaries


# -- rendering -----------------------------------------------------------------


def _iso(ts: int) -> str:
    try:
        return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()
    except (OverflowError, OSError, ValueError):
        raise StageError("report", "a timestamp is outside the years 1 to 9999") from None


class _Constants(dict):
    """Each constant's text, formatted when first asked for."""

    __slots__ = ()

    def __missing__(self, value: Constant) -> str:
        text = self[value] = str(value) if value.__class__ is int else format_constant(value)
        return text


class _Atoms(dict):
    """Each atom's text, formatted when first asked for."""

    __slots__ = ("constants",)

    def __init__(self, constants: _Constants) -> None:
        super().__init__()
        self.constants = constants

    def __missing__(self, atom: Fact) -> str:
        predicate, args = atom
        text = self[atom] = (f"{predicate}({','.join(map(self.constants.__getitem__, args))})"
                             if args else predicate)
        return text


class _Days(dict):
    """Each day's ISO date prefix, ``YYYY-MM-DDT``; a day is 86,400
    seconds in UTC, which has no leap seconds."""

    __slots__ = ()

    def __missing__(self, day: int) -> str:
        prefix = self[day] = _iso(day * 86400)[:11]
        return prefix


class _Texts:
    """What one render call formats once: each constant's text, each
    atom's, each rule's tag (by ``id``, as its ``  [rule at L:C]`` suffix
    and its ``L:C`` position) and each day's ISO date prefix."""

    __slots__ = ("constants", "atoms", "tags", "positions", "days")

    def __init__(self) -> None:
        self.constants = _Constants()
        self.atoms = _Atoms(self.constants)
        self.tags: dict[int, str] = {}
        self.positions: dict[int, str] = {}
        self.days = _Days()

    def tag(self, rule) -> str:
        """Store and return the rule's tag; a caller reads ``tags`` first."""
        tag = self.tags[id(rule)] = f"  [rule at {self.position(rule)}]"
        return tag

    def position(self, rule) -> str:
        position = self.positions.get(id(rule))
        if position is None:
            span = rule.span
            position = self.positions[id(rule)] = f"{span.line}:{span.column}"
        return position

    def iso(self, ts: int) -> str:
        """``_iso(ts)``, its date worked out once per day."""
        day, seconds = divmod(ts, 86400)
        minutes, second = divmod(seconds, 60)
        hour, minute = divmod(minutes, 60)
        return f"{self.days[day]}{hour:02d}:{minute:02d}:{second:02d}+00:00"

    def check(self, check) -> str:
        """A check's line: a :class:`ThresholdCheck` reads as a threshold
        statement."""
        kind, constants = type(check), self.constants
        if kind is ThresholdCheck:
            return f"count {constants[check.left]} {check.op} threshold {constants[check.right]}"
        if kind is ComparisonCheck:
            return f"{constants[check.left]} {check.op} {constants[check.right]}"
        return str(check)


#: The deepest level of a derivation line that is indented; a deeper line
#: keeps this indentation and starts with its level, as ``[33] ``, so the
#: text of a derivation grows linearly with its depth.
MAX_INDENT = 32

_PADS = tuple("  " * level for level in range(MAX_INDENT + 1))


def _pad(level: int) -> str:
    if level <= MAX_INDENT:
        return _PADS[level]
    return f"{_PADS[MAX_INDENT]}[{level}] "


def _render_node(root: DerivationNode, indent: int, texts: _Texts, lines: list[str]) -> None:
    """Indented text of a derivation DAG: each atom's line, then, for a
    derived atom, its supports and its checks. The first line of a derived
    atom unfolds it; a later one is ``[see #k]``, k the first one's place
    among the atom lines, counting from 1. Iterative, so any depth renders."""
    atoms, tags, check = texts.atoms, texts.tags, texts.check
    seen: dict[Fact, int] = {}  # derived atom -> the number of its first line
    number = 0
    # per atom being unfolded: its supports still to print, their level, and
    # its check lines, which follow them
    stack: list[tuple[Iterator[DerivationNode], int, list[str]]] = [(iter((root,)), indent, [])]
    while stack:
        nodes, depth, after = stack[-1]
        pad = _pad(depth)
        for atom, rule, checks, children in nodes:
            number += 1
            if rule is None:
                lines.append(f"{pad}{atoms[atom]}  [input fact]")
                continue
            first = seen.get(atom)
            if first is not None:
                lines.append(f"{pad}{atoms[atom]}  [see #{first}]")
                continue
            seen[atom] = number
            lines.append(f"{pad}{atoms[atom]}{tags.get(id(rule)) or texts.tag(rule)}")
            below = _pad(depth + 1)
            stack.append((iter(children), depth + 1, [below + check(c) for c in checks]))
            break
        else:
            stack.pop()
            lines.extend(after)


def _header(kind: str, entities: dict[str, Constant], parts: Sequence[str],
            texts: _Texts) -> str:
    constants = texts.constants
    return " ".join([f"{kind}:",
                     *(f"{role}={constants[value]}" for role, value in entities.items()),
                     *parts])


def _summary_line(kinds: Sequence[str]) -> str:
    if not kinds:
        return "total: 0"
    detail = ", ".join(f"{kind}: {n}" for kind, n in sorted(Counter(kinds).items()))
    return f"total: {len(kinds)} ({detail})"


def _json_value(value: Constant):
    if isinstance(value, Symbol):
        return value.name
    return value


def _json_time(ts: Optional[int], texts: _Texts) -> Optional[dict]:
    return None if ts is None else {"unix": ts, "iso": texts.iso(ts)}


def _json_explanation(root: DerivationNode, texts: _Texts) -> dict:
    """The JSON of a derivation DAG: one object per atom, numbered from 1
    in pre-order. A derived atom's first object unfolds it; a later one is
    ``{"atom": ..., "see": k}``, k the first one's number."""
    atoms, check = texts.atoms, texts.check
    seen: dict[Fact, int] = {}
    number = 0
    records: list[dict] = []
    pending: list[tuple[list[dict], DerivationNode]] = [(records, root)]
    while pending:
        siblings, (atom, rule, checks, children) = pending.pop()
        number += 1
        if rule is None:
            siblings.append({"atom": atoms[atom], "rule": None, "checks": [], "supports": []})
            continue
        first = seen.get(atom)
        if first is not None:
            siblings.append({"atom": atoms[atom], "see": first})
            continue
        seen[atom] = number
        supports: list[dict] = []
        siblings.append({"atom": atoms[atom], "rule": texts.position(rule),
                         "checks": [check(c) for c in checks], "supports": supports})
        pending.extend(zip(repeat(supports), reversed(children)))
    return records[0]


_Row = Union[Alert, GroupedAlert]


def _render(rows: Sequence[_Row], output: str, kinds: Sequence[str],
            record: Callable[[_Row, _Texts], dict],
            text: Callable[[_Row, _Texts], tuple[list[str], list[str]]]) -> str:
    """The report skeleton shared by alerts and grouped summaries.

    json: one object per row, its kind and entities first, then the fields
    ``record`` gives. text: per row a header line (kind, entities, then the
    parts ``text`` gives) followed by the row's own lines, and a closing
    summary line counting ``kinds``. Both callbacks format through the
    call's one :class:`_Texts`.
    """
    texts = _Texts()
    if output == "json":
        try:
            return "".join(
                json.dumps({"kind": row.kind,
                            **{role: _json_value(value) for role, value in row.entities.items()},
                            **record(row, texts)}) + "\n"
                for row in rows)
        except RecursionError:  # json.dumps recurses once per nesting level
            raise StageError("report", "derivation too deep to encode as JSON") from None
    lines = [] if rows else ["no anomalies detected"]
    for row in rows:
        parts, body = text(row, texts)
        lines.append(_header(row.kind, row.entities, parts, texts))
        lines.extend(body)
    lines.append(_summary_line(kinds))
    return "\n".join(lines) + "\n"


def render_alerts(alerts: Sequence[Alert], output: str) -> str:
    """Render alerts as readable text or json-lines (one object per alert).

    Each alert's derivation prints as a DAG: inside one alert, a derived
    atom that occurs again prints as ``{pad}{atom}  [see #k]`` in text and
    as ``{"atom": ..., "see": k}`` in JSON, k the place of its first
    occurrence among the alert's atoms in pre-order, the root being 1.
    Input facts repeat in full. Constants, atoms, rule tags and dates are
    formatted once per call."""
    def record(alert: Alert, texts: _Texts) -> dict:
        return {"timestamps": [_json_time(ts, texts) for ts in alert.timestamps],
                "explanation": _json_explanation(alert.explanation, texts)}

    def text(alert: Alert, texts: _Texts) -> tuple[list[str], list[str]]:
        body: list[str] = []
        _render_node(alert.explanation, 1, texts, body)
        body.append("")
        return [f"at {ts} ({texts.iso(ts)})" for ts in alert.timestamps], body

    return _render(alerts, output, [a.kind for a in alerts], record, text)


def render_grouped(groups: Sequence[GroupedAlert], output: str) -> str:
    """Render grouped summaries in the same two formats."""
    def record(g: GroupedAlert, texts: _Texts) -> dict:
        return {"count": g.count, "first": _json_time(g.first_timestamp, texts),
                "last": _json_time(g.last_timestamp, texts)}

    def text(g: GroupedAlert, texts: _Texts) -> tuple[list[str], list[str]]:
        parts = [f"count={g.count}"]
        if g.first_timestamp is not None:
            parts.append(f"first={g.first_timestamp} ({texts.iso(g.first_timestamp)})")
            parts.append(f"last={g.last_timestamp} ({texts.iso(g.last_timestamp)})")
        return parts, []

    kinds = [g.kind for g in groups for _ in range(g.count)]
    return _render(groups, output, kinds, record, text)


def render_inconsistent(result: Inconsistent, output: str) -> str:
    """Report a violated constraint in either format."""
    if output == "json":
        record = {
            "inconsistent": True,
            "constraint": f"{result.constraint.span.line}:{result.constraint.span.column}",
            "witness": {name: _json_value(value)
                        for name, value in sorted(result.witness.items())},
        }
        return json.dumps(record) + "\n"
    return f"inconsistent: {result}\n"
