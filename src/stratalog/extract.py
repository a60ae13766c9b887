"""Turn parsed log entries into logical facts.

A mapping table decides which entries matter: each row matches on a
component-name prefix and/or a content substring, and names the fact schema
to emit. The first matching row wins; entries no row matches produce no
facts, which is the common case. Field values (IP, username, uid) are pulled
out of the free-text content with the extraction regexes below; missing
values fall back to the "unknown" sentinel so one unparsable line cannot
drop an otherwise meaningful event.

The default table covers the Linux syslog vocabulary the bundled detection
rules consume. A table is a tuple of :class:`MappingRule` rows, so a new log
source needs a new table, not new code.

Entries repeat a few component names many times, so a call compiles the
table once per distinct component: the rows whose prefix it passes, in
table order. Each entry then tests only those rows' substrings against its
content, with the outcome of trying every row through
:meth:`MappingRule.matches` in turn.
"""
from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional

from .facts import Fact, Symbol
from .ingest import LogEntry

IPV4_PATTERN = re.compile(r"(\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})")
USERNAME_PATTERN = re.compile(r"(?:user=|for user |by user )(\w+)")
UID_PATTERN = re.compile(r"\(uid=(\d+)\)")

UNKNOWN = "unknown"

# Fact schemas the pipeline can emit (predicate -> arity). account_action and
# dormant_account have no log-line source; they arrive via a supplemental
# facts file.
SCHEMAS: dict[str, int] = {
    "login_attempt": 4,        # login_attempt(ip, timestamp, status, user)
    "session": 4,              # session(user, uid, type, timestamp)
    "network_connection": 2,   # network_connection(ip, timestamp)
    "account_action": 3,       # account_action(action, user, timestamp)
    "klogind_auth_failure": 2, # klogind_auth_failure(ip, timestamp)
    "gdm_auth_failure": 1,     # gdm_auth_failure(timestamp)
    "logrotate_abnormal_exit": 1,
    "named_soa_error": 1,
    "xinetd_connection_reset": 1,
    "dormant_account": 1,      # dormant_account(user)
}

# Schemas a table row may emit; the rest carry no timestamp-derivable
# arguments and can only come from a supplemental facts file.
LOG_SOURCED = frozenset(SCHEMAS) - {"account_action", "dormant_account"}


def extract_ip(content: str) -> Optional[str]:
    """First IPv4-shaped token; octets are not range-checked."""
    match = IPV4_PATTERN.search(content)
    return match.group(1) if match else None


def extract_username(content: str) -> Optional[str]:
    """First username following a ``user=``/``for user``/``by user`` marker."""
    match = USERNAME_PATTERN.search(content)
    return match.group(1) if match else None


def extract_uid(content: str) -> Optional[int]:
    """Invoking uid from the parenthesized ``(uid=N)`` suffix."""
    match = UID_PATTERN.search(content)
    return int(match.group(1)) if match else None


class MappingError(ValueError):
    pass


class _MappingFields(NamedTuple):
    name: str
    predicate: str
    component_prefix: str = ""
    content_contains: str = ""
    case_insensitive: bool = False
    require_ip: bool = False
    status: str = ""


class MappingRule(_MappingFields):
    """One row of the mapping table, checked when built.

    Empty ``component_prefix``/``content_contains`` match anything. ``status``
    feeds the symbolic status/type argument of login_attempt and session rows.
    ``require_ip`` suppresses the unknown-IP fallback: no address, no fact.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> MappingRule:
        self = super().__new__(cls, *args, **kwargs)
        if self.predicate not in SCHEMAS:
            raise MappingError(f"row {self.name!r}: unknown fact schema {self.predicate!r}")
        if self.predicate not in LOG_SOURCED:
            raise MappingError(
                f"row {self.name!r}: {self.predicate} facts cannot be derived from "
                "log lines; supply them in a supplemental facts file")
        return self

    def matches(self, component: str, content: str) -> bool:
        if self.case_insensitive:
            component, content = component.lower(), content.lower()
            prefix, needle = self.component_prefix.lower(), self.content_contains.lower()
        else:
            prefix, needle = self.component_prefix, self.content_contains
        return component.startswith(prefix) and needle in content


MappingTable = tuple[MappingRule, ...]

DEFAULT_TABLE: MappingTable = (
    MappingRule("ssh_failed_login", "login_attempt",
                component_prefix="sshd(pam_unix)",
                content_contains="authentication failure", status="failed"),
    MappingRule("ssh_password_accepted", "login_attempt",
                content_contains="Accepted password for", status="success"),
    MappingRule("ssh_publickey_accepted", "login_attempt",
                content_contains="Accepted publickey for", status="success"),
    MappingRule("session_opened", "session",
                content_contains="session opened for user", status="opened"),
    MappingRule("session_closed", "session",
                content_contains="session closed for user", status="closed"),
    MappingRule("ftpd_connection", "network_connection",
                component_prefix="ftpd", require_ip=True),
    MappingRule("generic_connection", "network_connection",
                content_contains="connection from", require_ip=True),
    MappingRule("klogind_failure", "klogind_auth_failure",
                component_prefix="klogind",
                content_contains="Authentication failed"),
    MappingRule("gdm_failure", "gdm_auth_failure",
                component_prefix="gdm",
                content_contains="authentication failure"),
    MappingRule("logrotate_exit", "logrotate_abnormal_exit",
                component_prefix="logrotate",
                content_contains="exited abnormally"),
    MappingRule("named_soa", "named_soa_error",
                component_prefix="named", content_contains="SOA"),
    MappingRule("xinetd_reset", "xinetd_connection_reset",
                component_prefix="xinetd",
                content_contains="Connection reset", case_insensitive=True),
)


class _Statuses(dict):
    """Status symbols by name, each built on its first use in a call."""

    def __missing__(self, status: str) -> Symbol:
        symbol = self[status] = Symbol(status)
        return symbol


def _build_fact(row: MappingRule, entry: LogEntry, statuses: _Statuses) -> Optional[Fact]:
    content = entry.content
    timestamp = entry.timestamp
    ip = extract_ip(content)
    if row.require_ip and ip is None:
        return None
    predicate = row.predicate
    if predicate == "login_attempt":
        user = extract_username(content) or UNKNOWN
        return Fact(predicate, (ip or UNKNOWN, timestamp, statuses[row.status], user))
    if predicate == "session":
        user = extract_username(content) or UNKNOWN
        uid = extract_uid(content)
        return Fact(predicate, (user, -1 if uid is None else uid,
                                statuses[row.status], timestamp))
    if predicate in ("network_connection", "klogind_auth_failure"):
        return Fact(predicate, (ip or UNKNOWN, timestamp))
    # single-argument event markers
    return Fact(predicate, (timestamp,))


def _rows_passing(table: MappingTable, component: str) -> list[tuple[MappingRule, str]]:
    """The rows whose prefix the component passes, in table order, each with
    the needle to look for: lowercased when the row ignores case."""
    lowered = component.lower()
    rows = []
    for row in table:
        if row.case_insensitive:
            if lowered.startswith(row.component_prefix.lower()):
                rows.append((row, row.content_contains.lower()))
        elif component.startswith(row.component_prefix):
            rows.append((row, row.content_contains))
    return rows


def entry_to_facts(entry: LogEntry, table: MappingTable = DEFAULT_TABLE) -> list[Fact]:
    """Facts for one entry under the first matching table row; unmapped
    entries yield an empty list."""
    return entries_to_facts((entry,), table)


def entries_to_facts(entries: Iterable[LogEntry],
                     table: MappingTable = DEFAULT_TABLE) -> list[Fact]:
    """Facts for many entries, in entry order, duplicates preserved; each
    entry's come from the first table row that matches it. ``entries`` is
    iterated once, so it may be an iterator."""
    rows_for: dict[str, list[tuple[MappingRule, str]]] = {}
    statuses = _Statuses()
    out: list[Fact] = []
    for entry in entries:
        component = entry.component
        rows = rows_for.get(component)
        if rows is None:
            rows = rows_for[component] = _rows_passing(table, component)
        content = entry.content
        lowered = None
        for row, needle in rows:
            if row.case_insensitive:
                if lowered is None:
                    lowered = content.lower()
                if needle not in lowered:
                    continue
            elif needle not in content:
                continue
            built = _build_fact(row, entry, statuses)
            if built is not None:
                out.append(built)
            break
    return out
