"""Seeded corpus generator and the reference alert counts it implies.

Every workload is drawn from a seed: the same seed writes byte-identical
files. The line vocabulary comes from two places in the repository: the
mapping table ``stratalog.extract.DEFAULT_TABLE`` (component prefixes and
content needles) and the ``SYSLOG_SAMPLE`` corpus in ``tests/conftest.py``
(whose lines become templates verbatim, with addresses, users and uids
turned into placeholders). The program under test sees only the written
files.

The reference counts are computed here, in plain Python, from the events
the generator drew: an inclusive sliding window per address for brute
force, per-address counts for connections and klogind, one global count
for gdm. The engine plays no part in them.

Workloads (sizes are per pass; each seed changes addresses, users, times
and line order but not the amount of work):

``hot``
    one address, 300 failed sshd logins 2 s apart, syslog format.
``spread``
    20,000 structured CSV rows, 300 addresses, ~65 % noise, every bundled
    rule package fires; an extra-facts file carries account facts.
``closure``
    three transitive-closure programs over chains: non-linear (N=32),
    delta-inner linear (N=70) and delta-first linear (N=180).
"""
from __future__ import annotations

import ast
import calendar
import csv
import io
import json
import random
import re
import time
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from stratalog.extract import DEFAULT_TABLE
from stratalog.rules import Thresholds

ROOT = Path(__file__).resolve().parent.parent
CONFTEST = ROOT / "tests" / "conftest.py"

WORKLOADS = ("hot", "spread", "closure")
YEAR = 2005
START = calendar.timegm((YEAR, 6, 1, 0, 0, 0))
HOST = "combo"
CSV_HEADER = ("LineId", "Month", "Date", "Time", "Level", "Component", "PID",
              "Content", "EventId", "EventTemplate")
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

ROWS = {row.name: row for row in DEFAULT_TABLE}

# Templates for table rows the sample has no line for. "{prefix}" and
# "{needle}" are the row's component prefix and content needle.
_BUILTIN = {
    "ssh_password_accepted": ("sshd", "{needle} {user} from {ip} port {port} ssh2"),
    "ssh_publickey_accepted": ("sshd", "{needle} {user} from {ip} port {port} ssh2"),
    "ftpd_connection": ("{prefix}", "connection from {ip} () at {ctime}"),
    "generic_connection": ("telnetd", "{needle} {ip}"),
    "klogind_failure": ("{prefix}", "{needle} from {ip} ({ip}): Permission denied "
                                    "in replay cache code"),
    "gdm_failure": ("{prefix}(pam_unix)", "{needle}; logname= uid=0 euid=0 tty=:0 "
                                          "ruser= rhost=  user={user}"),
    "named_soa": ("{prefix}", "notify question section contains no {needle}"),
    "xinetd_reset": ("{prefix}", "warning: can't get client address: {needle} by peer"),
}

# Unmapped lines besides the sample's own; none contains a table needle.
_NOISE = (
    ("syslogd 1.4.1", "restart."),
    ("cups", "cupsd shutdown succeeded"),
    ("sshd", "Received disconnect from {ip}: 11: Bye Bye"),
    ("rpc.statd", "Version 1.0.6 Starting"),
    ("irqbalance", "irqbalance startup succeeded"),
    ("kernel", "eth0: link up, 100Mbps, full-duplex, lpa 0x41E1"),
    ("sendmail", "j5A4d1Xr{port}: from=root, size=1206, class=0, nrcpts=1"),
    ("smartd", "Device: /dev/hda, SMART Prefailure Attribute: 8 "
               "Seek_Time_Performance changed from 252 to 251"),
)

_USERS = ("root", "news", "test", "guest", "admin", "oracle", "cyrus", "mysql",
          "webmaster", "backup", "alice", "bob", "carol", "dave", "erin")


def _sample_lines() -> list[str]:
    """``SYSLOG_SAMPLE`` read from the test fixtures without importing them."""
    tree = ast.parse(CONFTEST.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SYSLOG_SAMPLE" for t in node.targets):
            return ast.literal_eval(node.value).splitlines()
    raise LookupError(f"no SYSLOG_SAMPLE in {CONFTEST}")


def _first_row(component: str, content: str) -> Optional[str]:
    for row in DEFAULT_TABLE:
        if row.matches(component, content):
            return row.name
    return None


def _placeholders(content: str) -> str:
    content = re.sub(r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}", "{ip}", content)
    content = re.sub(r"for user \w+", "for user {user}", content)
    return re.sub(r"\(uid=\d+\)", "(uid={uid})", content)


def vocabulary() -> tuple[dict[str, tuple[str, str]], tuple[tuple[str, str], ...]]:
    """(row name -> (component, content template), noise templates)."""
    templates: dict[str, tuple[str, str]] = {}
    noise: list[tuple[str, str]] = []
    for line in _sample_lines():
        _month, _day, _clock, _host, rest = line.split(None, 4)
        component, _, content = rest.partition(": ")
        component = re.sub(r"\[\d+\]$", "", component)
        name = _first_row(component, content)
        if name is None:
            noise.append((component, content))
        else:
            templates.setdefault(name, (component, _placeholders(content)))
    for name, (component, content) in _BUILTIN.items():
        row = ROWS[name]
        templates.setdefault(name, (
            component.replace("{prefix}", row.component_prefix),
            content.replace("{needle}", row.content_contains)))
    missing = set(ROWS) - set(templates)
    if missing:
        raise LookupError(f"no line template for table row(s) {sorted(missing)}")
    return templates, tuple(noise) + _NOISE


@dataclass(frozen=True)
class Event:
    """One log line to write; ``row`` is the table row it maps to, or None."""

    ts: int
    row: Optional[str]
    ip: str = ""
    user: str = ""
    uid: int = 0


# -- reference ----------------------------------------------------------------


def reference_counts(events: list[Event], actions: list[tuple[str, str, int]] = (),
                     dormant: frozenset[str] = frozenset()) -> dict[str, int]:
    """Expected number of alerts per kind, from the events alone."""
    limits = Thresholds()
    failed: dict[str, set[int]] = {}
    connections: dict[str, set[int]] = {}
    klogind: dict[str, set[int]] = {}
    gdm: set[int] = set()
    escalations: set[tuple[str, int]] = set()
    issues: set[tuple[str, int]] = set()
    for ev in events:
        if ev.row == "ssh_failed_login":
            failed.setdefault(ev.ip, set()).add(ev.ts)
        elif ev.row in ("ftpd_connection", "generic_connection"):
            connections.setdefault(ev.ip, set()).add(ev.ts)
        elif ev.row == "klogind_failure":
            klogind.setdefault(ev.ip, set()).add(ev.ts)
        elif ev.row == "gdm_failure":
            gdm.add(ev.ts)
        elif ev.row == "session_opened" and ev.uid == 0 and ev.user != "root":
            escalations.add((ev.user, ev.ts))
        elif ev.row in ("logrotate_exit", "named_soa", "xinetd_reset"):
            issues.add((ev.row, ev.ts))
    brute = 0
    for stamps in failed.values():
        ordered = sorted(stamps)
        for i, ts in enumerate(ordered):
            # both window edges inclusive: ts - window <= T <= ts
            in_window = i + 1 - bisect_left(ordered, ts - limits.login_time_window)
            brute += in_window >= limits.failed_login_threshold
    accounts = {(action, user, ts) for action, user, ts in actions
                if action == "create_admin" or (action == "reactivate" and user in dormant)}
    counts = {
        "potential_brute_force": brute,
        "potential_privilege_escalation": len(escalations),
        "network_anomaly": sum(len(s) >= limits.connection_threshold
                               for s in connections.values()),
        "account_anomaly": len(accounts),
        "potential_klogind_brute_force": sum(len(s) >= limits.klogind_failure_threshold
                                             for s in klogind.values()),
        "potential_gdm_brute_force": len(gdm) if len(gdm) >= limits.gdm_failure_threshold else 0,
        "system_issue": len(issues),
    }
    return {kind: n for kind, n in counts.items() if n}


# -- drawing events -----------------------------------------------------------


class _Draw:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def ips(self, n: int) -> list[str]:
        seen: dict[str, None] = {}
        while len(seen) < n:
            r = self.rng
            seen[f"{r.randint(11, 223)}.{r.randint(0, 255)}."
                 f"{r.randint(0, 255)}.{r.randint(1, 254)}"] = None
        return list(seen)

    def times(self, n: int, start: int, span: int) -> list[int]:
        return [start + self.rng.randrange(span) for _ in range(n)]

    def user(self, exclude: str = "") -> str:
        while True:
            name = self.rng.choice(_USERS)
            if name != exclude:
                return name

    def burst(self, n: int, start: int, gap: tuple[int, int]) -> list[int]:
        out, ts = [], start
        for _ in range(n):
            out.append(ts)
            ts += self.rng.randint(*gap)
        return out


def _hot(draw: _Draw) -> list[Event]:
    (ip,) = draw.ips(1)
    start = START + draw.rng.randrange(3600)
    return [Event(start + 2 * i, "ssh_failed_login", ip=ip) for i in range(300)]


def _spread(draw: _Draw) -> tuple[list[Event], list[tuple[str, str, int]], frozenset[str]]:
    span = 3 * 86_400
    rng = draw.rng
    ips = draw.ips(300)
    events: list[Event] = []

    def burst(row: str, ip: str, n: int, gap: tuple[int, int], user: str = "") -> None:
        start = START + rng.randrange(span - n * gap[1])
        events.extend(Event(ts, row, ip=ip, user=user) for ts in draw.burst(n, start, gap))

    # 30 attackers with 12 failures 10-90 s apart; 10 with five failures
    # whose first and last are exactly 600 s apart (inside the inclusive
    # window) or 601 s apart (outside it); the rest with 4 spread out.
    for ip in ips[:30]:
        burst("ssh_failed_login", ip, 12, (10, 90), user=draw.user())
    for i, ip in enumerate(ips[30:40]):
        start = START + rng.randrange(span - 601)
        offsets = (0, 150, 300, 450, 600) if i % 2 else (0, 200, 400, 500, 601)
        events.extend(Event(start + dt, "ssh_failed_login", ip=ip) for dt in offsets)
    for ip in ips[40:]:
        for ts in draw.times(4, START, span):
            events.append(Event(ts, "ssh_failed_login", ip=ip))
    for ts in draw.times(600, START, span):
        events.append(Event(ts, rng.choice(("ssh_password_accepted", "ssh_publickey_accepted")),
                            ip=rng.choice(ips), user=draw.user()))
    for i, ts in enumerate(draw.times(1000, START, span)):
        if i % 50 == 0:  # non-root user in a uid-0 session
            events.append(Event(ts, "session_opened", user=draw.user("root"), uid=0))
        elif i % 2:
            events.append(Event(ts, "session_opened", user="root", uid=0))
        else:
            events.append(Event(ts, "session_opened", user=draw.user("root"),
                                uid=rng.randint(500, 520)))
        events.append(Event(ts + rng.randint(5, 3600), "session_closed", user=draw.user()))
    # 100 addresses with 15 ftpd connections, 100 with 5 generic ones.
    for ip in ips[100:200]:
        for ts in draw.times(15, START, span):
            events.append(Event(ts, "ftpd_connection", ip=ip))
    for ip in ips[200:300]:
        for ts in draw.times(5, START, span):
            events.append(Event(ts, "generic_connection", ip=ip))
    # 40 addresses past the klogind threshold, 40 below it.
    for i, ip in enumerate(ips[:80]):
        burst("klogind_failure", ip, 8 if i < 40 else 3, (1, 30))
    for ts in draw.times(300, START, span):
        events.append(Event(ts, "gdm_failure", user=draw.user()))
    for row, n in (("logrotate_exit", 20), ("named_soa", 50), ("xinetd_reset", 50)):
        events.extend(Event(ts, row) for ts in draw.times(n, START, span))
    for ts in draw.times(20_000 - len(events), START, span):
        events.append(Event(ts, None, ip=rng.choice(ips)))

    users = [f"svc{i:03d}" for i in range(40)]
    dormant = frozenset(users[:20])
    actions = [("create_admin", u, ts) for u, ts in zip(users[20:25], draw.times(5, START, span))]
    actions += [("reactivate", u, ts)
                for u, ts in zip(rng.sample(users, 12), draw.times(12, START, span))]
    return events, actions, dormant


# -- writing ------------------------------------------------------------------


class _Renderer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.templates, self.noise = vocabulary()
        names = sorted(self.templates)
        self.event_ids = {name: f"E{i + 1}" for i, name in enumerate(names)}
        self.noise_ids = [f"E{len(names) + i + 1}" for i in range(len(self.noise))]

    def line(self, ev: Event) -> tuple[str, str, str, str]:
        """(component, content, event id, event template) for one event."""
        if ev.row is None:
            k = self.rng.randrange(len(self.noise))
            component, template = self.noise[k]
            event_id = self.noise_ids[k]
        else:
            component, template = self.templates[ev.row]
            event_id = self.event_ids[ev.row]
        content = template
        for key, value in (("{ip}", ev.ip), ("{user}", ev.user), ("{uid}", str(ev.uid)),
                           ("{port}", str(self.rng.randint(1024, 65535))),
                           ("{ctime}", time.strftime("%a %b %d %H:%M:%S %Y",
                                                     time.gmtime(ev.ts)))):
            content = content.replace(key, value)
        return component, content, event_id, re.sub(r"\{\w+\}", "<*>", template)


def _clock(ts: int) -> tuple[str, int, str]:
    t = time.gmtime(ts)
    if t.tm_year != YEAR:
        raise ValueError(f"timestamp {ts} leaves {YEAR}")
    return MONTHS[t.tm_mon - 1], t.tm_mday, f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}"


def write_syslog(events: list[Event], path: Path, rng: random.Random,
                 mark_every: int = 0) -> int:
    """Write events as raw syslog lines; returns the number of lines.

    ``mark_every`` > 0 adds a syslogd ``-- MARK --`` line (which has no
    ``component:`` and so is skipped by the reader) every that many seconds.
    """
    renderer = _Renderer(rng)
    lines: list[tuple[int, str]] = []
    for ev in sorted(events, key=lambda e: e.ts):
        component, content, _, _ = renderer.line(ev)
        month, day, clock = _clock(ev.ts)
        pid = f"[{rng.randint(1000, 32000)}]" if rng.random() < 0.9 else ""
        lines.append((ev.ts, f"{month} {day:2d} {clock} {HOST} {component}{pid}: {content}"))
    if mark_every and events:
        first, last = min(e.ts for e in events), max(e.ts for e in events)
        for ts in range(first - first % mark_every + mark_every, last, mark_every):
            month, day, clock = _clock(ts)
            lines.append((ts, f"{month} {day:2d} {clock} {HOST} -- MARK --"))
        lines.sort(key=lambda item: item[0])
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.writelines(text + "\n" for _, text in lines)
    return len(lines)


def write_csv(events: list[Event], path: Path, rng: random.Random) -> int:
    """Write events as a Loghub-style structured CSV export; returns the row count."""
    renderer = _Renderer(rng)
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for line_id, ev in enumerate(sorted(events, key=lambda e: e.ts), start=1):
        component, content, event_id, template = renderer.line(ev)
        month, day, clock = _clock(ev.ts)
        writer.writerow((line_id, month, day, clock, HOST, component,
                         rng.randint(1000, 32000), content, event_id, template))
    path.write_text(sink.getvalue(), encoding="utf-8", newline="")
    return len(events)


def write_extra_facts(actions: list[tuple[str, str, int]], dormant: frozenset[str],
                      path: Path) -> None:
    lines = [f'account_action({action},"{user}",{ts}).' for action, user, ts in actions]
    lines += [f'dormant_account("{user}").' for user in sorted(dormant)]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# -- closure programs ---------------------------------------------------------

CLOSURE_RULES = (
    ("nonlinear", 32, "reach(X,Z) :- reach(X,Y), reach(Y,Z)."),
    ("delta_inner", 70, "reach(X,Z) :- edge(X,Y), reach(Y,Z)."),
    ("delta_first", 180, "reach(X,Z) :- reach(X,Y), edge(Y,Z)."),
)


def chain_program(recursive_rule: str, n: int, rng: random.Random) -> tuple[str, list[int]]:
    """A chain of ``n`` edges over shuffled node labels; returns (text, path)."""
    path = rng.sample(range(10 * (n + 1)), n + 1)
    edges = [f"edge({a},{b})." for a, b in zip(path, path[1:])]
    rng.shuffle(edges)
    text = "reach(X,Y) :- edge(X,Y).\n" + recursive_rule + "\n" + "\n".join(edges) + "\n"
    return text, path


# -- entry point --------------------------------------------------------------


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files under ``out_dir`` and return its
    manifest: file names, sizes, and the expected results."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    draw = _Draw(seed)
    manifest: dict = {"workload": workload, "seed": seed, "year": YEAR}
    if workload == "closure":
        programs = []
        for name, n, rule in CLOSURE_RULES:
            text, path = chain_program(rule, n, draw.rng)
            file_name = f"{name}.lp"
            (out_dir / file_name).write_text(text, encoding="utf-8")
            programs.append({"name": name, "file": file_name, "n": n,
                             "path": path, "reach": n * (n + 1) // 2})
        manifest.update(kind="library", programs=programs,
                        items=sum(p["reach"] for p in programs))
        return manifest

    if workload == "hot":
        events, actions, dormant = _hot(draw), [], frozenset()
        lines = write_syslog(events, out_dir / "input.log", draw.rng)
        manifest.update(input="input.log", format="syslog", extra_facts=None)
    else:
        events, actions, dormant = _spread(draw)
        lines = write_csv(events, out_dir / "input.csv", draw.rng)
        write_extra_facts(actions, dormant, out_dir / "extra.lp")
        manifest.update(input="input.csv", format="csv", extra_facts="extra.lp")
    manifest.update(kind="log", items=lines,
                    expected=reference_counts(events, actions, dormant))
    return manifest


def write_manifest(manifest: dict, path: Path) -> None:
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
