"""Acceptance gate: one test (and one PASS/FAIL line) per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` — each test name carries its
criterion number, so the verbose report reads as a seven-line scorecard.
Expected values are either computed with independent means (calendar.timegm,
the brute-force oracle, hand-derived goldens) or asserted directly where the
claim is structural.
"""
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stratalog

from conftest import DATASET_PATH

from stratalog.engine import Inconsistent, evaluate
from stratalog.facts import Symbol, fact, write_facts_file
from stratalog.ingest import IngestOptions, read_syslog_entries
from stratalog.extract import entries_to_facts
from stratalog.oracle import naive_oracle
from stratalog.parser import parse_facts, parse_program
from stratalog.report import RunConfig, detect, load_entries, render_alerts
from stratalog.rules import default_program

from progen import generate_program

NEEDS_DATASET = pytest.mark.skipif(
    not DATASET_PATH.exists(),
    reason=f"{DATASET_PATH} not present; run scripts/fetch_linux2k.py first")


def scorecard(number: int, title: str, passed: bool) -> None:
    print(f"criterion {number} [{'PASS' if passed else 'FAIL'}]: {title}")


def test_criterion_1_engine_conformance(birds_program):
    """The negation-as-failure reference program has exactly one model."""
    expected = {
        fact("bird", Symbol("tweety")),
        fact("penguin", Symbol("polly")),
        fact("abnormal", Symbol("polly")),
        fact("can_fly", Symbol("tweety")),
    }
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        result = evaluate(birds_program)
        best = min(best, time.perf_counter() - start)
    model, _ = result
    passed = set(model) == expected and best < 0.001
    scorecard(1, "reference-model conformance", passed)
    assert set(model) == expected
    assert best < 0.001, f"evaluation took {best * 1000:.3f} ms"


def test_criterion_2_oracle_equivalence():
    """200 generated programs: indexed engine == brute-force oracle, < 10 s."""
    mismatches = []
    start = time.perf_counter()
    for seed in range(200):
        program = parse_program(generate_program(seed))
        engine_result = evaluate(program)
        oracle_result = naive_oracle(program)
        engine_inconsistent = isinstance(engine_result, Inconsistent)
        oracle_inconsistent = isinstance(oracle_result, Inconsistent)
        if engine_inconsistent or oracle_inconsistent:
            if engine_inconsistent != oracle_inconsistent:
                mismatches.append(seed)
            continue
        if set(engine_result[0]) != set(oracle_result):
            mismatches.append(seed)
    elapsed = time.perf_counter() - start
    passed = not mismatches and elapsed < 10.0
    scorecard(2, "engine/oracle equivalence on 200 programs", passed)
    assert mismatches == []
    assert elapsed < 10.0, f"differential sweep took {elapsed:.2f} s"


def test_criterion_3_threshold_boundaries():
    """Default thresholds: inclusive window edges and exact set-semantics counts."""
    program = parse_program(default_program())

    def logins(times, ip="1.2.3.4"):
        return [fact("login_attempt", ip, t, Symbol("failed"), "unknown")
                for t in times]

    def connections(times, ip="5.6.7.8"):
        return [fact("network_connection", ip, t) for t in times]

    def fires(extra, predicate):
        model, _ = evaluate(program, extra)
        return bool(model.atoms(predicate))

    checks = {
        "5 failures fire": fires(
            logins([0, 150, 300, 450, 600]), "potential_brute_force"),
        "4 failures do not": not fires(
            logins([0, 150, 300, 450]), "potential_brute_force"),
        "edge at T-600 counts": fires(
            logins([100, 200, 300, 400, 700]), "potential_brute_force"),
        "T-601 excluded": not fires(
            logins([99, 200, 300, 400, 700]), "potential_brute_force"),
        "10 connections fire": fires(
            connections(list(range(10))), "network_anomaly"),
        "9 connections do not": not fires(
            connections(list(range(9))), "network_anomaly"),
        "duplicate login timestamps never change counts": not fires(
            logins([0, 0, 0, 0, 150, 300, 450]), "potential_brute_force"),
        "duplicate connection timestamps never change counts": not fires(
            connections(list(range(9)) + [0, 0, 0]), "network_anomaly"),
    }
    passed = all(checks.values())
    scorecard(3, "threshold boundary behavior", passed)
    assert checks == {name: True for name in checks}


@NEEDS_DATASET
def test_criterion_4_dataset_replay():
    """Replaying the 2k-line reference log reproduces the expected alerts."""
    start = time.perf_counter()
    config = RunConfig(input_path=DATASET_PATH, input_format="csv",
                       base_year=2005)
    entries, _ = load_entries(config)
    alerts = detect(entries, config)
    render_alerts(alerts, "text")
    elapsed = time.perf_counter() - start

    by_kind = {}
    for alert in alerts:
        by_kind.setdefault(alert.kind, []).append(alert)

    network_ips = {a.entities["ip"] for a in by_kind.get("network_anomaly", [])}
    escalation_users = {a.entities["user"]
                        for a in by_kind.get("potential_privilege_escalation", [])}
    brute_ips = {a.entities["ip"] for a in by_kind.get("potential_brute_force", [])}
    issue_kinds = {a.entities["issue"] for a in by_kind.get("system_issue", [])}

    results = {
        "network anomalies": network_ips == {"208.62.55.75", "207.30.238.8"},
        "escalation users": escalation_users == {"cyrus", "news"},
        "brute-force ips": "150.183.249.110" in brute_ips and "unknown" in brute_ips,
        "system issues": issue_kinds == {
            Symbol("logrotate_abnormal_exit"), Symbol("named_soa_error"),
            Symbol("xinetd_connection_reset")},
        "quiet packages": not any(kind in by_kind for kind in (
            "account_anomaly", "potential_klogind_brute_force",
            "potential_gdm_brute_force")),
        "runtime": elapsed < 5.0,
    }
    passed = all(results.values())
    scorecard(4, "reference dataset replay", passed)
    assert results == {name: True for name in results}, f"elapsed={elapsed:.2f}s"


def test_criterion_5_scope_of_claims():
    """Corpus-level statistics are inputs, not behavior under test.

    The reference log's size and time span describe the dataset itself, and
    no detection quality metric (precision/recall) is checkable without
    labeled ground truth — the semantic load rests on criteria 1-3.  This
    records the only dataset statistic anything may rely on: the replay
    input, when present, has exactly 2000 entries.
    """
    if DATASET_PATH.exists():
        entries, _ = load_entries(RunConfig(input_path=DATASET_PATH,
                                            input_format="csv", base_year=2005))
        count_ok = len(entries) == 2000
    else:
        count_ok = True  # nothing else to verify without the file
    scorecard(5, "no reliance on unreproducible statistics", count_ok)
    assert count_ok


def test_criterion_6_facts_file_golden():
    """A fixed 10-entry input emits a byte-exact, re-parseable facts file."""
    lines = "\n".join([
        "Jun 14 15:16:01 combo sshd(pam_unix)[19939]: authentication failure; logname= uid=0 euid=0 tty=NODEVssh ruser= rhost=218.188.2.4",
        "Jun 14 15:16:02 combo sshd(pam_unix)[19940]: authentication failure; logname= uid=0 euid=0 tty=NODEVssh ruser= rhost=218.188.2.4  user=guest",
        "Jun 15 02:04:59 combo sshd(pam_unix)[23406]: Accepted password for news from 10.2.3.4 port 222 ssh2",
        "Jun 15 04:06:18 combo su(pam_unix)[21416]: session opened for user cyrus by (uid=0)",
        "Jun 15 04:06:19 combo su(pam_unix)[21416]: session closed for user cyrus",
        "Jun 15 21:42:43 combo ftpd[26097]: connection from 82.68.222.194 () at Wed Jun 15 21:42:43 2005",
        "Jun 16 01:12:13 combo klogind[24992]: Authentication failed from 163.27.187.39: user not authorized",
        "Jun 16 02:22:23 combo gdm(pam_unix)[2803]: authentication failure; logname= uid=0 euid=0 tty=:0 ruser= rhost=",
        "Jun 16 03:32:33 combo logrotate: ALERT exited abnormally with [1]",
        'Jun 16 04:42:44 combo named[1823]: Err getting serial# for "example.com IN SOA"',
    ]) + "\n"
    # timestamps derived with calendar.timegm over (2005, month, day, h, m, s)
    expected = "\n".join([
        'login_attempt("218.188.2.4",1118762161,failed,"unknown").',
        'login_attempt("218.188.2.4",1118762162,failed,"guest").',
        'login_attempt("10.2.3.4",1118801099,success,"unknown").',
        'session("cyrus",0,opened,1118808378).',
        'session("cyrus",-1,closed,1118808379).',
        'network_connection("82.68.222.194",1118871763).',
        'klogind_auth_failure("163.27.187.39",1118884333).',
        'gdm_auth_failure(1118888543).',
        'logrotate_abnormal_exit(1118892753).',
        'named_soa_error(1118896964).',
    ]) + "\n"

    entries, _ = read_syslog_entries(
        io.StringIO(lines), IngestOptions(base_year=2005))
    facts = entries_to_facts(entries)
    sink = io.StringIO()
    write_facts_file(facts, sink)
    written = sink.getvalue()

    round_trip = parse_facts(written)
    passed = written == expected and round_trip == facts
    scorecard(6, "facts-file golden round-trip", passed)
    assert written == expected
    assert round_trip == facts


def test_criterion_7_pipeline_determinism(tmp_path, syslog_sample):
    """Two full pipeline runs produce byte-identical reports."""
    if DATASET_PATH.exists():
        input_path, input_format = DATASET_PATH, "csv"
    else:
        input_path = tmp_path / "sample.log"
        input_path.write_text(syslog_sample)
        input_format = "syslog"

    # The child gets a minimal environment so that no STRATALOG_* setting of
    # the caller leaks in; PYTHONPATH points at the directory holding the
    # package this process imported, so the child runs the same code, and
    # PYTHONDONTWRITEBYTECODE carries over, so it writes no __pycache__
    # when the caller asked for none.
    package_root = str(Path(stratalog.__file__).resolve().parent.parent)
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]

    def run(hashseed):
        outputs = []
        for output in ("text", "json"):
            proc = subprocess.run(
                [sys.executable, "-m", "stratalog.cli", "detect",
                 str(input_path), "--format", input_format,
                 "--year", "2005", "--output", output],
                capture_output=True, text=True,
                env={**env, "PYTHONHASHSEED": hashseed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        return outputs

    first = run("0")
    second = run("4242")
    passed = first == second and all(first)
    scorecard(7, "byte-identical pipeline reruns", passed)
    assert first == second
    assert all(first)
