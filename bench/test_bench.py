"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench
"""
from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

import corpus
from corpus import START, Event
from stratalog import RunConfig, detect, load_entries

IP_A, IP_B, IP_C = "203.0.113.7", "198.51.100.23", "192.0.2.200"


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(workload, tmp_path):
    first = corpus.generate(workload, 7, tmp_path / "a")
    again = corpus.generate(workload, 7, tmp_path / "b")
    other = corpus.generate(workload, 8, tmp_path / "c")
    assert first["items"] > 0
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert first == again
    assert other["items"] == first["items"]  # a seed changes the inputs, not the work


def _edge_events() -> tuple[list[Event], list, frozenset]:
    t = START + 3600
    events = [
        # IP_A: the 5th failure is exactly 600 s after the 1st; the inclusive
        # window counts both, so that failure alerts.
        *(Event(t + dt, "ssh_failed_login", ip=IP_A) for dt in (0, 150, 300, 450, 600)),
        # IP_B: the 1st failure is 601 s before the 5th and falls outside.
        *(Event(t + dt, "ssh_failed_login", ip=IP_B) for dt in (0, 200, 400, 500, 601)),
        Event(t + 10, "session_opened", user="cyrus", uid=0),
        Event(t + 11, "session_opened", user="root", uid=0),
        Event(t + 12, "session_closed", user="cyrus"),
        Event(t + 13, "ssh_password_accepted", ip=IP_C, user="alice"),
        *(Event(t + 20 + i, "ftpd_connection", ip=IP_C) for i in range(10)),
        *(Event(t + 40 + i, "klogind_failure", ip=IP_B) for i in range(5)),
        *(Event(t + 60 + i, "gdm_failure", user="bob") for i in range(3)),
        Event(t + 70, "logrotate_exit"),
        Event(t + 71, "named_soa"),
        Event(t + 72, "xinetd_reset"),
        *(Event(t + 80 + i, None, ip=IP_A) for i in range(20)),
    ]
    actions = [("create_admin", "svc1", t), ("reactivate", "svc2", t + 1),
               ("reactivate", "svc3", t + 2)]
    return events, actions, frozenset({"svc2"})


def _detected(config: RunConfig) -> dict[str, int]:
    entries, _ = load_entries(config)
    return dict(Counter(alert.kind for alert in detect(entries, config)))


@pytest.mark.parametrize("fmt", ["syslog", "csv"])
def test_reference_counts_agree_with_detect(fmt, tmp_path):
    events, actions, dormant = _edge_events()
    expected = corpus.reference_counts(events, actions, dormant)
    assert expected == {
        "potential_brute_force": 1, "potential_privilege_escalation": 1,
        "network_anomaly": 1, "account_anomaly": 2,
        "potential_klogind_brute_force": 1, "potential_gdm_brute_force": 3,
        "system_issue": 3,
    }
    rng = random.Random(0)
    path = tmp_path / f"input.{fmt}"
    if fmt == "csv":
        corpus.write_csv(events, path, rng)
    else:
        corpus.write_syslog(events, path, rng, mark_every=30)
    corpus.write_extra_facts(actions, dormant, tmp_path / "extra.lp")
    config = RunConfig(input_path=str(path), input_format=fmt, base_year=corpus.YEAR,
                       extra_facts_path=str(tmp_path / "extra.lp"))
    assert _detected(config) == expected


def test_generated_hot_workload_matches_its_reference(tmp_path):
    manifest = corpus.generate("hot", 3, tmp_path)
    config = RunConfig(input_path=str(tmp_path / manifest["input"]),
                       input_format=manifest["format"], base_year=manifest["year"])
    assert _detected(config) == manifest["expected"]
