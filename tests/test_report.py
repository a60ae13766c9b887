"""Alert pipeline: detect, group, render (text and JSON), staged errors."""
import hashlib
import json
import re

import pytest
from hypothesis import given, settings

import reference_render
from progen import programs
from stratalog.engine import Inconsistent, evaluate, explain
from stratalog.facts import Fact, Symbol
from stratalog.parser import parse_facts, parse_program
from stratalog.report import (
    Alert,
    RunConfig,
    StageError,
    detect,
    group_alerts,
    load_entries,
    load_program,
    render_alerts,
    render_grouped,
    render_inconsistent,
)


@pytest.fixture
def sample_path(tmp_path, syslog_sample):
    path = tmp_path / "sample.log"
    path.write_text(syslog_sample)
    return path


@pytest.fixture
def sample_config(sample_path):
    return RunConfig(input_path=sample_path, input_format="syslog", base_year=2005)


@pytest.fixture
def sample_alerts(sample_config):
    entries, _ = load_entries(sample_config)
    return detect(entries, sample_config)


def brute_force_log(tmp_path, ip="10.0.0.1", count=12, start=0, step=10):
    """A syslog file with `count` failed sshd logins from one address."""
    lines = []
    for index in range(count):
        seconds = start + index * step
        minute, second = divmod(seconds, 60)
        lines.append(
            f"Jun 14 15:{16 + minute:02d}:{second:02d} combo sshd(pam_unix)[100]: "
            f"authentication failure; logname= uid=0 euid=0 tty=NODEVssh "
            f"ruser= rhost={ip}")
    path = tmp_path / "brute.log"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestDetect:
    def test_sample_yields_three_alert_kinds(self, sample_alerts):
        assert [a.kind for a in sample_alerts] == [
            "potential_brute_force",
            "potential_privilege_escalation",
            "system_issue",
        ]

    def test_brute_force_alert_contents(self, sample_alerts):
        alert = sample_alerts[0]
        assert alert.entities == {"ip": "218.188.2.4"}
        assert alert.timestamps == [1118762281]
        assert alert.atom.args[0] == "218.188.2.4"

    def test_privilege_escalation_alert_contents(self, sample_alerts):
        alert = sample_alerts[1]
        assert alert.entities == {"user": "cyrus"}
        assert alert.timestamps == [1118808378]

    def test_system_issue_alert_contents(self, sample_alerts):
        alert = sample_alerts[2]
        assert alert.entities == {"issue": Symbol("logrotate_abnormal_exit")}

    def test_alerts_sorted_by_kind_then_entities(self, tmp_path):
        path = brute_force_log(tmp_path, count=0)
        lines = [
            "Jun 15 04:06:18 combo su(pam_unix)[999]: session opened for user zed by (uid=0)",
            "Jun 15 04:06:19 combo su(pam_unix)[998]: session opened for user ann by (uid=0)",
        ]
        path.write_text("\n".join(lines) + "\n")
        config = RunConfig(input_path=path, input_format="syslog", base_year=2005)
        entries, _ = load_entries(config)
        alerts = detect(entries, config)
        assert [a.entities["user"] for a in alerts] == ["ann", "zed"]

    def test_empty_input_yields_no_alerts(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_text("")
        config = RunConfig(input_path=path, input_format="syslog")
        entries, _ = load_entries(config)
        assert detect(entries, config) == []

    def test_threshold_override_changes_result(self, sample_path):
        config = RunConfig(input_path=sample_path, input_format="syslog",
                           base_year=2005,
                           overrides={"failed_login_threshold": 6})
        entries, _ = load_entries(config)
        alerts = detect(entries, config)
        assert "potential_brute_force" not in [a.kind for a in alerts]

    def test_extra_facts_join_the_run(self, sample_path, tmp_path):
        extra = tmp_path / "extra.facts"
        extra.write_text('account_action(create_admin,"eve",1118800000).\n')
        config = RunConfig(input_path=sample_path, input_format="syslog",
                           base_year=2005, extra_facts_path=extra)
        entries, _ = load_entries(config)
        alerts = detect(entries, config)
        assert "account_anomaly" in [a.kind for a in alerts]

    def test_facts_out_writes_extracted_and_extra(self, sample_path, tmp_path):
        extra = tmp_path / "extra.facts"
        extra.write_text("dormant_account(\"zoe\").\n")
        out = tmp_path / "facts.lp"
        config = RunConfig(input_path=sample_path, input_format="syslog",
                           base_year=2005, extra_facts_path=extra, facts_out=out)
        entries, _ = load_entries(config)
        detect(entries, config)
        written = parse_facts(out.read_text())
        predicates = [f.predicate for f in written]
        assert predicates.count("login_attempt") == 5
        assert "session" in predicates
        assert written[-1].predicate == "dormant_account"

    def test_inconsistent_rules_return_inconsistent(self, sample_path, tmp_path):
        rules = tmp_path / "strict.rules"
        rules.write_text(":- session(U, UID, opened, T), UID == 0.\n")
        config = RunConfig(input_path=sample_path, input_format="syslog",
                           base_year=2005, rules_path=rules)
        entries, _ = load_entries(config)
        result = detect(entries, config)
        assert isinstance(result, Inconsistent)
        assert result.witness["UID"] == 0


class TestGrouping:
    def test_repeated_alerts_merge(self, tmp_path):
        path = brute_force_log(tmp_path, count=12)
        config = RunConfig(input_path=path, input_format="syslog", base_year=2005)
        entries, _ = load_entries(config)
        alerts = detect(entries, config)
        # with threshold 5, attempts 5..12 each trigger: 8 alerts, one group
        assert len(alerts) == 8
        (group,) = group_alerts(alerts)
        assert group.kind == "potential_brute_force"
        assert group.entities == {"ip": "10.0.0.1"}
        assert group.count == 8
        assert group.first_timestamp == alerts[0].timestamps[0]
        assert group.last_timestamp == alerts[-1].timestamps[0]
        assert group.last_timestamp - group.first_timestamp == 70

    def test_distinct_addresses_never_merge(self, tmp_path):
        first = brute_force_log(tmp_path, ip="10.0.0.1", count=5)
        content = first.read_text()
        second = brute_force_log(tmp_path, ip="10.0.0.2", count=5)
        merged = tmp_path / "two.log"
        merged.write_text(content + second.read_text())
        config = RunConfig(input_path=merged, input_format="syslog", base_year=2005)
        entries, _ = load_entries(config)
        groups = group_alerts(detect(entries, config))
        assert sorted(g.entities["ip"] for g in groups) == ["10.0.0.1", "10.0.0.2"]

    def test_empty(self):
        assert group_alerts([]) == []


class TestTextRendering:
    def test_alert_header_lines(self, sample_alerts):
        text = render_alerts(sample_alerts, "text")
        assert 'potential_brute_force: ip="218.188.2.4" at 1118762281 (2005-06-14T15:18:01+00:00)' in text
        assert 'potential_privilege_escalation: user="cyrus" at 1118808378' in text

    def test_explanation_tree_shows_threshold_check(self, sample_alerts):
        text = render_alerts(sample_alerts, "text")
        assert "count 5 >= threshold 5" in text
        assert '[rule at 6:1]' in text
        assert '[input fact]' in text
        assert 'failed_count("218.188.2.4",1118762281,5)' in text

    def test_totals_line(self, sample_alerts):
        text = render_alerts(sample_alerts, "text")
        assert text.rstrip().endswith(
            "total: 3 (potential_brute_force: 1, "
            "potential_privilege_escalation: 1, system_issue: 1)")

    def test_no_alerts(self):
        assert render_alerts([], "text") == "no anomalies detected\ntotal: 0\n"

    def test_grouped_lines(self, sample_alerts):
        text = render_grouped(group_alerts(sample_alerts), "text")
        assert 'potential_brute_force: ip="218.188.2.4" count=1' in text
        assert "first=1118762281" in text and "last=1118762281" in text


class TestJsonRendering:
    def test_lines_parse_and_carry_fields(self, sample_alerts):
        lines = render_alerts(sample_alerts, "json").splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == [
            "potential_brute_force", "potential_privilege_escalation",
            "system_issue"]
        assert records[0]["ip"] == "218.188.2.4"
        assert records[0]["timestamps"] == [
            {"unix": 1118762281, "iso": "2005-06-14T15:18:01+00:00"}]

    def test_explanation_structure(self, sample_alerts):
        record = json.loads(render_alerts(sample_alerts, "json").splitlines()[0])
        explanation = record["explanation"]
        assert explanation["rule"] == "6:1"
        assert explanation["checks"] == ["count 5 >= threshold 5"]
        support_atoms = [s["atom"] for s in explanation["supports"]]
        assert 'failed_count("218.188.2.4",1118762281,5)' in support_atoms
        nested = [s for s in explanation["supports"]
                  if s["atom"].startswith("failed_count")][0]
        assert nested["checks"] == ["count 5"]
        assert nested["supports"][0]["rule"] is None

    def test_atom_text_round_trips_through_fact_parser(self, sample_alerts):
        record = json.loads(render_alerts(sample_alerts, "json").splitlines()[0])
        (atom,) = parse_facts(record["explanation"]["atom"] + ".")
        assert atom == sample_alerts[0].atom

    def test_grouped_json(self, sample_alerts):
        records = [json.loads(line) for line in
                   render_grouped(group_alerts(sample_alerts), "json").splitlines()]
        assert records[0]["count"] == 1
        assert records[0]["first"]["unix"] == 1118762281

    def test_no_alerts_empty_output(self):
        assert render_alerts([], "json") == ""


class TestGoldenBytes:
    """SHA-256 of every rendering of the SYSLOG_SAMPLE alerts, pinned so that
    a refactor of the renderers cannot change a report byte."""

    @pytest.mark.parametrize("grouped, output, digest", [
        (False, "text", "dab35c59121ae0a5ca5cef84b684eaffb001f08e47f7553246e2f6c19bf22b0d"),
        (False, "json", "ab3f80911cfd4fb7ce813d17dfde711d0420c474a4e9c9f5e4b5729c1e2414b3"),
        (True, "text", "384784aa1f5c849e58796c0bc9cf13baa131bb2ccbc78d8f28557b88a8eeb1bb"),
        (True, "json", "6e781efd519d04b87255009918c05bee3e362a1c115f20bf3c8e2571c452678c"),
    ])
    def test_sample_digest(self, sample_alerts, grouped, output, digest):
        if grouped:
            text = render_grouped(group_alerts(sample_alerts), output)
        else:
            text = render_alerts(sample_alerts, output)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestInconsistentRendering:
    def test_text(self):
        result = evaluate(parse_program("p(5).\n:- p(X), X > 3."))
        assert render_inconsistent(result, "text") == (
            "inconsistent: constraint at 2:1 violated (X=5)\n")

    def test_json(self):
        result = evaluate(parse_program("p(5).\n:- p(X), X > 3."))
        record = json.loads(render_inconsistent(result, "json"))
        assert record == {"inconsistent": True, "constraint": "2:1",
                          "witness": {"X": 5}}


class TestStageErrors:
    def test_missing_input_is_ingest_stage(self, tmp_path):
        config = RunConfig(input_path=tmp_path / "nope.log", input_format="syslog")
        with pytest.raises(StageError) as err:
            load_entries(config)
        assert err.value.stage == "ingest"

    def test_broken_rules_file_is_rules_stage(self, sample_path, tmp_path):
        rules = tmp_path / "bad.rules"
        rules.write_text("p(1)")
        with pytest.raises(StageError) as err:
            load_program(RunConfig(input_path=sample_path, input_format="syslog",
                                   rules_path=rules))
        assert err.value.stage == "rules"

    def test_override_without_matching_const_is_rules_stage(self, sample_path,
                                                            tmp_path):
        rules = tmp_path / "ok.rules"
        rules.write_text("#const k = 1.\np(X) :- q(X), X >= k.\n")
        with pytest.raises(StageError, match="no #const missing") as err:
            load_program(RunConfig(input_path=sample_path, input_format="syslog",
                                   rules_path=rules, overrides={"missing": 5}))
        assert err.value.stage == "rules"

    def test_override_value_that_is_not_an_integer_is_rules_stage(self, sample_path,
                                                                  tmp_path):
        rules = tmp_path / "ok.rules"
        rules.write_text("#const limit = 1.\np(X) :- q(X), X >= limit.\n")
        config = RunConfig(input_path=sample_path, input_format="syslog",
                           rules_path=rules, overrides={"limit": "1. p(2)"})
        entries, _ = load_entries(config)
        with pytest.raises(StageError, match="limit must be set to an integer") as err:
            detect(entries, config)
        assert err.value.stage == "rules"

    def test_bad_extra_facts_is_facts_stage(self, sample_path, tmp_path):
        extra = tmp_path / "extra.facts"
        extra.write_text("p(X) :- q(X).")
        config = RunConfig(input_path=sample_path, input_format="syslog",
                           extra_facts_path=extra)
        entries, _ = load_entries(config)
        with pytest.raises(StageError) as err:
            detect(entries, config)
        assert err.value.stage == "facts"

    def test_unsafe_rules_surface_in_evaluate_stage(self, sample_path, tmp_path):
        rules = tmp_path / "unsafe.rules"
        rules.write_text("p(X) :- q(Y).\nq(1).")
        config = RunConfig(input_path=sample_path, input_format="syslog",
                           rules_path=rules)
        entries, _ = load_entries(config)
        with pytest.raises(StageError) as err:
            detect(entries, config)
        assert err.value.stage == "evaluate"

    def test_message_names_the_stage(self, tmp_path):
        config = RunConfig(input_path=tmp_path / "nope.log", input_format="syslog")
        with pytest.raises(StageError, match="^ingest: "):
            load_entries(config)


class TestDeterminism:
    def test_detect_and_render_twice_byte_equal(self, sample_config):
        outputs = []
        for _ in range(2):
            entries, _ = load_entries(sample_config)
            alerts = detect(entries, sample_config)
            outputs.append(render_alerts(alerts, "text") +
                           render_alerts(alerts, "json"))
        assert outputs[0] == outputs[1]


# -- derivations as DAGs -------------------------------------------------------

_SEE = re.compile(r"(.*)  \[see #(\d+)\]")
_ATOM_LINE = re.compile(r".*  \[(?:input fact|rule at \d+:\d+|see #\d+)\]")
_DEEP = re.compile(r"\[(\d+)\] ")


def _level(line: str) -> tuple[int, str]:
    """A derivation line's level and its text without the pad."""
    text = line.lstrip(" ")
    level = (len(line) - len(text)) // 2
    deep = _DEEP.match(text) if level == reference_render.MAX_INDENT else None
    return (int(deep[1]), text[deep.end():]) if deep else (level, text)


def expand_text(lines: list[str]) -> list[str]:
    """An alert's derivation lines with each ``[see #k]`` line replaced by
    the block of the k-th atom line, counting from 1, re-indented; asserts
    that the k-th line holds the same atom and unfolds it."""
    numbered: list[list] = []  # per atom line: [level, text, child entries]
    roots: list[list] = []
    stack: list[list] = []
    for line in lines:
        level, text = _level(line)
        entry = [level, text, []]
        while stack and stack[-1][0] >= level:
            stack.pop()
        (stack[-1][2] if stack else roots).append(entry)
        if _ATOM_LINE.fullmatch(text):
            numbered.append(entry)
            stack.append(entry)
    out: list[str] = []

    def emit(entry: list, level: int) -> None:
        see = _SEE.fullmatch(entry[1])
        if see:
            target = numbered[int(see[2]) - 1]
            assert target[1].rsplit("  [", 1)[0] == see[1], (entry[1], target[1])
            assert "  [rule at " in target[1], target[1]
            emit(target, level)
            return
        out.append(reference_render.pad(level) + entry[1])
        for child in entry[2]:
            emit(child, level + 1)

    for root in roots:
        emit(root, root[0])
    return out


def expand_json(root: dict) -> dict:
    """A JSON explanation with each ``{"atom": ..., "see": k}`` object
    replaced by the k-th object in pre-order, counting from 1."""
    numbered: list[dict] = []
    pending = [root]
    while pending:
        obj = pending.pop()
        numbered.append(obj)
        pending.extend(reversed(obj.get("supports", [])))

    def expand(obj: dict) -> dict:
        if "see" in obj:
            target = numbered[obj["see"] - 1]
            assert set(obj) == {"atom", "see"} and target["atom"] == obj["atom"], obj
            assert target["rule"] is not None and "see" not in target, target
            return expand(target)
        return {**obj, "supports": [expand(s) for s in obj["supports"]]}

    return expand(root)


def _check_against_reference(program_text: str, limit: int = 40) -> int:
    """Render each derived atom's explanation alone, text and JSON, and
    compare it with the unfolding reference; return how many outputs held
    a back reference."""
    result = evaluate(parse_program(program_text))
    if isinstance(result, Inconsistent):
        return 0
    model, graph = result
    plans = reference_render.Plans(rule for rule, *_ in graph.rules)
    referenced = 0
    for atom in list(graph.entries)[:limit]:
        node = explain(graph, atom)
        alert = Alert("k", {}, [], atom, node)
        text = render_alerts([alert], "text")
        lines = text.split("\n")
        assert lines[0] == "k:" and lines[-3:] == ["", "total: 1 (k: 1)", ""]
        expected: list[str] = []
        reference_render.render_node(node, 1, expected, plans)
        assert expand_text(lines[1:-3]) == expected
        explanation = json.loads(render_alerts([alert], "json"))["explanation"]
        reference = reference_render.json_explanation(node, plans)
        assert expand_json(explanation) == reference
        if "  [see #" in text:
            referenced += 1
        else:
            assert lines[1:-3] == expected and explanation == reference
    return referenced


class TestDerivationDag:
    LADDER = "s(0). e(0, 1). e(1, 2). e(2, 3).\n" \
             "s(Y) :- s(X), e(X, Y), t(X).\nt(X) :- s(X).\n"

    def test_a_repeated_derived_atom_refers_back(self):
        model, graph = evaluate(parse_program(self.LADDER))
        node = explain(graph, Fact("s", (3,)))
        lines = render_alerts([Alert("k", {}, [], node.atom, node)], "text").splitlines()
        assert lines[1:] == [
            "  s(3)  [rule at 2:1]",
            "    s(2)  [rule at 2:1]",
            "      s(1)  [rule at 2:1]",
            "        s(0)  [input fact]",
            "        e(0,1)  [input fact]",
            "        t(0)  [rule at 3:1]",
            "          s(0)  [input fact]",
            "      e(1,2)  [input fact]",
            "      t(1)  [rule at 3:1]",
            "        s(1)  [see #3]",
            "    e(2,3)  [input fact]",
            "    t(2)  [rule at 3:1]",
            "      s(2)  [see #2]",
            "",
            "total: 1 (k: 1)",
        ]
        record = json.loads(render_alerts([Alert("k", {}, [], node.atom, node)], "json"))
        t2 = record["explanation"]["supports"][2]
        assert t2 == {"atom": "t(2)", "rule": "3:1", "checks": [],
                      "supports": [{"atom": "s(2)", "see": 2}]}

    def test_numbers_restart_with_each_alert(self):
        model, graph = evaluate(parse_program(self.LADDER))
        alerts = [Alert("k", {}, [], atom, explain(graph, atom))
                  for atom in (Fact("s", (2,)), Fact("s", (3,)))]
        text = render_alerts(alerts, "text")
        first, second = text.split("\n\n")[:2]
        assert "s(1)  [see #2]" in first and "s(1)  [see #3]" in second

    def test_ladder_matches_the_reference_once_expanded(self):
        assert _check_against_reference(self.LADDER) > 0

    @settings(max_examples=150, deadline=None)
    @given(programs())
    def test_generated_programs_match_the_reference(self, text):
        _check_against_reference(text)


class TestThresholdLabel:
    """A comparison reads as a count threshold exactly when the rules put a
    ``#count`` result where it reads its left side."""

    RULES = """\
a(1). a(2). c(1, 7).
b(X, C) :- a(X), C = #count{Y : a(Y)}.
c(X, X) :- a(X), X > 1.
big(X, C) :- b(X, C), C >= 2.
same(X) :- b(X, C), X >= 1.
either(X, C) :- c(X, C), C >= 1.
"""

    def checks(self, atom: Fact) -> list[str]:
        _, graph = evaluate(parse_program(self.RULES))
        node = explain(graph, atom)
        record = json.loads(render_alerts([Alert("k", {}, [], atom, node)], "json"))
        return record["explanation"]["checks"]

    def test_a_count_read_where_its_rule_put_it(self):
        assert self.checks(Fact("big", (1, 2))) == ["count 2 >= threshold 2"]

    def test_a_value_beside_a_count_is_a_plain_comparison(self):
        assert self.checks(Fact("same", (1,))) == ["1 >= 1"]

    def test_decided_by_the_rule_that_derived_the_support(self):
        # c(1, 7) is an input fact and c(2, 2) comes from a rule without a count
        assert self.checks(Fact("either", (1, 7))) == ["7 >= 1"]
        assert self.checks(Fact("either", (2, 2))) == ["2 >= 1"]

    def test_the_reference_decides_alike(self):
        _check_against_reference(self.RULES)
