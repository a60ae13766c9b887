"""Command-line interface: exit codes, flags, environment fallbacks."""
import csv
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stratalog
import stratalog.parser
from stratalog.analysis import MAX_JOIN_LITERALS, MAX_STRATUM_ATOMS
from stratalog.cli import EXIT_ERROR, EXIT_INCONSISTENT, EXIT_OK, main
from stratalog.ingest import IngestOptions, read_csv_entries, read_syslog_entries
from stratalog.lang import format_program
from stratalog.parser import MAX_TERM_DEPTH, parse_program
from stratalog.report import MAX_INDENT
from stratalog.rules import RULES_TEXT, Thresholds

from conftest import REPO_ROOT, SYSLOG_SAMPLE, make_csv_sample
from hostile import hostile_rules
from test_ingest import _both_shapes, csv_texts, log_lines


@pytest.fixture
def sample_path(tmp_path, syslog_sample):
    path = tmp_path / "sample.log"
    path.write_text(syslog_sample)
    return path


def run_main(capsys, argv, env=None):
    code = main(argv, env=env or {})
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--format", "syslog", "--year", "2005"]


class TestExitCodes:
    def test_successful_run_exits_zero(self, capsys, sample_path):
        code, out, err = run_main(capsys, ["detect", str(sample_path)] + BASE)
        assert code == EXIT_OK
        assert "potential_brute_force" in out
        assert err == ""

    def test_missing_input_exits_one_with_stage(self, capsys, tmp_path):
        code, out, err = run_main(
            capsys, ["detect", str(tmp_path / "nope.log")] + BASE)
        assert code == EXIT_ERROR
        assert err.startswith("error in ingest stage:")
        assert out == ""

    def test_inconsistent_exits_two(self, capsys, sample_path, tmp_path):
        rules = tmp_path / "strict.rules"
        rules.write_text(":- session(U, UID, opened, T), UID == 0.\n")
        code, out, err = run_main(
            capsys,
            ["detect", str(sample_path), "--rules", str(rules)] + BASE)
        assert code == EXIT_INCONSISTENT
        assert out.startswith("inconsistent: constraint at 1:1 violated")

    def test_usage_error_exits_one_not_two(self, sample_path):
        with pytest.raises(SystemExit) as err:
            main(["detect", str(sample_path), "--format", "bogus"], env={})
        assert err.value.code == EXIT_ERROR

    def test_malformed_set_pair_exits_one(self, sample_path):
        with pytest.raises(SystemExit) as err:
            main(["detect", str(sample_path), "--set", "nonumber"], env={})
        assert err.value.code == EXIT_ERROR

    def test_non_integer_set_value_exits_one(self, sample_path):
        with pytest.raises(SystemExit) as err:
            main(["detect", str(sample_path),
                  "--set", "failed_login_threshold=abc"], env={})
        assert err.value.code == EXIT_ERROR

    def test_unknown_threshold_name_exits_one(self, capsys, sample_path):
        code, out, err = run_main(
            capsys,
            ["detect", str(sample_path), "--set", "no_such=3"] + BASE)
        assert code == EXIT_ERROR
        assert "no_such" in err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            main(["--help"], env={})
        assert err.value.code == 0


class TestIngestErrorsWhileReading:
    """An input error found while the file is read, not when it is opened,
    still ends the run with one ``error in ingest stage:`` line and exit 1,
    and before a bad rules or extra-facts file is read."""

    @pytest.fixture
    def inputs(self, tmp_path):
        files = {"csv": make_csv_sample(), "syslog": SYSLOG_SAMPLE,
                 "no_line_id": "Month,Date\nJun,14\n",
                 "long_header": "x" * (csv.field_size_limit() + 1) + ",b\n",
                 "bad_rules": "p(X) :- .\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        return tmp_path

    @staticmethod
    def run(capsys, argv):
        code, out, err = run_main(capsys, ["detect", *argv])
        assert (code, out) == (EXIT_ERROR, "")
        return err

    @pytest.mark.parametrize("input_format", ["csv", "syslog"])
    @pytest.mark.parametrize("year", ["0", "10000"])
    def test_year_out_of_range(self, capsys, inputs, input_format, year):
        err = self.run(capsys, [str(inputs / input_format), "--format", input_format,
                                "--year", year])
        assert err == f"error in ingest stage: year {year} is out of range\n"

    def test_csv_missing_a_column(self, capsys, inputs):
        err = self.run(capsys, [str(inputs / "no_line_id"), "--format", "csv"])
        assert err == "error in ingest stage: missing required column: LineId\n"

    def test_csv_header_that_csv_rejects(self, capsys, inputs):
        err = self.run(capsys, [str(inputs / "long_header"), "--format", "csv"])
        assert err == ("error in ingest stage: CSV header: field larger than field limit "
                       f"({csv.field_size_limit()})\n")

    @pytest.mark.parametrize("flag", ["--rules", "--extra-facts"])
    @pytest.mark.parametrize("argv, message", [
        (["csv", "--format", "csv", "--year", "0"], "year 0 is out of range"),
        (["syslog", "--format", "syslog", "--year", "0"], "year 0 is out of range"),
        (["no_line_id", "--format", "csv"], "missing required column: LineId"),
        (["long_header", "--format", "csv"],
         f"CSV header: field larger than field limit ({csv.field_size_limit()})"),
    ])
    def test_comes_before_a_bad_rules_or_facts_file(self, capsys, inputs, flag, argv, message):
        err = self.run(capsys, [str(inputs / argv[0]), *argv[1:],
                                flag, str(inputs / "bad_rules")])
        assert err == f"error in ingest stage: {message}\n"


class TestAnyInputEndsInAReportOrAnIngestError:
    """Whatever CSV or syslog text the ingest tests draw, a run exits 0 with
    a report and the list reader's skip count, or 1 with the list reader's
    error as one ``error in ingest stage:`` line."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("drawn") / "input"

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(csv_texts(), st.lists(log_lines(), max_size=4).map(_both_shapes)
                     .flatmap(st.sampled_from)),
           st.sampled_from(["csv", "syslog"]), st.sampled_from([2005, 2004, 0]))
    def test_run(self, path, text, input_format, year):
        path.write_text(text, encoding="utf-8", newline="")
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            code = main(["detect", str(path), "--format", input_format, "--year", str(year)],
                        env={})
        read = read_csv_entries if input_format == "csv" else read_syslog_entries
        try:
            with open(path, encoding="utf-8", errors="replace", newline="") as stream:
                _, result = read(stream, IngestOptions(base_year=year))
        except ValueError as exc:
            assert (code, out.getvalue()) == (EXIT_ERROR, "")
            assert err.getvalue() == f"error in ingest stage: {exc}\n"
            return
        assert code == EXIT_OK
        assert out.getvalue().endswith("\n") and "total: " in out.getvalue()
        note = f"note: skipped {result.skipped} unparseable line(s)\n"
        assert err.getvalue() == (note if result.skipped else "")


class TestFlags:
    def test_set_overrides_threshold(self, capsys, sample_path):
        code, out, _ = run_main(
            capsys,
            ["detect", str(sample_path), "--set", "failed_login_threshold=6"]
            + BASE)
        assert code == EXIT_OK
        assert "potential_brute_force" not in out

    def test_repeated_set_flags_accumulate(self, capsys, sample_path):
        code, out, _ = run_main(
            capsys,
            ["detect", str(sample_path),
             "--set", "failed_login_threshold=6",
             "--set", "gdm_failure_threshold=1"] + BASE)
        assert code == EXIT_OK

    def test_json_output(self, capsys, sample_path):
        code, out, _ = run_main(
            capsys, ["detect", str(sample_path), "--output", "json"] + BASE)
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["kind"] == "potential_brute_force"

    def test_group_flag(self, capsys, sample_path):
        code, out, _ = run_main(
            capsys, ["detect", str(sample_path), "--group"] + BASE)
        assert code == EXIT_OK
        assert "count=1" in out

    def test_facts_out_side_file(self, capsys, sample_path, tmp_path):
        facts = tmp_path / "facts.lp"
        code, _, _ = run_main(
            capsys,
            ["detect", str(sample_path), "--facts-out", str(facts)] + BASE)
        assert code == EXIT_OK
        content = facts.read_text()
        assert content.count("login_attempt(") == 5
        assert 'session("cyrus",0,opened,1118808378).' in content

    def test_emit_rules_side_file(self, capsys, sample_path, tmp_path):
        rules = tmp_path / "rules.lp"
        code, _, _ = run_main(
            capsys,
            ["detect", str(sample_path), "--emit-rules", str(rules),
             "--set", "failed_login_threshold=7"] + BASE)
        assert code == EXIT_OK
        assert "#const failed_login_threshold = 7." in rules.read_text()

    def test_extra_facts_flag(self, capsys, sample_path, tmp_path):
        extra = tmp_path / "extra.facts"
        extra.write_text('account_action(create_admin,"eve",1118800000).\n')
        code, out, _ = run_main(
            capsys,
            ["detect", str(sample_path), "--extra-facts", str(extra)] + BASE)
        assert code == EXIT_OK
        assert "account_anomaly" in out

    def test_const_in_facts_file_is_reported_at_its_line(self, capsys, sample_path, tmp_path):
        extra = tmp_path / "extra.facts"
        extra.write_text("p(1).\n\n#const a = 1.\n")
        code, out, err = run_main(
            capsys, ["detect", str(sample_path), "--extra-facts", str(extra)] + BASE)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error in facts stage: 3:1: facts file must not define constants\n"

    def test_set_on_rule_file_rewrites_the_const_not_the_comment(
            self, capsys, sample_path, tmp_path):
        rules = tmp_path / "rules.lp"
        rules.write_text(
            "% tune with #const limit = 6.\n"
            "#const limit = 6.\n"
            "network_anomaly(IP) :- login_attempt(IP, _, failed, _),\n"
            "    #count{T : login_attempt(IP, T, failed, _)} >= limit.\n")
        argv = ["detect", str(sample_path), "--rules", str(rules)] + BASE
        code, out, _ = run_main(capsys, argv)
        assert code == EXIT_OK
        assert "no anomalies detected" in out
        code, out, _ = run_main(capsys, argv + ["--set", "limit=5"])
        assert code == EXIT_OK
        assert 'network_anomaly: ip="218.188.2.4"' in out


DEMO_LOG = REPO_ROOT / "demos" / "data" / "sample.log"


class TestOneOverridePath:
    """The bundled rules are read like a ``--rules`` file holding
    ``RULES_TEXT``: the same ``--set`` pairs give the same run, byte for
    byte, and the rule text is lexed once when nothing is set."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("override")
        (folder / "bundled.lp").write_text(RULES_TEXT, encoding="utf-8")
        return folder

    @staticmethod
    def run(folder, rules, pairs, flags):
        emitted = folder / "emitted.lp"
        emitted.unlink(missing_ok=True)
        argv = ["detect", str(DEMO_LOG), "--emit-rules", str(emitted), *rules, *flags, *BASE]
        for pair in pairs:
            argv += ["--set", pair]
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            code = main(argv, env={})
        text = emitted.read_text(encoding="utf-8") if emitted.exists() else None
        return code, out.getvalue(), err.getvalue(), text

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.sampled_from(Thresholds._fields), st.integers(-5, 5)),
           st.sampled_from([[], ["nosuch=3"]]),
           st.sampled_from([[], ["--output", "json"], ["--group"]]))
    def test_bundled_rules_run_as_a_rules_file(self, folder, values, undefined, flags):
        pairs = [f"{name}={value}" for name, value in values.items()] + undefined
        bundled = self.run(folder, [], pairs, flags)
        assert bundled == self.run(folder, ["--rules", str(folder / "bundled.lp")], pairs,
                                   flags)
        assert bundled[3] == (None if undefined else
                              stratalog.parser.override_consts(RULES_TEXT, values))

    def tokenize_calls(self, monkeypatch, folder, rules, pairs):
        calls = []
        tokenize = stratalog.parser._tokenize

        def counted(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(stratalog.parser, "_tokenize", counted)
        code, _, _, _ = self.run(folder, rules, pairs, [])
        assert code == EXIT_OK
        return len(calls)

    @pytest.mark.parametrize("from_file", [False, True], ids=["bundled", "rules-file"])
    def test_rule_text_is_lexed_once_without_set(self, monkeypatch, folder, from_file):
        rules = ["--rules", str(folder / "bundled.lp")] if from_file else []
        assert self.tokenize_calls(monkeypatch, folder, rules, []) == 1
        assert self.tokenize_calls(monkeypatch, folder, rules,
                                   ["failed_login_threshold=6", "gdm_failure_threshold=1"]) <= 2

    def test_rules_file_that_fails_to_lex_is_still_emitted(self, folder):
        rules = folder / "unlexable.lp"
        rules.write_text('#const k = 1.\np("open).\n', encoding="utf-8")
        code, out, err, text = self.run(folder, ["--rules", str(rules)], [], [])
        assert (code, out, text) == (EXIT_ERROR, "", rules.read_text(encoding="utf-8"))
        assert err.startswith("error in rules stage: 2:3: ")
        # with a --set, the override lexes the text and fails before the copy
        code, _, err, text = self.run(folder, ["--rules", str(rules)], ["k=2"], [])
        assert (code, text) == (EXIT_ERROR, None)
        assert err.startswith("error in rules stage: 2:3: ")


class TestDeepDerivation:
    """A derivation deeper than the interpreter's recursion limit."""

    @staticmethod
    def chain_rules(path, n):
        edges = " ".join(f"edge({i}, {i + 1})." for i in range(n))
        path.write_text("reach(0).\nreach(Y) :- reach(X), edge(X, Y).\n" + edges
                        + f"\nsystem_issue(deep, Y) :- reach(Y), Y == {n}.\n")
        return path

    @pytest.fixture
    def deep_rules(self, tmp_path):
        return self.chain_rules(tmp_path / "deep.lp", 3000)

    def test_text_report_renders_every_step(self, capsys, sample_path, deep_rules):
        code, out, err = run_main(
            capsys, ["detect", str(sample_path), "--rules", str(deep_rules)] + BASE)
        assert code == EXIT_OK, err
        lines = out.splitlines()
        assert lines[0] == "system_issue: issue=deep at 3000 (1970-01-01T00:50:00+00:00)"
        assert lines[1] == "  system_issue(deep,3000)  [rule at 4:1]"
        assert lines[2] == "    reach(3000)  [rule at 2:1]"
        assert lines.count("  " * MAX_INDENT + "[3002] reach(0)  [input fact]") == 1
        assert lines[-1] == "total: 1 (system_issue: 1)"

    def test_text_report_grows_linearly_with_depth(self, capsys, sample_path, tmp_path):
        sizes = []
        for n in (1000, 2000, 3000):
            rules = self.chain_rules(tmp_path / f"chain{n}.lp", n)
            code, out, err = run_main(
                capsys, ["detect", str(sample_path), "--rules", str(rules)] + BASE)
            assert code == EXIT_OK, err
            sizes.append(len(out.encode()))
        # each further thousand steps adds the same bytes, give or take the
        # widths of the numbers; quadratic growth would add 4 MB more
        first, second = sizes[1] - sizes[0], sizes[2] - sizes[1]
        assert abs(second - first) < 0.01 * first
        assert sizes[2] < 3000 * 200

    def test_json_report_fails_in_the_report_stage(self, capsys, sample_path, deep_rules):
        code, out, err = run_main(
            capsys, ["detect", str(sample_path), "--rules", str(deep_rules),
                     "--output", "json"] + BASE)
        assert code == EXIT_ERROR
        assert err == "error in report stage: derivation too deep to encode as JSON\n"
        assert out == ""


def _sum(ones: int) -> str:
    return "+".join(["1"] * ones)


class TestDeepTerm:
    """A term nested past ``MAX_TERM_DEPTH`` ends in a named stage error; one
    at the limit runs like any other."""

    @pytest.mark.parametrize("ones", [1000, MAX_TERM_DEPTH + 2])
    def test_rules_file(self, capsys, sample_path, tmp_path, ones):
        rules = tmp_path / "deep.lp"
        rules.write_text(f"p({_sum(ones)}).\n")
        code, out, err = run_main(capsys, ["detect", str(sample_path), "--rules", str(rules)]
                                  + BASE)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error in rules stage: ")
        assert f"deeper than {MAX_TERM_DEPTH} '+'/'-' operators" in err

    def test_facts_file(self, capsys, sample_path, tmp_path):
        facts = tmp_path / "deep.facts"
        facts.write_text(f"p({_sum(1000)}).\n")
        code, out, err = run_main(
            capsys, ["detect", str(sample_path), "--extra-facts", str(facts)] + BASE)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error in facts stage: ")
        assert f"deeper than {MAX_TERM_DEPTH} '+'/'-' operators" in err

    def test_at_the_limit(self, capsys, sample_path, tmp_path):
        text = (f"base(1).\np(X + {_sum(MAX_TERM_DEPTH)}) :- base(X).\n"
                f"q({_sum(MAX_TERM_DEPTH + 1)}).\n"
                "system_issue(deep, Y) :- p(Y), q(Y).\n")
        program = parse_program(text)
        assert parse_program(format_program(program)) == program
        rules = tmp_path / "limit.lp"
        rules.write_text(text)
        code, out, err = run_main(capsys, ["detect", str(sample_path), "--rules", str(rules)]
                                  + BASE)
        assert code == EXIT_OK, err
        value = MAX_TERM_DEPTH + 1
        lines = out.splitlines()
        assert lines[0].startswith(f"system_issue: issue=deep at {value} ")
        assert lines[1:] == [f"  system_issue(deep,{value})  [rule at 4:1]",
                             f"    p({value})  [rule at 2:1]",
                             "      base(1)  [input fact]",
                             f"    q({value})  [rule at 3:1]",
                             "",
                             "total: 1 (system_issue: 1)"]


def _bases(count: int) -> str:
    return ", ".join(f"base(X{i})" for i in range(count))


class TestLongBody:
    """A rule joins at most ``MAX_JOIN_LITERALS`` literals, its body and its
    aggregates' conditions together; a longer one ends in the evaluate
    stage instead of overflowing the stack."""

    def run_rules(self, capsys, sample_path, tmp_path, body):
        rules = tmp_path / "long.lp"
        rules.write_text(f"base(1).\nsystem_issue(x, X0) :- {body}.\n")
        return run_main(capsys, ["detect", str(sample_path), "--rules", str(rules)] + BASE)

    @pytest.mark.parametrize("literals", [MAX_JOIN_LITERALS + 1, 1200])
    def test_body_past_the_limit(self, capsys, sample_path, tmp_path, literals):
        code, out, err = self.run_rules(capsys, sample_path, tmp_path, _bases(literals))
        assert code == EXIT_ERROR
        assert out == ""
        assert err == (f"error in evaluate stage: 2:1: rule joins {literals} literals, body and "
                       f"aggregate conditions together; the limit is {MAX_JOIN_LITERALS}\n")

    @pytest.mark.parametrize("body", [
        _bases(MAX_JOIN_LITERALS),
        f"base(X0), #count{{Y : {', '.join(['base(Y)'] * (MAX_JOIN_LITERALS - 2))}}} > 0",
    ], ids=["body", "condition"])
    def test_at_the_limit(self, capsys, sample_path, tmp_path, body):
        code, out, err = self.run_rules(capsys, sample_path, tmp_path, body)
        assert code == EXIT_OK, err
        assert out.startswith("system_issue: issue=x at 1 ")
        assert out.endswith("total: 1 (system_issue: 1)\n")


class TestWideRecursion:
    """A rule has at most ``MAX_STRATUM_ATOMS`` body atoms of its own
    stratum; one more ends in the evaluate stage."""

    @pytest.mark.parametrize("atoms", [MAX_STRATUM_ATOMS, MAX_STRATUM_ATOMS + 1])
    def test_at_and_past_the_limit(self, capsys, sample_path, tmp_path, atoms):
        rules = tmp_path / "wide.lp"
        rules.write_text("base(1).\nsystem_issue(x, X) :- base(X), "
                         + ", ".join(["system_issue(x, X)"] * atoms) + ".\n")
        code, out, err = run_main(capsys, ["detect", str(sample_path), "--rules", str(rules)]
                                  + BASE)
        if atoms == MAX_STRATUM_ATOMS:
            assert (code, err) == (EXIT_OK, "")
            assert out.endswith("total: 0\n")
        else:
            assert (code, out) == (EXIT_ERROR, "")
            assert err == (f"error in evaluate stage: 2:1: rule has {atoms} body atoms of its own "
                           f"stratum, each joined first in a plan of its own; the limit is "
                           f"{MAX_STRATUM_ATOMS}\n")


class TestArithmeticOnASymbol:
    """A sum on a symbol inside a body atom ends in the evaluate stage even
    when the atom's predicate has no facts and no rule derives it."""

    def test_first_atom_over_an_empty_input(self, capsys, sample_path, tmp_path):
        rules = tmp_path / "r.lp"
        rules.write_text("p(X) :- q(1 + a, X).\n")
        code, out, err = run_main(capsys, ["detect", str(sample_path), "--rules", str(rules)]
                                  + BASE)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error in evaluate stage: 1:1: arithmetic on non-integer constant (1 + a)\n"


class TestHugeIntegers:
    """Integers past the interpreter's digit limit for writing one out end in
    a named stage error: a literal in the rules stage, at its line and
    column, and a sum in the evaluate stage, so every model value can be
    printed. A timestamp without an ISO date ends in the report stage."""

    LIMIT = sys.get_int_max_str_digits()

    def run_rules(self, capsys, sample_path, tmp_path, text, *flags):
        rules = tmp_path / "big.lp"
        rules.write_text(text)
        code, out, err = run_main(capsys, ["detect", str(sample_path), "--rules", str(rules),
                                           *flags] + BASE)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_sum_past_the_limit(self, capsys, sample_path, tmp_path, output):
        err = self.run_rules(capsys, sample_path, tmp_path,
                             f"q({'9' * self.LIMIT}).\nsystem_issue(big, X + Y) :- q(X), q(Y).\n",
                             "--output", output)
        assert err == (f"error in evaluate stage: 2:1: '+' gives an integer of more than "
                       f"{self.LIMIT} digits, the interpreter's limit for writing one out\n")

    @pytest.mark.parametrize("template, position", [
        ("p({}).\n", "1:3"), ("p(1).\nq(X) :- p(X), X > -{}.\n", "2:20"),
        ("#const k = {}.\n", "1:12")], ids=["fact", "negative", "const"])
    def test_literal_past_the_limit(self, capsys, sample_path, tmp_path, template, position):
        err = self.run_rules(capsys, sample_path, tmp_path, template.format("9" * 5000))
        assert err == (f"error in rules stage: {position}: integer has more than "
                       f"{self.LIMIT} digits\n")

    def test_set_value_at_the_limit(self, capsys, sample_path, tmp_path):
        err = self.run_rules(capsys, sample_path, tmp_path,
                             "#const k = 1.\nsystem_issue(k, X + k) :- q(X).\nq(1).\n",
                             "--set", f"k={'9' * self.LIMIT}")
        assert err.startswith("error in evaluate stage: 2:1: '+' gives an integer of more than")

    def test_long_set_value_is_cut_in_the_usage_error(self, capsys, sample_path):
        value = "x" * 3000
        with pytest.raises(SystemExit) as exit_:
            main(["detect", str(sample_path), "--set", f"failed_login_threshold={value}"],
                 env={})
        assert exit_.value.code == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == ("stratalog: error: --set failed_login_threshold: value must be an "
                       f"integer, got {value[:20]!r}...")

    def test_set_value_past_the_limit(self, capsys, sample_path):
        value = "9" * (self.LIMIT + 100)
        with pytest.raises(SystemExit) as exit_:
            main(["detect", str(sample_path), "--set", f"k={value}"], env={})
        assert exit_.value.code == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == (f"stratalog: error: --set k: value has more than {self.LIMIT} digits, "
                       f"got {value[:20]!r}...")

    @pytest.mark.parametrize("flags", [[], ["--group"], ["--output", "json"]])
    @pytest.mark.parametrize("stamp", [10 ** 12, -10 ** 12, "9" * 4000])
    def test_timestamp_without_a_date(self, capsys, sample_path, tmp_path, flags, stamp):
        err = self.run_rules(capsys, sample_path, tmp_path,
                             f"system_issue(huge, {stamp}).\n", *flags)
        assert err == "error in report stage: a timestamp is outside the years 1 to 9999\n"


class TestHostileRuleText:
    """Whatever rule file and ``--set`` pairs ``hostile_rules`` draws, a run
    ends with a report, or with exactly one ``error in <stage> stage:`` line
    and exit code 1; never with a traceback."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("hostile")
        (folder / "sample.log").write_text(SYSLOG_SAMPLE)
        return folder / "sample.log", folder / "rules.lp"

    @settings(max_examples=60, deadline=None)
    @given(hostile_rules(), st.sampled_from([[], ["--output", "json"], ["--group"]]))
    @example(('p("a\\\nb").\n', []), [])  # an escaped line break in a lexer error
    def test_run_ends_in_a_report_or_a_named_stage(self, paths, example, flags):
        sample, rules = paths
        text, pairs = example
        rules.write_text(text, encoding="utf-8")
        argv = ["detect", str(sample), "--rules", str(rules), *flags, *BASE]
        for pair in pairs:
            argv += ["--set", pair]
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            code = main(argv, env={})
        if code == EXIT_ERROR:
            assert out.getvalue() == ""
            assert re.fullmatch(r"error in (rules|evaluate|report) stage: [^\n]*\n", err.getvalue())
        else:
            assert code in (EXIT_OK, EXIT_INCONSISTENT)
            assert err.getvalue() == ""
            if "json" in flags:  # zero alerts are zero lines, an empty stdout
                assert all(isinstance(json.loads(line), dict)
                           for line in out.getvalue().splitlines())
            else:
                assert out.getvalue().endswith("\n")


class TestEnvironmentFallbacks:
    def test_output_from_env(self, capsys, sample_path):
        code, out, _ = run_main(
            capsys, ["detect", str(sample_path)] + BASE,
            env={"STRATALOG_OUTPUT": "json"})
        assert json.loads(out.splitlines()[0])["kind"] == "potential_brute_force"

    def test_flag_beats_env(self, capsys, sample_path):
        code, out, _ = run_main(
            capsys,
            ["detect", str(sample_path), "--output", "text"] + BASE,
            env={"STRATALOG_OUTPUT": "json"})
        assert out.startswith("potential_brute_force: ip=")

    def test_group_env_truthy(self, capsys, sample_path):
        code, out, _ = run_main(
            capsys, ["detect", str(sample_path)] + BASE,
            env={"STRATALOG_GROUP": "1"})
        assert "count=1" in out

    def test_set_from_env(self, capsys, sample_path):
        code, out, _ = run_main(
            capsys, ["detect", str(sample_path)] + BASE,
            env={"STRATALOG_SET": "failed_login_threshold=6,gdm_failure_threshold=9"})
        assert "potential_brute_force" not in out

    def test_year_from_env(self, capsys, sample_path):
        code, out, _ = run_main(
            capsys, ["detect", str(sample_path), "--format", "syslog"],
            env={"STRATALOG_YEAR": "2005"})
        assert code == EXIT_OK
        assert "1118762281" in out


class TestSubprocess:
    def cli(self, argv, hashseed):
        # the child runs the copy of the package this process imported
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=str(Path(stratalog.__file__).resolve().parent.parent))
        return subprocess.run(
            [sys.executable, "-m", "stratalog.cli"] + argv,
            capture_output=True, text=True, env=env)

    def test_byte_identical_across_hash_seeds(self, sample_path):
        argv = ["detect", str(sample_path)] + BASE
        first = self.cli(argv, "0")
        second = self.cli(argv, "12345")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty: alerts were printed

    def test_json_mode_byte_identical(self, sample_path):
        argv = ["detect", str(sample_path), "--output", "json"] + BASE
        first = self.cli(argv, "1")
        second = self.cli(argv, "99")
        assert first.stdout == second.stdout
