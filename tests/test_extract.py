"""Content extraction regexes and the entry-to-fact mapping table."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratalog.extract import (
    DEFAULT_TABLE,
    IPV4_PATTERN,
    LOG_SOURCED,
    MappingError,
    MappingRule,
    SCHEMAS,
    UNKNOWN,
    USERNAME_PATTERN,
    entries_to_facts,
    entry_to_facts,
    extract_ip,
    extract_uid,
    extract_username,
)
from stratalog.facts import Fact, Symbol
from stratalog.ingest import LogEntry


def entry(component: str, content: str, ts: int = 1000, pid: int | None = 1) -> LogEntry:
    return LogEntry(line_id=1, month="Jun", day=14, time_of_day="15:16:01", level=None,
                    component=component, pid=pid, content=content, event_id="raw",
                    event_template="", timestamp=ts)


class TestRegexExtraction:
    def test_ip_from_rhost_clause(self):
        assert extract_ip("ruser= rhost=218.188.2.4 user=root") == "218.188.2.4"

    def test_ip_absent(self):
        assert extract_ip("no address here") is None

    def test_ip_pattern_has_no_octet_range_check(self):
        assert extract_ip("from 999.999.999.999") == "999.999.999.999"
        # the same outcome under an independent application of the pattern
        assert re.search(r"(\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})",
                         "from 999.999.999.999").group(1) == "999.999.999.999"

    def test_ip_first_match_wins(self):
        assert extract_ip("from 1.2.3.4 to 5.6.7.8") == "1.2.3.4"

    def test_username_for_user_form(self):
        assert extract_username("session opened for user cyrus by (uid=0)") == "cyrus"

    def test_username_keyvalue_form(self):
        content = "authentication failure; logname= uid=0 tty=ssh user=root"
        assert extract_username(content) == "root"

    def test_username_by_user_form(self):
        assert extract_username("password changed by user admin") == "admin"

    def test_username_absent(self):
        assert extract_username("connection reset") is None

    def test_uid_zero(self):
        assert extract_uid("session opened for user cyrus by (uid=0)") == 0

    def test_uid_nonzero(self):
        assert extract_uid("session opened for user news by (uid=507)") == 507

    def test_uid_requires_parenthesized_form(self):
        assert extract_uid("session closed for user news") is None
        assert extract_uid("logname= uid=0 euid=0") is None


class TestDefaultTable:
    def test_failed_login_with_ip_no_user(self):
        e = entry("sshd(pam_unix)",
                  "authentication failure; logname= uid=0 euid=0 "
                  "tty=NODEVssh ruser= rhost=218.188.2.4")
        assert entry_to_facts(e) == [Fact("login_attempt", (
            "218.188.2.4", 1000, Symbol("failed"), UNKNOWN))]

    def test_failed_login_without_ip_uses_sentinel(self):
        e = entry("sshd(pam_unix)", "authentication failure; rhost=badhost user=root")
        assert entry_to_facts(e) == [Fact("login_attempt", (
            UNKNOWN, 1000, Symbol("failed"), "root"))]

    def test_successful_password_login(self):
        e = entry("sshd", "Accepted password for user fred from 10.0.0.5 port 22")
        assert entry_to_facts(e) == [Fact("login_attempt", (
            "10.0.0.5", 1000, Symbol("success"), "fred"))]

    def test_session_opened_with_uid(self):
        e = entry("su(pam_unix)", "session opened for user cyrus by (uid=0)")
        assert entry_to_facts(e) == [Fact("session", (
            "cyrus", 0, Symbol("opened"), 1000))]

    def test_session_closed_uid_sentinel(self):
        e = entry("su(pam_unix)", "session closed for user news")
        assert entry_to_facts(e) == [Fact("session", (
            "news", -1, Symbol("closed"), 1000))]

    def test_ftpd_connection(self):
        e = entry("ftpd", "connection from 84.102.20.2 () at Wed Jul 27 14:41:57 2005")
        assert entry_to_facts(e) == [Fact("network_connection", ("84.102.20.2", 1000))]

    def test_connection_requires_address(self):
        assert entry_to_facts(entry("ftpd", "connection from nowhere")) == []

    def test_klogind_failure(self):
        e = entry("klogind", "Authentication failed from 163.27.187.39: Permission denied")
        assert entry_to_facts(e) == [Fact("klogind_auth_failure",
                                          ("163.27.187.39", 1000))]

    def test_gdm_failure(self):
        e = entry("gdm(pam_unix)", "authentication failure; logname= uid=0")
        assert entry_to_facts(e) == [Fact("gdm_auth_failure", (1000,))]

    def test_logrotate_exit(self):
        e = entry("logrotate", "ALERT exited abnormally with [1]")
        assert entry_to_facts(e) == [Fact("logrotate_abnormal_exit", (1000,))]

    def test_named_soa(self):
        e = entry("named", "refresh_callback: zone x/IN: could not find NS and/or SOA records")
        assert entry_to_facts(e) == [Fact("named_soa_error", (1000,))]

    def test_xinetd_reset_case_insensitive(self):
        e = entry("xinetd", "warning: can't get client address: Connection reset by peer")
        assert entry_to_facts(e) == [Fact("xinetd_connection_reset", (1000,))]
        e2 = entry("xinetd", "warning: CONNECTION RESET by peer")
        assert entry_to_facts(e2) == [Fact("xinetd_connection_reset", (1000,))]
        e3 = entry("XINETD", "warning: Connection reset by peer")  # the prefix too
        assert entry_to_facts(e3) == [Fact("xinetd_connection_reset", (1000,))]

    def test_unmapped_entry_yields_nothing(self):
        assert entry_to_facts(entry("kernel", "klogd startup succeeded")) == []

    def test_first_matching_row_wins(self):
        # matches both the sshd failed-login row and the generic
        # connection row; the earlier row decides
        e = entry("sshd(pam_unix)",
                  "authentication failure; connection from 1.2.3.4")
        facts = entry_to_facts(e)
        assert [f.predicate for f in facts] == ["login_attempt"]

    def test_timestamp_propagates_to_every_fact(self):
        e = entry("ftpd", "connection from 84.102.20.2", ts=987654)
        assert entry_to_facts(e)[0].args[1] == 987654

    def test_statuses_stay_in_vocabulary(self, syslog_sample):
        from stratalog.ingest import read_syslog_entries
        import io
        entries, _ = read_syslog_entries(io.StringIO(syslog_sample))
        facts = entries_to_facts(entries)
        for f in facts:
            if f.predicate == "login_attempt":
                assert f.args[2] in (Symbol("failed"), Symbol("success"))
            if f.predicate == "session":
                assert f.args[2] in (Symbol("opened"), Symbol("closed"))

    def test_schema_arities_respected(self):
        rows = [
            entry("sshd(pam_unix)", "authentication failure; rhost=1.2.3.4"),
            entry("su(pam_unix)", "session opened for user cyrus by (uid=0)"),
            entry("ftpd", "connection from 5.6.7.8"),
            entry("klogind", "Authentication failed from 9.9.9.9"),
            entry("gdm", "authentication failure"),
            entry("logrotate", "exited abnormally"),
            entry("named", "no SOA record"),
            entry("xinetd", "Connection reset"),
        ]
        for f in entries_to_facts(rows):
            assert len(f.args) == SCHEMAS[f.predicate]


class TestTableLoading:
    def test_rejects_unknown_schema(self):
        with pytest.raises(MappingError, match="unknown fact schema"):
            MappingRule("x", "nonsense")

    def test_rejects_supplemental_only_schemas(self):
        with pytest.raises(MappingError, match="supplemental facts file"):
            MappingRule("x", "account_action")

    def test_custom_table_replaces_default(self):
        table = (MappingRule("any_reset", "xinetd_connection_reset",
                             content_contains="reset"),)
        e = entry("whatever", "link reset detected")
        assert entry_to_facts(e, table) == [Fact("xinetd_connection_reset", (1000,))]
        assert entry_to_facts(e, DEFAULT_TABLE) == []

    def test_patterns_compile(self):
        assert IPV4_PATTERN.pattern == r"(\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})"
        assert USERNAME_PATTERN.pattern == r"(?:user=|for user |by user )(\w+)"


# Pieces that make a row's prefix or needle hit, miss or differ only in case.
_WORDS = ["", "sshd", "SSHD", "ftpd", "xinetd", "Xi", "gdm", "(pam_unix)", "Reset",
          "reset", "connection from", "Authentication failed", "SOA", "user=root",
          "for user fred", "(uid=0)", "1.2.3.4", "ß", "İ", " "]
_joined = st.lists(st.sampled_from(_WORDS), max_size=4).map("".join)
_text = st.one_of(_joined, _joined.map(str.upper), _joined.map(str.swapcase))
_prefixes = st.sampled_from([row.component_prefix for row in DEFAULT_TABLE])
_needles = st.sampled_from([row.content_contains for row in DEFAULT_TABLE])
_component = st.one_of(_prefixes, _prefixes.map(str.upper), _text, st.text(max_size=8))
_content = st.one_of(_needles, _needles.map(str.swapcase), _text, st.text(max_size=12))


@st.composite
def _rule(draw):
    predicate = draw(st.sampled_from(sorted(LOG_SOURCED)))
    return MappingRule(f"r{draw(st.integers(0, 99))}", predicate,
                       component_prefix=draw(_text), content_contains=draw(_text),
                       case_insensitive=draw(st.booleans()), require_ip=draw(st.booleans()),
                       status=draw(st.sampled_from(["failed", "opened", "x9"])))


_table = st.one_of(st.just(DEFAULT_TABLE), st.lists(_rule(), max_size=6).map(tuple))


class TestCompiledTable:
    """The table compiled per component selects rows exactly as trying every
    row through ``MappingRule.matches`` in table order does."""

    @settings(max_examples=120, deadline=None)
    @given(_table, st.lists(st.tuples(_component, _content), min_size=1, max_size=8))
    def test_first_matching_row_decides(self, table, pairs):
        entries = [entry(component, content, 1000 + i, pid=None)
                   for i, (component, content) in enumerate(pairs)]
        expected = []
        for e in entries:
            component, content = e.component, e.content
            for row in table:
                alone = entries_to_facts([e], (row,))
                if not row.matches(component, content):
                    assert alone == []
                    continue
                if not row.require_ip or extract_ip(content) is not None:
                    assert len(alone) == 1
                expected += alone
                break
        assert entries_to_facts(entries, table) == expected
        assert [f for e in entries for f in entry_to_facts(e, table)] == expected
