"""Bundled detection rule packages, thresholds, and the anomaly catalog."""
import pytest

from stratalog.analysis import check_safety, stratify
from stratalog.engine import evaluate, query
from stratalog.facts import Symbol, fact
from stratalog.parser import parse_program
from stratalog.rules import (
    ANOMALY_CATALOG,
    RULES_TEXT,
    Thresholds,
    default_program,
)

FAILED = Symbol("failed")


def failed_logins(ip, times, user="unknown"):
    return [fact("login_attempt", ip, t, FAILED, user) for t in times]


def run(extra_facts, thresholds=None):
    program = parse_program(default_program(thresholds))
    result = evaluate(program, extra_facts)
    model, _ = result
    return model


class TestProgramText:
    def test_default_text_is_verbatim(self):
        assert default_program() == RULES_TEXT
        assert default_program(None) == RULES_TEXT

    def test_parses_safely_and_stratifies(self):
        program = parse_program(RULES_TEXT)
        assert check_safety(program) == []
        stratify(program)

    def test_const_defaults(self):
        assert parse_program(RULES_TEXT).consts == {
            "login_time_window": 600,
            "failed_login_threshold": 5,
            "connection_threshold": 10,
            "klogind_failure_threshold": 5,
            "gdm_failure_threshold": 3,
        }

    def test_override_rewrites_const_lines(self):
        text = default_program(Thresholds(failed_login_threshold=2, connection_threshold=99))
        consts = parse_program(text).consts
        assert consts["failed_login_threshold"] == 2
        assert consts["connection_threshold"] == 99
        assert consts["login_time_window"] == 600


class TestThresholds:
    def test_defaults(self):
        assert Thresholds()._asdict() == parse_program(RULES_TEXT).consts

    @pytest.mark.parametrize("bad", [True, "5", 2.5])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError, match="failed_login_threshold must be set to an integer"):
            default_program(Thresholds(failed_login_threshold=bad))

    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_values_are_legal(self, value):
        text = default_program(Thresholds(failed_login_threshold=value))
        assert parse_program(text).consts["failed_login_threshold"] == value

    def test_unknown_override_name_rejected(self):
        with pytest.raises(TypeError, match="no_such_threshold"):
            Thresholds(no_such_threshold=1)


class TestBruteForce:
    def test_five_failures_fire(self):
        model = run(failed_logins("1.2.3.4", [0, 10, 20, 30, 40]))
        assert fact("potential_brute_force", "1.2.3.4", 40) in set(model)

    def test_four_failures_do_not_fire(self):
        model = run(failed_logins("1.2.3.4", [0, 10, 20, 30]))
        assert model.atoms("potential_brute_force") == []

    def test_window_edge_inclusive(self):
        model = run(failed_logins("1.2.3.4", [100, 250, 400, 550, 700]))
        assert fact("potential_brute_force", "1.2.3.4", 700) in set(model)

    def test_just_outside_window_excluded(self):
        model = run(failed_logins("1.2.3.4", [99, 250, 400, 550, 700]))
        assert model.atoms("potential_brute_force") == []

    def test_successes_not_counted(self):
        attempts = failed_logins("1.2.3.4", [0, 10, 20, 30])
        attempts.append(fact("login_attempt", "1.2.3.4", 40,
                             Symbol("success"), "bob"))
        model = run(attempts)
        assert model.atoms("potential_brute_force") == []

    def test_addresses_counted_separately(self):
        attempts = (failed_logins("1.1.1.1", [0, 10, 20]) +
                    failed_logins("2.2.2.2", [0, 10]))
        model = run(attempts)
        assert model.atoms("potential_brute_force") == []

    def test_lowered_threshold_fires_on_single_failure(self):
        thresholds = Thresholds(failed_login_threshold=1)
        model = run(failed_logins("1.2.3.4", [7]), thresholds)
        assert fact("potential_brute_force", "1.2.3.4", 7) in set(model)

    def test_duplicate_timestamps_counted_once(self):
        model = run(failed_logins("1.2.3.4", [0, 0, 0, 0, 0, 10, 20, 30]))
        assert model.atoms("potential_brute_force") == []


class TestPrivilegeEscalation:
    def test_non_root_uid0_session_fires(self):
        model = run([fact("session", "cyrus", 0, Symbol("opened"), 500)])
        assert fact("potential_privilege_escalation", "cyrus", 500) in set(model)

    def test_root_excluded(self):
        model = run([fact("session", "root", 0, Symbol("opened"), 500)])
        assert model.atoms("potential_privilege_escalation") == []

    def test_nonzero_uid_excluded(self):
        model = run([fact("session", "cyrus", 1001, Symbol("opened"), 500)])
        assert model.atoms("potential_privilege_escalation") == []

    def test_session_close_excluded(self):
        model = run([fact("session", "cyrus", 0, Symbol("closed"), 500)])
        assert model.atoms("potential_privilege_escalation") == []


class TestNetworkAnomaly:
    def test_ten_connections_fire(self):
        model = run([fact("network_connection", "5.6.7.8", t) for t in range(10)])
        assert model.atoms("network_anomaly") == [("5.6.7.8",)]

    def test_nine_connections_do_not_fire(self):
        model = run([fact("network_connection", "5.6.7.8", t) for t in range(9)])
        assert model.atoms("network_anomaly") == []

    def test_duplicate_timestamps_do_not_inflate(self):
        facts = [fact("network_connection", "5.6.7.8", t) for t in range(9)]
        facts.append(fact("network_connection", "5.6.7.8", 0))
        model = run(facts)
        assert model.atoms("network_anomaly") == []

    def test_zero_threshold_fires_on_one_connection(self):
        model = run([fact("network_connection", "5.6.7.8", 0)],
                    Thresholds(connection_threshold=0))
        assert model.atoms("network_anomaly") == [("5.6.7.8",)]


class TestAccountAnomaly:
    def test_create_admin_fires(self):
        model = run([fact("account_action", Symbol("create_admin"), "eve", 9)])
        assert fact("account_anomaly", Symbol("create_admin"), "eve", 9) in set(model)

    def test_reactivate_requires_dormancy(self):
        action = [fact("account_action", Symbol("reactivate"), "mallory", 9)]
        assert run(action).atoms("account_anomaly") == []
        model = run(action + [fact("dormant_account", "mallory")])
        assert fact("account_anomaly", Symbol("reactivate"), "mallory", 9) in set(model)

    def test_other_actions_ignored(self):
        model = run([fact("account_action", Symbol("password_change"), "bob", 9)])
        assert model.atoms("account_anomaly") == []


class TestServiceBruteForce:
    def test_klogind_five_failures_fire(self):
        model = run([fact("klogind_auth_failure", "9.9.9.9", t) for t in range(5)])
        assert model.atoms("potential_klogind_brute_force") == [("9.9.9.9",)]

    def test_klogind_four_failures_do_not_fire(self):
        model = run([fact("klogind_auth_failure", "9.9.9.9", t) for t in range(4)])
        assert model.atoms("potential_klogind_brute_force") == []

    def test_klogind_counts_per_address(self):
        facts = ([fact("klogind_auth_failure", "9.9.9.9", t) for t in range(4)] +
                 [fact("klogind_auth_failure", "8.8.8.8", t) for t in range(4)])
        model = run(facts)
        assert model.atoms("potential_klogind_brute_force") == []

    def test_gdm_count_is_global_and_flags_every_timestamp(self):
        model = run([fact("gdm_auth_failure", t) for t in (11, 22, 33)])
        assert sorted(model.atoms("potential_gdm_brute_force")) == [(11,), (22,), (33,)]

    def test_gdm_below_threshold_flags_nothing(self):
        model = run([fact("gdm_auth_failure", t) for t in (11, 22)])
        assert model.atoms("potential_gdm_brute_force") == []


class TestSystemIssue:
    @pytest.mark.parametrize("source", [
        "logrotate_abnormal_exit", "named_soa_error", "xinetd_connection_reset"])
    def test_each_event_passes_through(self, source):
        model = run([fact(source, 77)])
        assert model.atoms("system_issue") == [(Symbol(source), 77)]


class TestCatalog:
    def test_seven_entries_in_package_order(self):
        assert [e.predicate for e in ANOMALY_CATALOG] == [
            "potential_brute_force", "potential_privilege_escalation",
            "network_anomaly", "account_anomaly",
            "potential_klogind_brute_force", "potential_gdm_brute_force",
            "system_issue"]

    def test_arities(self):
        arities = {e.predicate: e.arity for e in ANOMALY_CATALOG}
        assert arities["system_issue"] == 2
        assert arities["network_anomaly"] == 1
        assert arities["account_anomaly"] == 3

    def test_catalog_matches_rule_heads(self):
        program = parse_program(RULES_TEXT)
        heads = {r.head.predicate: len(r.head.terms)
                 for r in program.rules if r.head is not None}
        for entry in ANOMALY_CATALOG:
            assert heads[entry.predicate] == entry.arity

    def test_catalog_predicates_are_terminal(self):
        # anomaly outputs feed reports, not other rules
        program = parse_program(RULES_TEXT)
        outputs = {entry.predicate for entry in ANOMALY_CATALOG}
        for rule in program.rules:
            for literal in rule.body:
                body_atom = getattr(literal, "atom", literal)
                predicate = getattr(body_atom, "predicate", None)
                assert predicate not in outputs

    def test_arg_roles_match_arity(self):
        known_roles = {"ip", "user", "action", "issue", "timestamp"}
        for entry in ANOMALY_CATALOG:
            assert len(entry.arg_roles) == entry.arity
            assert set(entry.arg_roles) <= known_roles
        roles = {e.predicate: e.arg_roles for e in ANOMALY_CATALOG}
        assert roles["potential_brute_force"] == ("ip", "timestamp")
        assert roles["potential_klogind_brute_force"] == ("ip",)
        assert roles["potential_gdm_brute_force"] == ("timestamp",)

    def test_descriptions_present(self):
        for entry in ANOMALY_CATALOG:
            assert entry.description


class TestCombinedScenario:
    def test_multiple_packages_fire_together(self):
        facts = (failed_logins("1.2.3.4", [0, 10, 20, 30, 40], user="admin") +
                 [fact("session", "cyrus", 0, Symbol("opened"), 100),
                  fact("logrotate_abnormal_exit", 200)])
        model = run(facts)
        assert query(model, "potential_brute_force") == [
            fact("potential_brute_force", "1.2.3.4", 40)]
        assert query(model, "potential_privilege_escalation") == [
            fact("potential_privilege_escalation", "cyrus", 100)]
        assert query(model, "system_issue") == [
            fact("system_issue", Symbol("logrotate_abnormal_exit"), 200)]
        assert model.atoms("network_anomaly") == []
        assert model.atoms("account_anomaly") == []
