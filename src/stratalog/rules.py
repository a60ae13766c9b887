"""The bundled anomaly detection rule packages.

Seven packages ship as one program: brute-force logins, privilege
escalation, frequent network connections, account anomalies, klogind
brute force, GDM authentication failures, and system-level issues. The
rule text is embedded as-is and never edited programmatically. It is read
like a ``--rules`` file: an override rewrites the value of a ``#const``
statement only, through the same :func:`stratalog.parser.override_consts`,
so the rules an operator audits are exactly the rules that run, and a value
is legal here exactly when it is legal in a rules file.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .parser import override_consts

RULES_TEXT = """\
% Brute force: repeated failed logins from one address inside a sliding
% window. The count is inclusive at both window edges.
#const login_time_window = 600.
#const failed_login_threshold = 5.

potential_brute_force(IP, Time) :-
    login_attempt(IP, Time, failed, _),
    failed_count(IP, Time, Count),
    Count >= failed_login_threshold.

failed_count(IP, Time, Count) :-
    login_attempt(IP, Time, failed, _),
    Count = #count{T : login_attempt(IP, T, failed, _),
    T >= Time - login_time_window, T <= Time}.

% Privilege escalation: a non-root user opens a session as uid 0.
potential_privilege_escalation(User, Timestamp) :-
    session(User, UID, opened, Timestamp),
    UID == 0,
    User != "root".

% Network anomalies: one address with many connections.
#const connection_threshold = 10.

network_anomaly(IP) :- frequent_connections(IP).

frequent_connections(IP) :- network_connection(IP, _),
    #count{T : network_connection(IP, T)} >= connection_threshold.

% Account anomalies: admin-account creation, or reactivation of an
% account separately known to be dormant.
account_anomaly(Action, User, Time) :-
    account_action(Action, User, Time), Action == create_admin.

account_anomaly(Action, User, Time) :-
    account_action(Action, User, Time),
    Action == reactivate, dormant_account(User).

% Klogind brute force: repeated authentication failures from one address.
#const klogind_failure_threshold = 5.

potential_klogind_brute_force(IP) :-
    klogind_auth_failure(IP, _),
    #count{T : klogind_auth_failure(IP, T)} >=
        klogind_failure_threshold.

% GDM authentication failures. The count is global (not windowed and not
% per-source), so once the threshold is met every failure timestamp flags.
#const gdm_failure_threshold = 3.

potential_gdm_brute_force(Time) :- gdm_auth_failure(Time),
    #count{T : gdm_auth_failure(T)} >= gdm_failure_threshold.

% System issues: pass observed operational events through as alerts.
system_issue(logrotate_abnormal_exit, Time) :-
    logrotate_abnormal_exit(Time).

system_issue(named_soa_error, Time) :-
    named_soa_error(Time).

system_issue(xinetd_connection_reset, Time) :-
    xinetd_connection_reset(Time).
"""


class Thresholds(NamedTuple):
    """The values of the bundled program's ``#const`` statements, as
    ``RULES_TEXT`` defines them. :func:`default_program` sets any of them
    through :func:`stratalog.parser.override_consts`, which checks them."""

    login_time_window: int = 600
    failed_login_threshold: int = 5
    connection_threshold: int = 10
    klogind_failure_threshold: int = 5
    gdm_failure_threshold: int = 3


def default_program(thresholds: Optional[Thresholds] = None) -> str:
    """The bundled program text with ``#const`` values set from thresholds."""
    return override_consts(RULES_TEXT, {} if thresholds is None else thresholds._asdict())


class CatalogEntry(NamedTuple):
    """One anomaly output predicate.

    ``arg_roles`` labels each argument position; the role "timestamp"
    marks the event-time argument, everything else names an entity.
    """

    predicate: str
    arity: int
    description: str
    arg_roles: tuple[str, ...]

    @property
    def kind(self) -> str:
        """The alert kind, which is the predicate's name."""
        return self.predicate


ANOMALY_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("potential_brute_force", 2,
                 "repeated failed logins from one address within the window",
                 ("ip", "timestamp")),
    CatalogEntry("potential_privilege_escalation", 2,
                 "non-root user opened a session with uid 0",
                 ("user", "timestamp")),
    CatalogEntry("network_anomaly", 1,
                 "address with an unusually high connection count",
                 ("ip",)),
    CatalogEntry("account_anomaly", 3,
                 "admin account created or dormant account reactivated",
                 ("action", "user", "timestamp")),
    CatalogEntry("potential_klogind_brute_force", 1,
                 "repeated klogind authentication failures from one address",
                 ("ip",)),
    CatalogEntry("potential_gdm_brute_force", 1,
                 "display-manager authentication failures past the threshold",
                 ("timestamp",)),
    CatalogEntry("system_issue", 2,
                 "operational problem observed in the logs",
                 ("issue", "timestamp")),
)

