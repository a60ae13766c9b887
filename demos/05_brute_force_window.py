"""Windowed counting: how the brute-force detection rule works.

The bundled rule counts, for each failed login, how many failures from the
same address fall inside the preceding window (both edges inclusive), and
flags the address when the count reaches the threshold:

    failed_count(IP, Time, Count) :-
        login_attempt(IP, Time, failed, _),
        Count = #count{T : login_attempt(IP, T, failed, _),
        T >= Time - login_time_window, T <= Time}.

    potential_brute_force(IP, Time) :-
        login_attempt(IP, Time, failed, _),
        failed_count(IP, Time, Count),
        Count >= failed_login_threshold.
"""
from stratalog import (
    Symbol,
    Thresholds,
    default_program,
    evaluate,
    explain,
    fact,
    parse_program,
    query,
)


def failed(ip, *times):
    # the status slot holds the symbol `failed`, not the string "failed" —
    # symbols compare only to symbols
    return [fact("login_attempt", ip, t, Symbol("failed"), "unknown")
            for t in times]


PROGRAM = parse_program(default_program())  # window 600 s, threshold 5


def flags(extra):
    model, _ = evaluate(PROGRAM, extra)
    return query(model, "potential_brute_force")


# Five failures spread across the full window: the fifth one trips the rule.
print("5 failures in 600 s :", flags(failed("1.2.3.4", 0, 150, 300, 450, 600)))
# Four failures never reach the threshold.
print("4 failures          :", flags(failed("1.2.3.4", 0, 150, 300, 450)))
# The edge is inclusive: a failure at exactly Time-600 still counts ...
print("oldest at T-600     :", flags(failed("1.2.3.4", 100, 200, 300, 400, 700)))
# ... but one second earlier falls outside.
print("oldest at T-601     :", flags(failed("1.2.3.4", 99, 200, 300, 400, 700)))
# Counting is per address; two quiet addresses don't add up.
print("3 + 2 split addrs   :", flags(failed("1.1.1.1", 0, 10, 20)
                                     + failed("2.2.2.2", 30, 40)))
# Counts are over distinct timestamps (set semantics): replaying the same
# second five times is still a single failure.
print("same second x5      :", flags(failed("1.2.3.4", 7, 7, 7, 7, 7)))

# --- tuning ------------------------------------------------------------------
# Thresholds are plain #const values; override them without editing rules.
strict = parse_program(default_program(Thresholds(failed_login_threshold=2)))
model, graph = evaluate(strict, failed("9.9.9.9", 5, 10))
(alert,) = query(model, "potential_brute_force")
print("\nthreshold lowered to 2:", alert)

# --- explanations --------------------------------------------------------------
# Every alert carries its full derivation, including the count that tripped.
def show(node, depth=0):
    origin = "input fact" if node.is_fact else f"rule at {node.rule.span.line}:{node.rule.span.column}"
    print("  " * depth + f"{node.atom}  [{origin}]")
    for child in node.children:
        show(child, depth + 1)
    for check in node.checks:
        print("  " * (depth + 1) + f"check: {check}")

print()
show(explain(graph, alert))
