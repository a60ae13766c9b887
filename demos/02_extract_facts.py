"""From log entries to logical facts.

A mapping table turns each log entry into at most one ground fact.  Each
table row names the component prefix and/or content substring to match and
the predicate to emit; field values (addresses, usernames, uids) are pulled
out of the message text with small regular expressions, with explicit
"unknown" / -1 sentinels when a field is absent.
"""
import io
from pathlib import Path

from stratalog import (
    DEFAULT_TABLE,
    IngestOptions,
    entries_to_facts,
    entry_to_facts,
    format_fact,
    read_syslog_entries,
    write_facts_file,
)

HERE = Path(__file__).resolve().parent

# --- the default table ----------------------------------------------------
print("default mapping table:")
for row in DEFAULT_TABLE:
    trigger = []
    if row.component_prefix:
        trigger.append(f"component^={row.component_prefix!r}")
    if row.content_contains:
        trigger.append(f"content~={row.content_contains!r}")
    print(f"  {row.name:24s} -> {row.predicate:24s} [{', '.join(trigger)}]")

# --- single entries -------------------------------------------------------
with open(HERE / "data" / "sample.log") as handle:
    entries, _ = read_syslog_entries(handle, IngestOptions(base_year=2005))

print("\nper-entry extraction (first match wins, at most one fact each):")
for entry in entries[:3] + entries[15:17]:
    facts = entry_to_facts(entry)
    rendered = format_fact(facts[0]) if facts else "(no match)"
    print(f"  {entry.component:18s} {rendered}")

# The kernel noise line matches no table row and produces nothing:
kernel = [e for e in entries if e.component == "kernel"][0]
assert entry_to_facts(kernel) == []
print(f"  {'kernel':18s} (no match)  <- background noise is dropped")

# --- sentinels ------------------------------------------------------------
# A failed login without an rhost address keeps its slot filled with the
# "unknown" marker, so downstream rules can still count and group it.
orphan = 'Jun 14 15:16:01 combo sshd(pam_unix)[19939]: authentication failure; logname= uid=0 euid=0 tty=NODEVssh ruser= rhost='
only, _ = read_syslog_entries(io.StringIO(orphan), IngestOptions(base_year=2005))
print("\nmissing fields become sentinels:")
print(" ", format_fact(entry_to_facts(only[0])[0]))

# --- whole corpus to a facts file -----------------------------------------
facts = entries_to_facts(entries)
sink = io.StringIO()
write_facts_file(facts, sink)
print(f"\nfacts file for the sample ({len(facts)} facts):")
print(sink.getvalue())
