"""Reading logs: raw syslog lines and structured CSV exports.

Both readers produce the same LogEntry values, one named tuple per line: a
component name, an optional PID, the free-text message, and a UTC epoch
timestamp.  Syslog timestamps carry no year, so the reader pins one
(base_year) for every line.
"""
from io import StringIO
from pathlib import Path

from stratalog import IngestOptions, read_csv_entries, read_syslog_entries

HERE = Path(__file__).resolve().parent

# --- raw syslog -----------------------------------------------------------
# The sample file is twenty lines from a single host: an ssh brute-force
# burst, an FTP connection flood, an su session, and some background noise.
with open(HERE / "data" / "sample.log") as handle:
    entries, result = read_syslog_entries(handle, IngestOptions(base_year=2005))

print(f"parsed {len(entries)} syslog entries ({result.skipped} skipped)")
first = entries[0]
print("first entry:")
print(f"  component = {first.component!r}")
print(f"  pid       = {first.pid!r}")
print(f"  timestamp = {first.timestamp}  (Unix epoch, UTC)")
print(f"  content   = {first.content!r}")

# Timestamps are plain integers, so arithmetic is ordinary arithmetic:
span = entries[-1].timestamp - entries[0].timestamp
print(f"sample covers {span} seconds ({span / 3600:.1f} hours)")

# --- structured CSV -------------------------------------------------------
# A structured export carries the same fields in columns.  The reader only
# needs Month/Date/Time plus Component, PID and Content.
csv_text = """\
LineId,Month,Date,Time,Component,PID,Content,EventId,EventTemplate
1,Jun,14,15:16:01,sshd(pam_unix),19939,authentication failure; logname= uid=0 euid=0 tty=NODEVssh ruser= rhost=218.188.2.4,E1,
2,Jun,15,04:06:18,su(pam_unix),21416,session opened for user cyrus by (uid=0),E2,
"""
csv_entries, csv_result = read_csv_entries(StringIO(csv_text),
                                           IngestOptions(base_year=2005))
print(f"\nparsed {len(csv_entries)} CSV entries")
for entry in csv_entries:
    print(f"  {entry.timestamp}  {entry.component}: {entry.content[:40]}...")

# The two readers agree: the first CSV row above is the same event as the
# first syslog line, and both produce the identical timestamp.
assert csv_entries[0].timestamp == entries[0].timestamp
print("\nsyslog and CSV readers agree on the shared event")

# Malformed rows are skipped and counted, never fatal:
bad = "not a syslog line at all\n" + "Jun 14 15:16:01 combo sshd: ok\n"
ok_entries, bad_result = read_syslog_entries(StringIO(bad),
                                             IngestOptions(base_year=2005))
print(f"malformed input: kept {len(ok_entries)}, skipped {bad_result.skipped}")
