"""Log ingestion: CSV exports, raw syslog, timestamp conversion."""
import calendar
import io
import random
from datetime import timedelta, timezone

import pytest

from stratalog.ingest import (
    IngestOptions,
    IngestResult,
    MissingColumnError,
    RawLogRecord,
    SyslogFormatError,
    entries_from_records,
    parse_raw_syslog_line,
    parse_structured_csv,
    read_csv_entries,
    read_syslog_entries,
    to_timestamp,
)
from stratalog.report import RunConfig, load_entries
from conftest import SYSLOG_SAMPLE, make_csv_sample

MONTH_NAMES = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


def record(month="Jun", day=14, time_of_day="15:16:02", **kw) -> RawLogRecord:
    base = dict(line_id=1, month=month, day=day, time_of_day=time_of_day,
                level=None, component="sshd(pam_unix)", pid=123,
                content="x", event_id="E1", event_template="")
    base.update(kw)
    return RawLogRecord(**base)


class TestTimestampConversion:
    def test_known_instant(self):
        # calendar.timegm((2005, 6, 14, 15, 16, 2)) == 1118762162
        assert to_timestamp(record(), 2005) == 1118762162

    def test_epoch_origin(self):
        assert to_timestamp(record("Jan", 1, "00:00:00"), 1970) == 0

    def test_invalid_calendar_date(self):
        with pytest.raises(ValueError):
            to_timestamp(record("Feb", 30), 2005)

    def test_agrees_with_independent_calendar_on_random_dates(self):
        rng = random.Random(20050614)
        days_in = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
        for _ in range(1000):
            month = rng.randrange(12)
            day = rng.randint(1, days_in[month])
            hh, mm, ss = rng.randrange(24), rng.randrange(60), rng.randrange(60)
            year = rng.randint(1971, 2037)
            rec = record(MONTH_NAMES[month], day, f"{hh:02d}:{mm:02d}:{ss:02d}")
            expected = calendar.timegm((year, month + 1, day, hh, mm, ss))
            assert to_timestamp(rec, year) == expected

    def test_strictly_increasing_within_year(self):
        rng = random.Random(7)
        stamps = []
        keys = []
        days_in = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
        for _ in range(300):
            month = rng.randrange(12)
            day = rng.randint(1, days_in[month])
            hh, mm, ss = rng.randrange(24), rng.randrange(60), rng.randrange(60)
            keys.append((month, day, hh, mm, ss))
            stamps.append(to_timestamp(
                record(MONTH_NAMES[month], day, f"{hh:02d}:{mm:02d}:{ss:02d}"), 2005))
        order = sorted(range(300), key=lambda i: keys[i])
        for a, b in zip(order, order[1:]):
            if keys[a] != keys[b]:
                assert stamps[a] < stamps[b]

    def test_fixed_offset_zone_shifts_result(self):
        utc = to_timestamp(record(), 2005, timezone.utc)
        plus_two = to_timestamp(record(), 2005, timezone(timedelta(hours=2)))
        assert plus_two == utc - 7200


class TestStructuredCsv:
    def test_parses_all_well_formed_rows(self):
        result = parse_structured_csv(io.StringIO(make_csv_sample()))
        assert len(result.records) == 9
        assert result.skipped == 0
        first = result.records[0]
        assert first.line_id == 1
        assert first.component == "sshd(pam_unix)"
        assert first.pid == 19939
        assert first.event_id == "E1"

    def test_field_values_survive_reserialization(self):
        text = make_csv_sample()
        result = parse_structured_csv(io.StringIO(text))
        rows = [{
            "LineId": str(r.line_id), "Month": r.month, "Date": str(r.day),
            "Time": r.time_of_day, "Component": r.component,
            "PID": "" if r.pid is None else str(r.pid),
            "Content": r.content, "EventId": r.event_id,
            "EventTemplate": r.event_template,
        } for r in result.records]
        again = parse_structured_csv(io.StringIO(make_csv_sample(rows)))
        assert again.records == result.records

    def test_missing_required_column(self):
        bad = make_csv_sample().replace("EventId", "EventCode")
        with pytest.raises(MissingColumnError) as err:
            parse_structured_csv(io.StringIO(bad))
        assert err.value.column == "EventId"

    def test_bad_rows_skipped_and_counted(self):
        rows = [
            {"LineId": "1", "Month": "Jun", "Date": "14", "Time": "15:16:02",
             "Component": "c", "PID": "", "Content": "ok", "EventId": "E1",
             "EventTemplate": ""},
            {"LineId": "x", "Month": "Jun", "Date": "14", "Time": "15:16:02",
             "Component": "c", "PID": "", "Content": "bad id", "EventId": "E1",
             "EventTemplate": ""},
            {"LineId": "3", "Month": "Junk", "Date": "14", "Time": "15:16:02",
             "Component": "c", "PID": "", "Content": "bad month", "EventId": "E1",
             "EventTemplate": ""},
            {"LineId": "4", "Month": "Jun", "Date": "34", "Time": "15:16:02",
             "Component": "c", "PID": "", "Content": "bad day", "EventId": "E1",
             "EventTemplate": ""},
            {"LineId": "5", "Month": "Jun", "Date": "14", "Time": "25:16:02",
             "Component": "c", "PID": "", "Content": "bad time", "EventId": "E1",
             "EventTemplate": ""},
            {"LineId": "6", "Month": "Jun", "Date": "14", "Time": "15:16:02",
             "Component": "c", "PID": "", "Content": "", "EventId": "E1",
             "EventTemplate": ""},
        ]
        result = parse_structured_csv(io.StringIO(make_csv_sample(rows)))
        assert len(result.records) == 1
        assert result.skipped == 5
        assert len(result.errors) == 5

    def test_entries_carry_timestamps(self):
        entries, result = read_csv_entries(io.StringIO(make_csv_sample()))
        assert len(entries) == 9
        assert result.skipped == 0
        assert entries[0].timestamp == calendar.timegm((2005, 6, 14, 15, 16, 1))


class TestRawSyslog:
    def test_component_and_pid(self):
        rec = parse_raw_syslog_line(
            "Jun 14 15:16:01 combo sshd(pam_unix)[19939]: "
            "session opened for user test")
        assert rec.component == "sshd(pam_unix)"
        assert rec.pid == 19939
        assert rec.content == "session opened for user test"
        assert rec.event_id == "raw"

    def test_component_without_pid(self):
        rec = parse_raw_syslog_line(
            "Jul 27 14:41:57 combo ftpd[31337]: connection from 1.2.3.4")
        assert rec.component == "ftpd"
        rec2 = parse_raw_syslog_line(
            "Jun 15 04:06:20 combo logrotate: ALERT exited abnormally with [1]")
        assert rec2.component == "logrotate"
        assert rec2.pid is None

    def test_unparseable_line(self):
        with pytest.raises(SyslogFormatError):
            parse_raw_syslog_line("garbage")

    def test_stream_skips_and_counts_bad_lines(self, syslog_sample):
        text = syslog_sample + "not a log line\n\n"
        entries, result = read_syslog_entries(io.StringIO(text))
        assert len(entries) == 9
        assert result.skipped == 1
        assert "not a log line" in result.errors[0]


class TestYearHandling:
    def test_single_year_by_default(self):
        records = [record("Dec", 31, "23:59:59"), record("Jan", 1, "00:00:01")]
        entries = entries_from_records(IngestResult(records), IngestOptions(base_year=2005))
        assert entries[0].timestamp == calendar.timegm((2005, 12, 31, 23, 59, 59))
        assert entries[1].timestamp == calendar.timegm((2005, 1, 1, 0, 0, 1))


class TestOneBadLineIsSkipped:
    """An undecodable byte or a date that does not exist costs one line, not
    the run; every non-blank line ends up in records or in skipped."""

    @staticmethod
    def sample(input_format: str) -> str:
        return SYSLOG_SAMPLE if input_format == "syslog" else make_csv_sample()

    @pytest.mark.parametrize("input_format", ["syslog", "csv"])
    def test_undecodable_byte(self, tmp_path, input_format):
        data = self.sample(input_format).encode("utf-8")
        data = data.replace(b"session closed for user cyrus", b"session closed for \xff")
        path = tmp_path / "input.log"
        path.write_bytes(data)
        config = RunConfig(input_path=str(path), input_format=input_format)
        entries, result = load_entries(config)
        assert len(entries) == len(result.records) == 8
        assert result.skipped == 1
        assert "undecodable" in result.errors[0]
        assert not any("session closed" in e.record.content for e in entries)

    @pytest.mark.parametrize("input_format", ["syslog", "csv"])
    @pytest.mark.parametrize("date, year, kept", [
        ("Feb 30", 2004, 8), ("Feb 29", 2005, 8), ("Feb 29", 2004, 9), ("Apr 31", 2005, 8)])
    def test_impossible_date(self, input_format, date, year, kept):
        month, day = date.split()
        text = self.sample(input_format)
        if input_format == "syslog":
            text = text.replace("Jun 15 04:06:19", f"{month} {day} 04:06:19")
            read = read_syslog_entries
        else:
            text = text.replace("7,Jun,15,04:06:19", f"7,{month},{day},04:06:19")
            read = read_csv_entries
        entries, result = read(io.StringIO(text), IngestOptions(base_year=year))
        assert len(entries) == len(result.records) == kept
        assert result.skipped == 9 - kept
        assert result.errors == ([] if kept == 9 else [f"line 7: no {date} in {year}"])

    def test_year_out_of_range_still_fails(self):
        with pytest.raises(ValueError, match="year 0 is out of range"):
            read_syslog_entries(io.StringIO(SYSLOG_SAMPLE), IngestOptions(base_year=0))
