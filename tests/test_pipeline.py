"""The command line's whole pass: memory that grows with the facts, not the
lines, and alert counts equal to the benchmark generator's reference."""
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stratalog.cli import EXIT_OK, main
from stratalog.ingest import LogEntry

_ROOT = Path(__file__).resolve().parent.parent
_CORPUS = _ROOT / "bench" / "corpus.py"
_spec = importlib.util.spec_from_file_location("corpus", _CORPUS)
corpus = sys.modules["corpus"] = importlib.util.module_from_spec(_spec)  # for its dataclasses
_spec.loader.exec_module(corpus)


def _run(argv) -> str:
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        assert main(argv, env={}) == EXIT_OK
    return out.getvalue()


class TestMemoryFollowsFacts:
    """Lines no mapping row takes make no fact, so a run over 4N of them
    needs about the memory of a run over N: the entries are not kept."""

    N = 2000

    @staticmethod
    def peak(path: Path, lines: int) -> int:
        """The traced peak of one run over ``lines`` unmatched lines."""
        path.write_text("".join(f"Jun 14 15:{i // 60 % 60:02d}:{i % 60:02d} combo kernel: "
                                f"eth0: link up, noise line {i}\n" for i in range(lines)),
                        encoding="utf-8")
        argv = ["detect", str(path), "--format", "syslog", "--year", "2005"]
        tracemalloc.start()
        try:
            assert _run(argv) == "no anomalies detected\ntotal: 0\n"
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_unmatched_lines(self, tmp_path):
        path = tmp_path / "noise.log"
        self.peak(path, 10)  # caches filled, parser built
        growth = self.peak(path, 4 * self.N) - self.peak(path, self.N)
        entry = LogEntry(1, "Jun", 14, "15:16:02", None, "kernel", None, "x", "raw", "", 0)
        # keeping the 3N extra entries would take more than 3N tuples
        assert growth < self.N * sys.getsizeof(entry) // 4


_SUMMARY = re.compile(r"(\w+): (\d+)")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["hot", "spread"])
def test_cli_counts_equal_the_benchmark_reference(tmp_path, workload, seed):
    """The benchmark's own check, in tier-1: a seeded corpus, the whole
    command line, and per-kind totals from the report's summary line."""
    manifest = corpus.generate(workload, seed, tmp_path)
    argv = ["detect", str(tmp_path / manifest["input"]), "--format", manifest["format"],
            "--year", str(manifest["year"])]
    if manifest["extra_facts"]:
        argv += ["--extra-facts", str(tmp_path / manifest["extra_facts"])]
    summary = _run(argv).splitlines()[-1]
    counts = {kind: int(n) for kind, n in _SUMMARY.findall(summary) if kind != "total"}
    assert counts == manifest["expected"]
    assert sum(counts.values()) == int(summary.split()[1])


@pytest.mark.parametrize("workload", ["hot", "closure"])
def test_traced_benchmark_pass(tmp_path, workload):
    """The benchmark's traced pass rebuilds the whole run from each layer's
    public calls; one such pass, checked against the untimed one, must
    succeed and report its layers."""
    manifest = corpus.generate(workload, 1, tmp_path)
    corpus.write_manifest(manifest, tmp_path / "manifest.json")
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(_ROOT / "bench" / "worker.py"), "--manifest",
         str(tmp_path / "manifest.json"), "--seconds", "0", "--trace", "1",
         "--spans-out", str(tmp_path / "spans.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    assert isinstance(result["layers"], dict) and result["layers"]
