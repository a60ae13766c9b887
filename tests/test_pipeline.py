"""The command line's whole pass: memory that grows with the facts, not the
lines, and alert counts equal to the benchmark generator's reference."""
import hashlib
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


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> dict[str, list[str]]:
    """The argv of the benchmark's ``hot`` and ``spread`` runs at seed 1."""
    argvs = {}
    for workload in ("hot", "spread"):
        directory = tmp_path_factory.mktemp(workload)
        manifest = corpus.generate(workload, 1, directory)
        argv = ["detect", str(directory / manifest["input"]), "--format", manifest["format"],
                "--year", str(manifest["year"])]
        if manifest["extra_facts"]:
            argv += ["--extra-facts", str(directory / manifest["extra_facts"])]
        argvs[workload] = argv
    return argvs


#: SHA-256 of every report of the seeded benchmark corpora; no derived atom
#: repeats inside one of their alerts, so these are the bytes of the
#: renderers that unfolded every derivation as a tree.
CORPUS_DIGESTS = {
    ("hot", "text", False): "f2398bb0d2ec254942285a223ca5651d4fb43f865435036acf91924907e126a4",
    ("hot", "text", True): "c2e78f4c474affc4261221646999193b8c6e15206033b05600ff4e5c75444a4e",
    ("hot", "json", False): "d013f6fbf96c96232ddae1898eeaebae875b764092510cd0dedef7ec5cc15222",
    ("hot", "json", True): "b0527b2a5d84024af9749dd5550684c560c0e63f8712637b206868efe3f733b2",
    ("spread", "text", False): "c3dcb7e189ae9f9a25ed63600d849a2aea4a5c7655b7219f3bfd6c5f9ee33647",
    ("spread", "text", True): "382e56ff6dba6aa4d1b6dd5da59f8c492625569ce9e600a3822cf0c160eae8c5",
    ("spread", "json", False): "cde97c02d9578ca6dd5a3980542f6e7ccf73bd4039f657d165b4036b24d3ac6b",
    ("spread", "json", True): "5351f52b0df6ecc6bc1d47eada2636f869f7cd8a8c2adc91be295abc3761b8af",
}


@pytest.mark.parametrize("workload, output, grouped", sorted(CORPUS_DIGESTS))
def test_corpus_report_digest(corpora, workload, output, grouped):
    argv = corpora[workload] + ["--output", output] + (["--group"] if grouped else [])
    digest = hashlib.sha256(_run(argv).encode("utf-8")).hexdigest()
    assert digest == CORPUS_DIGESTS[workload, output, grouped]


#: Runs each report in one fresh interpreter and prints its SHA-256.
_DIGEST_SCRIPT = """\
import hashlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from stratalog.cli import main
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        assert main(argv, env={}) == 0
    print(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
"""


def test_reports_are_byte_identical_in_fresh_processes(corpora):
    """Symbols hash by address, so set layouts differ from process to
    process: no report byte may depend on them."""
    sample = ["detect", str(_ROOT / "demos" / "data" / "sample.log"), "--format", "syslog"]
    argvs = [sample, corpora["hot"], corpora["spread"] + ["--output", "json"]]
    outputs = set()
    for seed in range(5):
        env = {**os.environ, "PYTHONPATH": str(_ROOT / "src"), "PYTHONHASHSEED": str(seed)}
        done = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    (digests,) = outputs
    assert digests.split()[1:] == [CORPUS_DIGESTS["hot", "text", False],
                                   CORPUS_DIGESTS["spread", "json", False]]
