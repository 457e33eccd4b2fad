"""Every CLI output on the bundled fixtures against a recorded table.

Each command in ``COMMANDS`` runs on ``case_study`` and ``conformant``; the
analysis commands read the log that ``extract-skip`` wrote. The SHA-256 of
every output file, of ``stats`` and ``verify`` stdout, and each exit code
must equal ``golden_cli.json``. The extraction report is hashed without its
``elapsed_seconds`` and ``timings``, and no temporary path enters a digest.

A change that alters an output on purpose rewrites the table with
``PYTHONPATH=src python tests/test_golden_cli.py`` and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from ocedf.cli import run
from conftest import FIXTURES

TABLE = Path(__file__).resolve().parent / "golden_cli.json"
EXTRACTED = "extract-skip/out.ocel.json"

# name -> (argv with {spec}, {sources}, {log}, {out} placeholders, stdout hashed)
COMMANDS = {
    "extract-skip": (["extract", "--spec", "{spec}", "--source-dir", "{sources}",
                      "--out", "{out}/out.ocel.json"], False),
    "extract-fail": (["extract", "--spec", "{spec}", "--source-dir", "{sources}",
                      "--on-dangling", "fail", "--out", "{out}/out.ocel.json"], False),
    "verify-text": (["verify", "--spec", "{spec}", "--log", "{log}"], True),
    "verify-json": (["verify", "--spec", "{spec}", "--log", "{log}", "--format", "json"], True),
    "stats": (["stats", "--log", "{log}"], True),
    "flatten": (["flatten", "--log", "{log}", "--object-type", "User",
                 "--out", "{out}/flat.csv"], False),
    "drill-down": (["drill-down", "--log", "{log}", "--type", "User",
                    "--out", "{out}/drilled.ocel.json"], False),
    "unfold": (["unfold", "--log", "{log}", "--event-type", "view page", "--by", "Page",
                "--name-attr", "code", "--out", "{out}/unfolded.ocel.json"], False),
    "dfg": (["dfg", "--log", "{log}", "--object-types", "User,Course", "--min-edge-freq", "5",
             "--out", "{out}/dfg.dot"], False),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".report.json"):
        report = json.loads(data)
        report.pop("elapsed_seconds")
        report.pop("timings")
        data = json.dumps(report, indent=2).encode()
    return _sha256(data)


def outputs(fixture: str, work: Path) -> dict:
    """Per command: its exit code, the digest of its stdout (or None), and
    the digest of each file it wrote, by file name."""
    fill = {"spec": str(FIXTURES / fixture / "spec.json"),
            "sources": str(FIXTURES / fixture / "sources"),
            "log": str(work / EXTRACTED)}
    table = {}
    for name, (argv, hash_stdout) in COMMANDS.items():
        out = work / name
        out.mkdir()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run([arg.format(out=out, **fill) for arg in argv])
        table[name] = {
            "exit": code,
            "stdout": _sha256(stdout.getvalue().encode()) if hash_stdout else None,
            "files": {p.name: _file_digest(p) for p in sorted(out.iterdir())},
        }
    return table


@pytest.fixture(scope="module")
def recorded():
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=["case_study", "conformant"])
def produced(request, tmp_path_factory):
    return request.param, outputs(request.param, tmp_path_factory.mktemp(request.param))


@pytest.mark.parametrize("command", list(COMMANDS))
def test_output_matches_recorded_digest(produced, recorded, command):
    fixture, table = produced
    assert table[command] == recorded[fixture][command], f"{fixture}: {command}"


def test_table_covers_every_command(recorded):
    assert {fixture: sorted(table) for fixture, table in recorded.items()} == \
        {fixture: sorted(COMMANDS) for fixture in ("case_study", "conformant")}


if __name__ == "__main__":   # rewrite the table from the code under src/
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        new = {}
        for fixture in ("case_study", "conformant"):
            (Path(tmp) / fixture).mkdir()
            new[fixture] = outputs(fixture, Path(tmp) / fixture)
    TABLE.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}", file=sys.stderr)
