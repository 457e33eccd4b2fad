import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ocedf import OcedLog, analysis, read_ocel_json, write_ocel_json
from ocedf.cli import run, stats
from conftest import FIXTURES

CASE_SPEC = str(FIXTURES / "case_study" / "spec.json")
CASE_SOURCES = str(FIXTURES / "case_study" / "sources")
CONF_SPEC = str(FIXTURES / "conformant" / "spec.json")
CONF_SOURCES = str(FIXTURES / "conformant" / "sources")
GOLDEN_CLI = Path(__file__).resolve().parent / "golden_cli.json"


def stats_block(text, event_type):
    out, capture = [], False
    for line in text.splitlines():
        if capture:
            if line.startswith("    "):
                out.append(line)
                continue
            break
        if line.startswith(f"  {event_type}: "):
            capture = True
    return "\n".join(out)


@pytest.fixture(autouse=True)
def _restore_ocedf_level():
    """Each ``run`` sets the ``ocedf`` logger's level; put it back after the test."""
    logger = logging.getLogger("ocedf")
    level = logger.level
    yield
    logger.setLevel(level)


@pytest.fixture(scope="module")
def extracted(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    case_out = base / "case.ocel.json"
    conf_out = base / "conf.ocel.json"
    assert run(["extract", "--spec", CASE_SPEC, "--source-dir", CASE_SOURCES,
                "--out", str(case_out)]) == 0
    assert run(["extract", "--spec", CONF_SPEC, "--source-dir", CONF_SOURCES,
                "--out", str(conf_out)]) == 0
    return case_out, conf_out


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag(self, capsys):
        assert run(["stats", "--log", "x.json", "--bogus"]) == 1

    def test_missing_required_flag(self):
        assert run(["verify", "--spec", CASE_SPEC]) == 1

    def test_missing_log_file(self, tmp_path):
        assert run(["stats", "--log", str(tmp_path / "nope.json")]) == 3

    def test_malformed_log_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        assert run(["stats", "--log", str(p)]) == 3

    @pytest.mark.parametrize("edit, path", [
        (lambda doc: doc["events"][0].update(relationships=5), "events[0].relationships"),
        (lambda doc: doc["objects"][0].update(type=["User"]), "objects[0]"),
        (lambda doc: doc["events"][0]["relationships"][0].update(objectId=[]),
         "events[0].relationships[0]"),
        (lambda doc: doc["events"][0]["relationships"][0].update(qualifier=1),
         "events[0].relationships[0]"),
    ], ids=["relationships-not-a-list", "unhashable-type", "unhashable-object-id", "integer-qualifier"])
    def test_malformed_log_document(self, extracted, tmp_path, capsys, edit, path):
        doc = json.loads(extracted[1].read_text(encoding="utf-8"))
        edit(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["verify", "--spec", CONF_SPEC, "--log", str(p)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_invalid_spec(self, tmp_path):
        doc = json.loads((FIXTURES / "case_study" / "spec.json").read_text())
        doc["schema"]["is_a"].append(["User", "Student"])
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["extract", "--spec", str(p), "--source-dir", CASE_SOURCES,
                    "--out", str(tmp_path / "o.json")]) == 1

    def test_malformed_spec_json(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("{oops", encoding="utf-8")
        assert run(["validate-spec", str(p)]) == 1

    @pytest.mark.parametrize("command", ["validate-spec", "extract", "verify"])
    def test_spec_not_utf8(self, extracted, tmp_path, capsys, command):
        spec = tmp_path / "spec.json"
        spec.write_bytes((FIXTURES / "conformant" / "spec.json").read_bytes().replace(b"{", b"{\xe9", 1))
        args = {"validate-spec": [str(spec)],
                "extract": ["--spec", str(spec), "--source-dir", CONF_SOURCES,
                            "--out", str(tmp_path / "o.json")],
                "verify": ["--spec", str(spec), "--log", str(extracted[1])]}[command]
        assert run([command, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: not UTF-8 text: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, code", [("verify", 3), ("validate-spec", 1)])
    @pytest.mark.parametrize("text", ['{"objectTypes": ' + "1" * 5000 + "}", "[" * 100_000],
                             ids=["beyond-the-digit-limit", "nested-too-deeply"])
    def test_json_that_json_loads_rejects_without_a_decode_error(self, tmp_path, capsys, command,
                                                                 code, text):
        # a ValueError for an integer literal of more than 4,300 digits, a RecursionError for nesting
        doc = tmp_path / "doc.json"
        doc.write_text(text, encoding="utf-8")
        args = {"verify": ["--spec", CONF_SPEC, "--log", str(doc)],
                "validate-spec": [str(doc)]}[command]
        assert run([command, *args]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed JSON: " in err and err.count("\n") == 1

    def test_source_not_utf8(self, tmp_path, capsys):
        sources = tmp_path / "sources"
        shutil.copytree(CONF_SOURCES, sources)
        users = sources / "users.csv"
        users.write_bytes(users.read_bytes().replace(b"\n", b"\n\xe9", 1))
        out = tmp_path / "o.json"
        assert run(["extract", "--spec", CONF_SPEC, "--source-dir", str(sources), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {users}: not UTF-8 text: ") and err.count("\n") == 1
        assert not out.exists()

    def test_malformed_source_csv_is_a_data_error(self, tmp_path, capsys):
        sources = tmp_path / "sources"
        shutil.copytree(CONF_SOURCES, sources)
        courses = sources / "courses.csv"
        courses.write_text("course_id,name\ncrs-bpm," + "x" * 131_073 + "\n", encoding="utf-8")
        out = tmp_path / "o.json"
        assert run(["extract", "--spec", CONF_SPEC, "--source-dir", str(sources), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {courses}: malformed CSV at line 2: field larger than field limit (131072)\n"
        assert not out.exists()

    def test_negative_edge_threshold(self, tmp_path):
        assert run(["dfg", "--log", "x.json", "--object-types", "User",
                    "--min-edge-freq", "-1", "--out", str(tmp_path / "o.dot")]) == 1

    def test_no_object_type_is_a_usage_error_before_the_read(self, tmp_path, capsys):
        assert run(["dfg", "--log", str(tmp_path / "missing.json"), "--object-types", " , ",
                    "--out", str(tmp_path / "o.dot")]) == 1
        assert capsys.readouterr().err == "error: --object-types needs at least one type name\n"

    def test_an_output_in_a_missing_directory_names_the_output(self, extracted, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        assert run(["drill-down", "--log", str(extracted[1]), "--type", "User", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert not out.parent.exists()


class TestValidateSpec:
    def test_case_study_spec_clean(self, capsys):
        assert run(["validate-spec", CASE_SPEC]) == 0
        out = capsys.readouterr().out
        assert "spec OK" in out

    def test_diagnostics_printed_one_per_line(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "case_study" / "spec.json").read_text())
        doc["q2ot"]["Q1"] = doc["q2ot"]["Q1"] + ["Quiz"]
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["validate-spec", str(p)]) == 1
        out = capsys.readouterr().out
        assert any(line.startswith("ERROR q2ot") and "Quiz" in line
                   for line in out.splitlines())


class TestVerify:
    def test_conformant_exit_zero(self, extracted, capsys):
        _, conf = extracted
        assert run(["verify", "--spec", CONF_SPEC, "--log", str(conf)]) == 0
        out = capsys.readouterr().out
        assert "0 violations, 0 warnings" in out

    def test_case_study_warning_named(self, extracted, capsys):
        case, _ = extracted
        assert run(["verify", "--spec", CASE_SPEC, "--log", str(case)]) == 0
        out = capsys.readouterr().out
        assert "set assignment grade / Group" in out
        assert "0 violations, 1 warnings" in out

    def test_violations_exit_two(self, extracted, tmp_path, capsys):
        _, conf = extracted
        doc = json.loads(conf.read_text())
        # orphan one grading event from its course to breach Course = 1
        victim = next(e for e in doc["events"] if e["type"] == "set assignment grade")
        victim["relationships"] = [r for r in victim["relationships"]
                                   if not r["objectId"].startswith("crs-")]
        p = tmp_path / "broken.ocel.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["verify", "--spec", CONF_SPEC, "--log", str(p)]) == 2
        out = capsys.readouterr().out
        assert victim["id"] in out

    def test_json_format(self, extracted, capsys):
        case, _ = extracted
        assert run(["verify", "--spec", CASE_SPEC, "--log", str(case), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"violations": 0, "warnings": 1}

    def test_info_logs_one_line_per_stage(self, extracted, capsys, caplog):
        case, _ = extracted
        args = ["verify", "--spec", CASE_SPEC, "--log", str(case)]
        assert run(args) == 0
        plain = capsys.readouterr().out
        caplog.set_level(logging.INFO, logger="ocedf.cli")
        assert run(["--log-level", "info", *args]) == 0
        assert capsys.readouterr().out == plain
        events = len(read_ocel_json(case).events)
        lines = [r.getMessage() for r in caplog.records if r.name == "ocedf.cli"]
        assert [line.split(":")[0] for line in lines] == ["read", "derive_matrix", "check"]
        for line in lines:
            assert re.fullmatch(rf"\w+: \d+\.\d{{3}} s, {events} events, \d+ events/s", line)


class TestStats:
    def test_empty_log(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        write_ocel_json(OcedLog([], []), p)
        assert run(["stats", "--log", str(p)]) == 0
        out = capsys.readouterr().out
        assert "objects: 0 total" in out and "events: 0 total" in out

    def test_case_study_counts(self, extracted, capsys):
        case, _ = extracted
        assert run(["stats", "--log", str(case)]) == 0
        out = capsys.readouterr().out
        assert "(Student: 23)" in stats_block(out, "submit assignment")
        assert "(Student: 134" in stats_block(out, "set assignment grade")

    def test_counts_match_brute_force(self, extracted, capsys):
        case, _ = extracted
        log = read_ocel_json(case)
        text = stats(log)
        type_counts = {}
        for obj in log.objects.values():
            type_counts[obj.type] = type_counts.get(obj.type, 0) + 1
        for otype, n in type_counts.items():
            assert f"  {otype}: {n}" in text

    def test_stats_lives_in_analysis(self):
        import ocedf
        assert stats is ocedf.analysis.stats is ocedf.stats


class TestFileOutputs:
    def test_extract_writes_log_and_report(self, extracted):
        case, _ = extracted
        report = json.loads((case.parent / f"{case.name}.report.json").read_text())
        assert report["counts"]["event"] > 8000
        for rule in report["rules"]:
            assert rule["rows_in"] == rule["rows_loaded"] + rule["rows_skipped"]

    def test_extract_info_logs_one_line_per_rule(self, extracted, tmp_path, capsys, caplog):
        case, _ = extracted
        out = tmp_path / "case.ocel.json"
        caplog.set_level(logging.INFO, logger="ocedf.extraction")
        assert run(["--log-level", "info", "extract", "--spec", CASE_SPEC,
                    "--source-dir", CASE_SOURCES, "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(f"-> {out}\n")
        assert out.read_bytes() == case.read_bytes()
        report = json.loads((tmp_path / "case.ocel.json.report.json").read_text())
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "ocedf.extraction" and r.getMessage().startswith("rule ")]
        mappings = json.loads(Path(CASE_SPEC).read_text(encoding="utf-8"))["mappings"]
        assert len(lines) == len(report["rules"]) == len(mappings)
        for line, rule in zip(lines, report["rules"]):
            assert re.fullmatch(
                rf"rule {rule['rule']} \({rule['kind']}, table {rule['source_table']}\): "
                rf"{rule['rows_in']} rows in, {rule['rows_loaded']} loaded, "
                rf"{rule['rows_skipped']} skipped, \d+\.\d{{3}} s, \d+ rows/s", line)

    @pytest.mark.parametrize("args, stages", [
        (["extract", "--spec", CONF_SPEC, "--source-dir", CONF_SOURCES, "--out", "out"],
         ["load", "extract", "write", "report"]),
        (["flatten", "--object-type", "Group", "--out", "out"], ["read", "flatten", "write"]),
        (["drill-down", "--type", "User", "--out", "out"], ["read", "drill_down", "write"]),
        (["unfold", "--event-type", "view page", "--by", "Page", "--name-attr", "code", "--out", "out"],
         ["read", "unfold_events", "write"]),
        (["dfg", "--object-types", "User,Group", "--out", "out"], ["read", "discover_dfg", "write"]),
        (["stats"], ["read", "stats"]),
    ])
    def test_info_logs_one_line_per_stage(self, extracted, tmp_path, capsys, caplog, args, stages):
        _, conf = extracted
        out = tmp_path / "out"
        args = [str(out) if a == "out" else a for a in args]
        if args[0] != "extract":
            args[1:1] = ["--log", str(conf)]
        assert run(args) == 0
        plain, written = capsys.readouterr().out, out.exists() and out.read_bytes()
        caplog.set_level(logging.INFO, logger="ocedf.cli")
        assert run(["--log-level", "info", *args]) == 0
        assert capsys.readouterr().out == plain
        assert (out.exists() and out.read_bytes()) == written
        events = len(read_ocel_json(conf).events)
        lines = [r.getMessage() for r in caplog.records if r.name == "ocedf.cli"]
        assert [line.split(":")[0] for line in lines] == stages
        for line in lines:
            if line.startswith("load:"):
                count, unit = r"\d+", "rows"
            elif line.startswith("write:") and args[0] == "flatten":
                count, unit = written.count(b"\n") - 1, "rows"   # the CSV's data rows
            else:
                count, unit = events, "events"
            assert re.fullmatch(rf"\w+: \d+\.\d{{3}} s, {count} {unit}, \d+ {unit}/s", line)

    def test_outputs_leave_no_temporary_files(self, extracted, tmp_path):
        case, conf = extracted
        assert sorted(p.name for p in case.parent.iterdir()) == [
            "case.ocel.json", "case.ocel.json.report.json", "conf.ocel.json", "conf.ocel.json.report.json"]
        for args in (["flatten", "--log", str(conf), "--object-type", "Group", "--out", "f.csv"],
                     ["drill-down", "--log", str(conf), "--type", "User", "--out", "d.json"],
                     ["dfg", "--log", str(conf), "--object-types", "User", "--out", "g.dot"]):
            args[-1] = str(tmp_path / args[-1])
            assert run(args) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json", "f.csv", "g.dot"]

    def test_flatten_csv(self, extracted, tmp_path):
        case, _ = extracted
        out = tmp_path / "flat.csv"
        assert run(["flatten", "--log", str(case), "--object-type", "Group",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "case,activity,timestamp,event_id"
        assert len(lines) == 1 + 31  # 23 submits + 8 resubmits

    def test_flatten_csv_builds_no_rows(self, extracted, tmp_path, monkeypatch):
        """The CSV comes from the flat log's cases alone, byte for byte the
        recorded one."""
        def no_rows(flat):
            raise AssertionError("FlatLog.rows built")
        monkeypatch.setattr(analysis.FlatLog, "rows", property(no_rows))
        case, _ = extracted
        out = tmp_path / "flat.csv"
        assert run(["flatten", "--log", str(case), "--object-type", "User",
                    "--out", str(out)]) == 0
        recorded = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            recorded["case_study"]["flatten"]["files"]["flat.csv"]

    def test_drill_down_roundtrip(self, extracted, tmp_path):
        case, _ = extracted
        out = tmp_path / "drilled.ocel.json"
        assert run(["drill-down", "--log", str(case), "--type", "User",
                    "--out", str(out)]) == 0
        drilled = read_ocel_json(out)
        types = {o.type for o in drilled.objects.values()}
        assert "Teacher" in types and "Student" in types and "User" not in types

    def test_unfold_then_dfg(self, extracted, tmp_path):
        case, _ = extracted
        unfolded = tmp_path / "unfolded.ocel.json"
        dot = tmp_path / "user.dot"
        assert run(["unfold", "--log", str(case), "--event-type", "view page",
                    "--by", "Page", "--name-attr", "code", "--out", str(unfolded)]) == 0
        assert run(["dfg", "--log", str(unfolded), "--object-types", "User,Course",
                    "--min-edge-freq", "5", "--out", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("// ")
        assert '"view page A1P1"' in text

    def test_quiet_does_not_change_file_output(self, extracted, tmp_path):
        case, _ = extracted
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        assert run(["dfg", "--log", str(case), "--object-types", "Group", "--out", str(a)]) == 0
        assert run(["--quiet", "dfg", "--log", str(case), "--object-types", "Group",
                    "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "ocedf.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "validate-spec" in proc.stdout


def test_env_var_log_level(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OCEDF_LOG", "debug")
    p = tmp_path / "empty.json"
    write_ocel_json(OcedLog([], []), p)
    assert run(["stats", "--log", str(p)]) == 0


@pytest.mark.parametrize("env, flags, level", [
    (None, ["--log-level", "info"], logging.INFO),
    ("debug", ["--log-level", "error"], logging.DEBUG),   # OCEDF_LOG overrides --log-level
    ("DEBUG", [], logging.DEBUG),
    ("debug", ["--quiet", "--log-level", "info"], logging.ERROR),   # --quiet overrides both
    ("loud", ["--log-level", "info"], logging.WARNING),   # an unknown value falls back to warn
])
def test_log_level_precedence(tmp_path, monkeypatch, env, flags, level):
    if env is None:
        monkeypatch.delenv("OCEDF_LOG", raising=False)
    else:
        monkeypatch.setenv("OCEDF_LOG", env)
    p = tmp_path / "empty.json"
    write_ocel_json(OcedLog([], []), p)
    assert run([*flags, "stats", "--log", str(p)]) == 0
    assert logging.getLogger("ocedf").level == level


def test_each_run_in_a_process_takes_its_own_log_level(extracted, monkeypatch, caplog):
    """A run's --log-level or --quiet holds after an earlier run set another,
    and the handlers a caller installed stay."""
    monkeypatch.delenv("OCEDF_LOG", raising=False)
    case, _ = extracted
    handlers = [*logging.getLogger().handlers]
    for flags, logs_info in [([], False), (["--log-level", "info"], True), (["--quiet"], False),
                             (["--log-level", "debug"], True), (["--log-level", "warn"], False)]:
        caplog.clear()
        assert run([*flags, "stats", "--log", str(case)]) == 0
        assert [r.getMessage().split(":")[0] for r in caplog.records
                if r.name == "ocedf.cli"] == (["read", "stats"] if logs_info else [])
    assert logging.getLogger().handlers == handlers


def test_info_lines_reach_stderr_after_an_earlier_run(extracted):
    """In a fresh process, where the first run installs the stderr handler,
    a later run with --log-level info still prints its INFO lines."""
    case, _ = extracted
    script = (f"from ocedf.cli import run; log = {str(case)!r}; "
              "run(['stats', '--log', log]); run(['--log-level', 'info', 'stats', '--log', log])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={k: v for k, v in os.environ.items() if k != "OCEDF_LOG"})
    assert proc.returncode == 0, proc.stderr
    assert [line.split(":")[0] for line in proc.stderr.splitlines()] == ["INFO ocedf.cli"] * 2
