"""End-to-end CLI behavior: subcommands, exit codes, reproducibility."""

import argparse
import codecs
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slopespectra
from slopespectra import report

from slopespectra.cli import EXIT_ERROR, EXIT_OK, EXIT_REFUTED, main
from slopespectra.scalars import DEFAULT_EPS_REL


CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(slopespectra.__file__).parents[1])}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    code = main(["generate", "--polygon", "8", "--delete", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    path.write_text(out)
    return str(path)


class TestGenerate:
    def test_polygon_delete(self, capsys):
        code, out, _ = run(capsys, "generate", "--polygon", "8", "--delete", "0")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 7

    def test_affine_pipeline(self, capsys):
        code, out, _ = run(capsys, "generate", "--polygon", "8", "--delete", "0",
                           "--affine", "3,0,0,0.5,1,2")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 7

    def test_random_reproducible(self, capsys):
        _, out1, _ = run(capsys, "generate", "--random", "8", "--seed", "42")
        _, out2, _ = run(capsys, "generate", "--random", "8", "--seed", "42")
        assert out1 == out2
        assert all("/" in tok or tok.lstrip("-").isdigit()
                   for line in out1.strip().splitlines() for tok in line.split())

    def test_invalid_spec(self, capsys):
        code, _, err = run(capsys, "generate", "--polygon", "8", "--random", "5")
        assert code == EXIT_ERROR
        assert "InvalidSpec" in err


class TestVerify:
    def test_certificate_exit_zero(self, instance_file, capsys):
        code, out, _ = run(capsys, "verify", instance_file, "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["payload"]["verdict"]["kind"] == "certificate"

    def test_refutation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "octagon.txt"
        main(["generate", "--polygon", "8"])
        path.write_text(capsys.readouterr().out)
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == EXIT_REFUTED
        doc = json.loads(out)
        assert doc["payload"]["verdict"]["stage"] == "SlopeCount"

    def test_six_points_size_refutation(self, tmp_path, capsys):
        path = tmp_path / "six.txt"
        path.write_text("".join(f"{t} {t * t}\n" for t in range(6)))
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == EXIT_REFUTED
        assert json.loads(out)["payload"]["verdict"]["stage"] == "Size"

    def test_report_reproducible(self, instance_file, capsys):
        _, out1, _ = run(capsys, "verify", instance_file, "--json")
        _, out2, _ = run(capsys, "verify", instance_file, "--json")
        d1, d2 = json.loads(out1), json.loads(out2)
        t1 = d1.pop("timing_ms")
        t2 = d2.pop("timing_ms")
        assert d1 == d2
        assert isinstance(t1, float) and isinstance(t2, float)

    def test_multi_file_jobs(self, instance_file, tmp_path, capsys):
        other = tmp_path / "other.txt"
        main(["generate", "--polygon", "9", "--delete", "2"])
        other.write_text(capsys.readouterr().out)
        code, out, _ = run(capsys, "verify", instance_file, str(other), "--jobs", "2")
        assert code == EXIT_OK
        assert out.count("command: verify") == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_file_keeps_other_reports(self, instance_file, tmp_path, capsys, jobs):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n1 0\n0 0\n2 3\n")
        code, out, _ = run(capsys, "verify", instance_file, str(bad), "--json",
                           "--jobs", jobs)
        assert code == EXIT_ERROR
        # indented JSON: each report ends with a "}" line of its own
        docs = [json.loads(doc + "}") for doc in out.split("\n}\n") if doc.strip()]
        verdicts = {d["payload"]["file"]: d["payload"]["verdict"] for d in docs}
        assert verdicts[instance_file]["kind"] == "certificate"
        assert verdicts[str(bad)] == {"kind": "error",
                                      "error": "DuplicatePoints: points 0 and 2 coincide"}

    def test_jobs_under_python_m(self, instance_file, tmp_path):
        """--jobs 2 with cli as __main__, as users and perfbench start it."""
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n1 0\n0 0\n2 3\n")
        proc = subprocess.run(
            [sys.executable, "-m", "slopespectra.cli", "verify", instance_file, str(bad),
             "--json", "--jobs", "2"],
            env=CHILD_ENV, capture_output=True, text=True)
        assert proc.returncode == EXIT_ERROR and "Traceback" not in proc.stderr
        docs = [json.loads(doc + "}") for doc in proc.stdout.split("\n}\n") if doc.strip()]
        verdicts = {d["payload"]["file"]: d["payload"]["verdict"] for d in docs}
        assert verdicts[instance_file]["kind"] == "certificate"
        assert verdicts[str(bad)]["kind"] == "error"

    def test_jobs_with_integers_of_any_length(self, instance_file, tmp_path):
        """With --jobs 2, a 5000-digit integer (past Python's default limit) reads."""
        big = tmp_path / "big.txt"
        big.write_text("0 0\n1 0\n2 1\n3 3\n1 5\n-2 4\n" + "9" * 5000 + " 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "slopespectra.cli", "verify", str(big), instance_file,
             "--json", "--jobs", "2"],
            env=CHILD_ENV, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (EXIT_REFUTED, "")
        docs = [json.loads(doc + "}") for doc in proc.stdout.split("\n}\n") if doc.strip()]
        assert [(d["payload"]["file"], d["payload"]["verdict"]["kind"]) for d in docs] == \
            [(str(big), "refutation"), (instance_file, "certificate")]

    @pytest.mark.parametrize("bad_text", ["1e999 9\n", f"{10 ** 400} 9\n0.5 1\n"],
                             ids=["inf", "int"])
    def test_coordinate_beyond_float_range(self, instance_file, tmp_path, capsys, bad_text):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n1 0\n" + bad_text)
        code, out, _ = run(capsys, "verify", instance_file, str(bad), "--json")
        assert code == EXIT_ERROR
        docs = [json.loads(doc + "}") for doc in out.split("\n}\n") if doc.strip()]
        assert [d["payload"]["file"] for d in docs] == [instance_file, str(bad)]
        assert docs[0]["payload"]["verdict"]["kind"] == "certificate"
        assert docs[1]["payload"]["verdict"]["kind"] == "error"
        assert "BackendMismatch" in docs[1]["payload"]["verdict"]["error"]

    def test_jobs_changes_no_output(self, instance_file, tmp_path, capsys):
        """verify runs in one process whatever --jobs says: the same reports
        in the same order, and the same exit code."""
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n1 0\n0 0\n2 3\n")
        results = []
        for extra in ([], ["--jobs", "2"]):
            code, out, err = run(capsys, "verify", instance_file, str(bad), "--json", *extra)
            docs = [json.loads(doc + "}") for doc in out.split("\n}\n") if doc.strip()]
            for doc in docs:
                del doc["timing_ms"]
            results.append((code, docs, err))
        assert results[0] == results[1]
        assert results[0][0] == EXIT_ERROR and len(results[0][1]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3", "x"])
    def test_jobs_below_one_is_usage_error(self, instance_file, capsys, jobs):
        code, out, err = run_to_exit(capsys, "verify", instance_file, "--jobs", jobs)
        assert code == 2
        assert out == "" and err.count("error:") == 1 and "usage:" in err

    def test_bom_file_same_verdict(self, instance_file, tmp_path, capsys):
        data = Path(instance_file).read_bytes()
        bom = tmp_path / "bom.txt"
        bom.write_bytes(codecs.BOM_UTF8 + data)
        reports = []
        for path in (instance_file, str(bom)):
            code, out, _ = run(capsys, "verify", path, "--json")
            assert code == EXIT_OK
            reports.append(json.loads(out))
        assert reports[0]["payload"]["verdict"] == reports[1]["payload"]["verdict"]
        assert reports[1]["input_sha256"] == hashlib.sha256(codecs.BOM_UTF8 + data).hexdigest()

    def test_refutation_outranked_only_by_error(self, instance_file, tmp_path, capsys):
        octagon = tmp_path / "octagon.txt"
        main(["generate", "--polygon", "8"])
        octagon.write_text(capsys.readouterr().out)
        code, _, _ = run(capsys, "verify", instance_file, str(octagon))
        assert code == EXIT_REFUTED
        code, out, _ = run(capsys, "verify", str(octagon), str(tmp_path / "missing.txt"))
        assert code == EXIT_ERROR
        assert "payload.verdict.error: FileNotFoundError" in out

    def test_text_file_name_with_line_break(self, instance_file, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("x\ny.txt").write_bytes(Path(instance_file).read_bytes())
        code, out, _ = run(capsys, "verify", "x\ny.txt")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert 'payload.file: "x\\ny.txt"' in lines
        assert all(": " in line for line in lines)  # one key: value line per scalar


class TestFloatNumbering:
    """Float verdicts do not depend on the order of the file's lines: a point
    near the origin sees the first two points 1e-10 rad apart, within eps."""

    THIN = ["1000000.0 0.0", "1000000.0 0.0001", "0.0 0.0"]

    def orders(self, tmp_path, rest):
        """The file with the thin triangle's lines as given, and origin first."""
        for name, thin in (("given", self.THIN), ("origin_first", self.THIN[2:] + self.THIN[:2])):
            path = tmp_path / f"{name}.txt"
            path.write_text("\n".join(thin + rest) + "\n")
            yield str(path)

    def test_analyze(self, tmp_path, capsys):
        got = []
        for path in self.orders(tmp_path, ["3.0 7.0", "-5.0 2.0"]):
            code, out, _ = run(capsys, "analyze", path, "--json")
            payload = json.loads(out)["payload"]
            got.append((code, payload["general_position"], payload["criticality"]))
        assert got[0] == got[1] and got[0][:2] == (EXIT_OK, False)

    def test_verify(self, tmp_path, capsys):
        circle = [f"{1e6 * math.cos(t)!r} {1e6 * math.sin(t)!r}" for t in (1.5, 2.5, 3.5, 4.5, 5.5)]
        stages = []
        for path in self.orders(tmp_path, circle):
            code, out, _ = run(capsys, "verify", path, "--json")
            stages.append((code, json.loads(out)["payload"]["verdict"]["stage"]))
        assert stages == [(EXIT_REFUTED, "GeneralPosition")] * 2


class TestAnalyze:
    def test_square_report(self, tmp_path, capsys):
        path = tmp_path / "square.txt"
        path.write_text("0 0\n1 0\n1 1\n0 1\n")
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["backend"] == "rational"
        assert doc["payload"]["spectrum"]["count"] == 4
        assert all(len(v) == 1 for v in doc["payload"]["forbidden"].values())

    def test_horizontal_class_angle_is_not_negative_zero(self, tmp_path, capsys):
        # the first pair of the horizontal class points left: (1, 0) -> (0, 0)
        path = tmp_path / "left.txt"
        path.write_text("1.0 0.0\n0.0 0.0\n0.5 2.0\n3.0 1.0\n")
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == EXIT_OK
        angles = [c["direction"]["angle"]
                  for c in json.loads(out)["payload"]["spectrum"]["classes"]]
        assert 0.0 in angles
        assert '"angle": -0.0' not in out

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.5 x\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_ERROR
        assert "ParseError" in err

    def test_undecodable_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0 0\n1 0 # caf\xe9\n1 1\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_ERROR
        assert "ParseError: line 2: not UTF-8 text" in err

    def test_bom_file_keeps_line_numbers(self, tmp_path, capsys):
        path = tmp_path / "bom.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"0 0\n\xff 1\n1 1\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_ERROR
        assert "ParseError: line 2: not UTF-8 text" in err

    def test_backend_flag_coerces(self, tmp_path, capsys):
        path = tmp_path / "ints.txt"
        path.write_text("0 0\n1 0\n1 1\n0 1\n")
        code, out, _ = run(capsys, "analyze", str(path), "--backend", "float", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["backend"] == "float"

    def test_rational_flag_refuses_decimals(self, tmp_path, capsys):
        path = tmp_path / "dec.txt"
        path.write_text("0.5 0\n1 0\n1 1\n")
        code, _, err = run(capsys, "analyze", str(path), "--backend", "rational")
        assert code == EXIT_ERROR
        assert "BackendMismatch" in err


@pytest.mark.parametrize("command", ["analyze", "render", "case"])
def test_missing_file_is_one_error_line(tmp_path, capsys, command):
    # main's OSError branch: no report, no traceback, one line naming the file
    code, out, err = run(capsys, command, str(tmp_path / "missing.txt"))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "missing.txt" in err


class TestAnalyzeReport:
    """The forbidden table lists n(n-1)(n-2)/2 directions in general
    position, all drawn from the spectrum's classes."""

    @pytest.fixture
    def gp30(self, tmp_path):
        path = tmp_path / "gp30.txt"
        path.write_text(slopespectra.serialize_points(
            slopespectra.random_general_position(30, 5)))
        return str(path)

    def test_json_is_canonical(self, gp30, capsys):
        code, out, _ = run(capsys, "analyze", gp30, "--json")
        assert code == EXIT_OK
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_one_direction_dict_per_class(self, gp30, capsys, monkeypatch):
        calls = [0]
        original = report.direction_json

        def counted(d):
            calls[0] += 1
            return original(d)

        monkeypatch.setattr(report, "direction_json", counted)
        code, out, _ = run(capsys, "analyze", gp30, "--json")
        assert code == EXIT_OK
        assert 0 < calls[0] <= json.loads(out)["payload"]["spectrum"]["count"]


class TestCase:
    def test_seven_of_nine(self, tmp_path, capsys):
        path = tmp_path / "nine.txt"
        main(["generate", "--polygon", "9", "--delete", "0,1"])
        path.write_text(capsys.readouterr().out)
        code, out, _ = run(capsys, "case", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["payload"]["proof_case"]["case"] == "Case2_2"

    def test_decagon_case_1_1(self, tmp_path, capsys):
        path = tmp_path / "ten.txt"
        main(["generate", "--polygon", "10"])
        path.write_text(capsys.readouterr().out)
        code, out, _ = run(capsys, "case", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["payload"]["proof_case"]["case"] == "Case1_1"

    def test_triangle_refused(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 0\n1 0\n0 1\n")
        code, out, _ = run(capsys, "case", str(path), "--json")
        assert code == EXIT_REFUTED
        assert "TooFewPoints" in json.loads(out)["payload"]["refusal"]


class TestRender:
    def test_svg_to_file(self, instance_file, tmp_path, capsys):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "render", instance_file, "--out", str(out_path),
                         "--highlight", "conic")
        assert code == EXIT_OK
        svg = out_path.read_text()
        assert svg.startswith("<svg ") and 'id="conic"' in svg

    def test_empty_file_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run(capsys, "render", str(path))
        assert code == EXIT_ERROR
        assert "ParseError" in err

    def test_json_flag_refused(self, instance_file, capsys):
        """render writes an SVG, never a report: --json is not one of its options."""
        code, out, err = run_to_exit(capsys, "render", instance_file, "--json")
        assert code == 2
        assert out == "" and "unrecognized arguments: --json" in err

    def test_stdout_deterministic(self, instance_file, capsys):
        _, a, _ = run(capsys, "render", instance_file, "--highlight", "parallel all")
        _, b, _ = run(capsys, "render", instance_file, "--highlight", "parallel all")
        assert a == b


class TestImports:
    def test_no_numpy_needed(self):
        env = {**os.environ, "PYTHONPATH": str(Path(slopespectra.__file__).parents[1])}
        code = ("import sys; sys.modules['numpy'] = None; "
                "import slopespectra.cli, slopespectra.render")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_no_process_pool_at_start(self, instance_file, tmp_path, capsys):
        """No command imports the process pool, verify --jobs on two files
        included, and none imports dataclasses or inspect."""
        octagon = tmp_path / "octagon.txt"
        main(["generate", "--polygon", "8"])
        octagon.write_text(capsys.readouterr().out)
        code = ("import sys; sys.modules['multiprocessing'] = None; "
                "sys.modules['concurrent.futures'] = None; "
                "sys.modules['dataclasses'] = None; sys.modules['inspect'] = None; "
                "from slopespectra.cli import main; good, other = sys.argv[1:]; "
                "codes = [main(['verify', good, '--json']), main(['verify', good, other]), "
                "main(['verify', good, other, '--jobs', '2']), "
                "main(['analyze', good]), main(['case', good]), "
                "main(['render', good, '--highlight', 'conic']), "
                "main(['generate', '--polygon', '8']), main(['generate', '--random', '8'])]; "
                "print(codes, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code, instance_file, str(octagon)],
                              env=CHILD_ENV, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == str([EXIT_OK, EXIT_REFUTED, EXIT_REFUTED] + [EXIT_OK] * 5)


class TestEnvEps:
    def test_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SLOPESPECTRA_EPS", "1e-6")
        path = tmp_path / "sq.txt"
        path.write_text("0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n")
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["eps"] == 1e-6

    def test_env_read_on_every_call(self, instance_file, capsys, monkeypatch):
        """The parser outlives a main call; the environment does not."""
        monkeypatch.setenv("SLOPESPECTRA_EPS", "1e-6")
        code, out, _ = run(capsys, "verify", instance_file, "--json")
        assert code == EXIT_OK and json.loads(out)["eps"] == 1e-6
        monkeypatch.delenv("SLOPESPECTRA_EPS")
        code, out, _ = run(capsys, "verify", instance_file, "--json")
        assert code == EXIT_OK and json.loads(out)["eps"] == DEFAULT_EPS_REL
        monkeypatch.setenv("SLOPESPECTRA_EPS", "")
        code, out, _ = run(capsys, "verify", instance_file, "--json")
        assert code == EXIT_OK and json.loads(out)["eps"] == DEFAULT_EPS_REL
        monkeypatch.setenv("SLOPESPECTRA_EPS", "abc")
        code, out, err = run_to_exit(capsys, "verify", instance_file, "--json")
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and "SLOPESPECTRA_EPS" in err


def without_timing(json_out):
    doc = json.loads(json_out)
    del doc["timing_ms"]
    return doc


class TestParserReuse:
    """main builds its parser once per process; no parse leaves state for the next."""

    def test_second_call_builds_no_parser(self, instance_file, capsys, monkeypatch):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        for _ in range(2):
            added.clear()
            code, _, _ = run(capsys, "verify", instance_file, "--json")
            assert code == EXIT_OK
        assert added == []

    def test_delete_does_not_carry_over(self, capsys):
        code, out, _ = run(capsys, "generate", "--polygon", "8", "--delete", "1,2")
        assert code == EXIT_OK and len(out.splitlines()) == 6
        code, out, _ = run(capsys, "generate", "--polygon", "8")
        assert code == EXIT_OK and len(out.splitlines()) == 8

    def test_usage_error_and_help_leave_no_state(self, instance_file, capsys):
        code, first, _ = run(capsys, "verify", instance_file, "--json")
        assert code == EXIT_OK
        assert run_to_exit(capsys, "verify")[0] == 2
        assert run_to_exit(capsys, "-h")[0] == 0
        code, again, _ = run(capsys, "verify", instance_file, "--json")
        assert code == EXIT_OK
        assert without_timing(again) == without_timing(first)


def run_to_exit(capsys, *argv):
    """Like run, but a usage error's SystemExit becomes its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBadOptionValues:
    """Bad option values end in one error line, not a traceback: exit 2 for
    malformed text, 1 for an index outside the input."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--backend", "float", "--eps", "-1"],
        ["analyze", "--backend", "float", "--eps", "-1"],
        ["analyze", "--eps", "0"],
        ["verify", "--eps", "nan"],
        ["verify", "--eps", "inf"],
        ["verify", "--eps", "1"],
        ["analyze", "--backend", "float", "--eps", "2"],
    ], ids=["verify-negative", "analyze-negative", "zero", "nan", "inf", "one", "two"])
    def test_eps_flag(self, instance_file, capsys, argv):
        code, _, err = run_to_exit(capsys, argv[0], instance_file, *argv[1:])
        assert code == 2
        assert err.count("error:") == 1 and "positive finite" in err

    @pytest.mark.parametrize("value", ["-1", "0", "abc", "5"])
    def test_eps_env(self, instance_file, capsys, monkeypatch, value):
        monkeypatch.setenv("SLOPESPECTRA_EPS", value)
        code, _, err = run_to_exit(capsys, "verify", instance_file)
        assert code == 2
        assert err.count("error:") == 1 and "SLOPESPECTRA_EPS" in err

    @pytest.mark.parametrize("highlight, code", [
        ("forbidden 99", EXIT_ERROR),
        ("forbidden x", 2),
        ("bogus", 2),
        ("parallel (1,0,2)", 2),
    ])
    def test_render_highlight(self, instance_file, capsys, highlight, code):
        got, out, err = run_to_exit(capsys, "render", instance_file, "--highlight", highlight)
        assert got == code
        assert out == "" and err.count("error:") == 1

    @pytest.mark.parametrize("delete, code", [("99", EXIT_ERROR), ("1,x", 2)])
    def test_generate_delete(self, capsys, delete, code):
        got, out, err = run_to_exit(capsys, "generate", "--polygon", "8", "--delete", delete)
        assert got == code
        assert out == "" and err.count("error:") == 1

    @pytest.mark.parametrize("option, value", [
        ("--perturb", "-1"), ("--perturb", "nan"), ("--perturb", "inf"),
        ("--perturb", "1e400"), ("--bound", "0"), ("--bound", "-3"),
        ("--affine", "1,0,0,1,x,0"), ("--affine", "1,0,0,1,0"),
        ("--affine", "1e400,0,0,1,0,0"),
    ])
    def test_generate_value(self, capsys, option, value):
        got, out, err = run_to_exit(capsys, "generate", "--random", "8", option, value)
        assert got == 2
        assert out == "" and err.count("error:") == 1 and "usage:" in err

    def test_generate_affine_beyond_float_range(self, capsys):
        """An affine image that overflows is refused, not written as 'inf'."""
        got, out, err = run_to_exit(capsys, "generate", "--polygon", "8",
                                    "--affine", "1e308,0,0,1,1e308,0")
        assert got == EXIT_ERROR
        assert out == "" and err.count("error:") == 1
        assert "BackendMismatch" in err and "beyond the float range" in err

    def test_generate_affine_entry_beyond_float_range(self, capsys):
        """An integer map entry too large for a float is refused, not a traceback."""
        got, out, err = run_to_exit(capsys, "generate", "--polygon", "8",
                                    "--affine", f"{10 ** 400},0,0,1,0,0")
        assert got == EXIT_ERROR
        assert out == "" and err.count("error:") == 1
        assert "BackendMismatch" in err and "beyond the float range" in err

    def test_generate_singular_affine(self, capsys):
        got, out, err = run_to_exit(capsys, "generate", "--polygon", "8",
                                    "--affine", "1,2,2,4,0,0")
        assert got == EXIT_ERROR
        assert out == "" and err.count("error:") == 1 and "NonInvertible" in err


class TestReportDigests:
    """Report digests pinned before float general position and the float
    spectrum moved onto `Configuration.direction_classes`: the incidence
    table changes no report byte."""

    SOURCES = {
        "affine float": ["--polygon", "12", "--delete", "0", "--affine", "2,1,0.5,3,-1,4"],
        "perturbed float": ["--polygon", "12", "--delete", "5", "--perturb", "1e-3",
                            "--seed", "7"],
        "random exact": ["--random", "12", "--seed", "3"],
    }
    PINS = {
        ("affine float", "analyze"):
            "277d5f828f67d6ac1ef39c9e5d29e02e30ec6fd32a8e668d3672eabb6656e9a8",
        ("affine float", "verify"):
            "1aa9cc63673717c73e295a61b444ca6fe7d9139bb1c80324528ddb3b80a30eff",
        ("perturbed float", "analyze"):
            "6f14ba36ffba888850387ffd2b0721b5c2a24cb996a2faf6fac9d3e678e7238d",
        ("perturbed float", "verify"):
            "e37f303b2830e03a379083c22b09a4654d43c5b5e7da4d797422a0ab4ba9da00",
        ("random exact", "analyze"):
            "f721fce3e336e6bb3fa76255a47ec90081d9d2375a2471897f8800b77d23da00",
        ("random exact", "verify"):
            "8f2450e8443475d22ac633b1f4922ea144c21f58d3144340a2bef9cddadb47f0",
    }

    # sha256 of the text-form output without its timing_ms line, pinned
    # before the report encoders moved onto json's C encoder
    TEXT_PINS = {
        ("affine float", "analyze"):
            "5fcca17813116a100b9b6dc251b6280caecd0bbfe45dd3dcb993ded869931302",
        ("affine float", "verify"):
            "823cd05919b4baea94de82ee1d7e721cd37f1eb0e71e5b707975edaaf213dbe1",
        ("perturbed float", "analyze"):
            "ddf24bdf97e8dfbe15c8c43f461d4b445f0e3b15c4306d80c4de679c76f32659",
        ("perturbed float", "verify"):
            "08eb93009890d4a4e581de8fb7aa16c88d173af64b1c60b6762d8687bb3d6110",
        ("random exact", "analyze"):
            "f0bd58e912763c7ed33d9cdd6ce735e2d4f2fb3911a65829f353f65f73a1e3ab",
        ("random exact", "verify"):
            "70a6a6711f3ce985970ec9ccdfe60003d79164c26946d626ec4bd37b7b9ef9a2",
    }

    @pytest.fixture
    def output(self, tmp_path, capsys, monkeypatch):
        def output(source, command, *extra):
            monkeypatch.chdir(tmp_path)  # verify reports the file name as given
            main(["generate", *self.SOURCES[source]])
            Path("pts.txt").write_text(capsys.readouterr().out)
            return run(capsys, command, "pts.txt", *extra)[1]
        return output

    @pytest.mark.parametrize("source, command", sorted(PINS))
    def test_digest(self, output, source, command):
        out = output(source, command, "--json")
        assert json.loads(out)["report_digest"] == self.PINS[source, command]

    @pytest.mark.parametrize("source, command", sorted(PINS))
    def test_json_is_json_dumps(self, output, source, command):
        out = output(source, command, "--json")
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("source, command", sorted(TEXT_PINS))
    def test_text(self, output, source, command):
        lines = output(source, command).splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(report.TIMING_KEY + ": ")]
        assert len(kept) == len(lines) - 1
        digest = hashlib.sha256("".join(kept).encode()).hexdigest()
        assert digest == self.TEXT_PINS[source, command]
