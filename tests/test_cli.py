"""End-to-end CLI behavior: subcommands, exit codes, reproducibility."""

import codecs
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slopespectra
from slopespectra import report

from slopespectra.cli import EXIT_ERROR, EXIT_OK, EXIT_REFUTED, main


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

    def test_jobs_capped_by_file_count(self, instance_file, capsys, monkeypatch):
        from slopespectra import cli

        started = []

        class InProcessPool:
            """Records the requested worker count; runs the work here."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        code, out, _ = run(capsys, "verify", instance_file, instance_file, "--jobs", "64")
        assert code == EXIT_OK and out.count("command: verify") == 2
        assert started == [2]

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


class TestEnvEps:
    def test_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SLOPESPECTRA_EPS", "1e-6")
        path = tmp_path / "sq.txt"
        path.write_text("0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n")
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["eps"] == 1e-6


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

    @pytest.mark.parametrize("source, command", sorted(PINS))
    def test_digest(self, tmp_path, capsys, monkeypatch, source, command):
        monkeypatch.chdir(tmp_path)  # verify reports the file name as given
        main(["generate", *self.SOURCES[source]])
        Path("pts.txt").write_text(capsys.readouterr().out)
        _, out, _ = run(capsys, command, "pts.txt", "--json")
        assert json.loads(out)["report_digest"] == self.PINS[source, command]
