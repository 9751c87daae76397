"""No input ends in a traceback: every subcommand, on any point file and any
option values, exits 0, 1, 2 or 3, and an error is one line.

The property runs `cli.main` in process on drawn point files (integer, p/q
and decimal tokens up to 400 digits, exponents to +-400, a BOM, comments,
blank lines, CRLF line ends, 0-12 points) and drawn option values.  The
explicit tests below are inputs that once ended in a traceback, or in a
decimal --affine entry taken as its nearest float.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopespectra import EXACT, direction_from_vector
from slopespectra.cli import EXIT_ERROR, EXIT_OK, EXIT_REFUTED, main

BIG = 10 ** 400
SIGN = st.sampled_from(["", "-", "+"])
DIGITS = st.one_of(st.integers(0, 99).map(str), st.integers(0, BIG).map(str),
                   st.text("0123456789", min_size=1, max_size=400))
INT_TOKEN = st.builds("".join, st.tuples(SIGN, DIGITS))
FRAC_TOKEN = st.builds(lambda num, den: f"{num}/{den}", INT_TOKEN, DIGITS)
DEC_TOKEN = st.builds(
    lambda sign, whole, frac, exp: f"{sign}{whole}.{frac}{exp}",
    SIGN, st.text("0123456789", max_size=400), DIGITS,
    st.one_of(st.just(""), st.integers(-400, 400).map(lambda e: f"e{e}")))
TOKEN = st.one_of(INT_TOKEN, FRAC_TOKEN, DEC_TOKEN)
# a file mostly keeps to the kinds one backend reads; the last mixes them all
FILE_TOKENS = st.sampled_from([INT_TOKEN, st.one_of(INT_TOKEN, FRAC_TOKEN),
                               st.one_of(INT_TOKEN, DEC_TOKEN), TOKEN])


@st.composite
def point_files(draw) -> bytes:
    token = draw(FILE_TOKENS)
    lines = [f"{x} {y}" for x, y in draw(st.lists(st.tuples(token, token), max_size=12))]
    for _ in range(draw(st.integers(0, 2))):  # comments and blank lines anywhere
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode()


EPS = st.one_of(st.floats(0, 1).map(repr), st.floats().map(repr), st.just("abc"))
INDEX = st.integers(-2, 14).map(str)
HIGHLIGHT = st.one_of(
    st.sampled_from(["conic", "parallel all", "bogus"]),
    INDEX.map(lambda i: f"forbidden {i}"),
    st.tuples(TOKEN, TOKEN).map(lambda d: f"parallel ({d[0]},{d[1]})"))
AFFINE = st.lists(TOKEN, min_size=5, max_size=6).map(",".join)
PERTURB = st.one_of(st.floats().map(repr), DEC_TOKEN)


@st.composite
def invocations(draw) -> list[str]:
    """The argv of one run; `{file}` stands for the drawn point file."""
    command = draw(st.sampled_from(["analyze", "verify", "case", "render", "generate"]))
    if command == "generate":
        source = draw(st.sampled_from(["--polygon", "--random"]))
        argv = [command, source, str(draw(st.integers(-1, 12 if source == "--random" else 40)))]
        optional = {"--delete": st.lists(INDEX, min_size=1, max_size=3).map(",".join),
                    "--affine": AFFINE, "--perturb": PERTURB,
                    "--seed": st.integers(0, 2**64).map(str)}
    else:
        argv = [command, "{file}"]
        optional = {"--backend": st.sampled_from(["rational", "float"]), "--eps": EPS}
        if command == "render":
            optional["--highlight"] = HIGHLIGHT
        else:
            optional["--json"] = st.just(None)
    for option, values in optional.items():
        if draw(st.booleans()):
            value = draw(values)
            argv += [option] if value is None else [option, value]
    return argv


def call(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(err: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


@given(data=point_files(), argv=invocations())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_no_traceback(tmp_path_factory, data, argv):
    path = tmp_path_factory.getbasetemp() / "drawn.txt"
    path.write_bytes(data)
    argv = [str(path) if a == "{file}" else a for a in argv]
    code, out, err = call(argv)  # any other exception fails the test
    assert code in (EXIT_OK, EXIT_ERROR, 2, EXIT_REFUTED), (code, err)
    if code == 2:
        assert "usage:" in err
    elif code == EXIT_ERROR and argv[0] == "verify":
        # an unreadable file is a report with an "error" verdict
        assert err == "" and "error" in out
    elif code == EXIT_ERROR:
        assert out == ""
        assert_one_error_line(err)
    else:
        assert err == "" and out


EIGHT = ["0 0", "1 0", "2 1", "3 3", "1 5", "-2 4", "-1 2", f"{10 ** 400} {-10 ** 400}"]


def write(tmp_path, lines) -> str:
    path = tmp_path / "pts.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestExactBeyondFloatRange:
    """Exact commands never convert to float: a primitive direction beyond
    the float range gets its report."""

    def test_analyze(self, tmp_path):
        code, out, err = call(["analyze", write(tmp_path, EIGHT), "--json"])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["payload"]["n"] == 8

    def test_verify(self, tmp_path):
        code, out, err = call(["verify", write(tmp_path, EIGHT), "--json"])
        assert (code, err) == (EXIT_REFUTED, "")
        assert json.loads(out)["payload"]["verdict"]["kind"] == "refutation"

    def test_case(self, tmp_path):
        code, out, err = call(["case", write(tmp_path, EIGHT), "--json"])
        assert (code, err) == (EXIT_REFUTED, "")
        assert "refusal" in json.loads(out)["payload"]


class TestIntegersOfAnyLength:
    """Exact input and reports hold integers past Python's default limit on
    int/str conversion, 4300 digits."""

    SEVEN = ["0 0", "1 0", "2 1", "3 3", "1 5", "-2 4", "9" * 5000 + " 1"]

    @pytest.mark.parametrize("command, options, expected", [
        ("analyze", [], EXIT_OK), ("analyze", ["--json"], EXIT_OK),
        ("verify", [], EXIT_REFUTED), ("case", [], EXIT_REFUTED),
    ])
    def test_read(self, tmp_path, command, options, expected):
        code, out, err = call([command, write(tmp_path, self.SEVEN), *options])
        assert (code, err) == (expected, "") and out

    @pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
    def test_written(self, tmp_path, json_flag):
        p, q = 10 ** 2700 + 7, 10 ** 2700 + 3
        points = [(0, 0), (Fraction(p, q), 1), (1, Fraction(q, p)), (Fraction(2, q), 5)]
        lines = [f"{x} {y}" for x, y in points]
        code, out, err = call(["analyze", write(tmp_path, lines)] + ["--json"] * json_flag)
        assert (code, err) == (EXIT_OK, "")
        directions = [direction_from_vector(Fraction(b[0] - a[0]), Fraction(b[1] - a[1]), EXACT)
                      for k, a in enumerate(points) for b in points[k + 1:]]
        expected = {(d.dx, d.dy) for d in directions}
        assert max(abs(v) for d in expected for v in d) > 10 ** 4300
        if json_flag:
            classes = json.loads(out)["payload"]["spectrum"]["classes"]
            assert {(c["direction"]["dx"], c["direction"]["dy"]) for c in classes} == expected
        else:
            assert all(f'{{"dx": {dx}, "dy": {dy}}}' in out for dx, dy in expected)


class TestRenderBeyondFloatRange:
    """render draws in floats: a value beyond their range is one error line."""

    def check(self, tmp_path, lines, *options):
        code, out, err = call(["render", write(tmp_path, lines), *options])
        assert (code, out) == (EXIT_ERROR, "")
        assert_one_error_line(err)
        assert "BackendMismatch" in err and "beyond the float range" in err

    def test_coordinate(self, tmp_path):
        self.check(tmp_path, [f"{10 ** 400}/3 1", "0 0", "1 5"])

    def test_conic_coefficient(self, tmp_path):
        self.check(tmp_path, [f"1/{10 ** 400} 0", "0 1", "1 1", "3 7", "2 9"],
                   "--highlight", "conic")

    def test_forbidden_direction(self, tmp_path):
        big = 10 ** 200
        points = [(Fraction(i, big + i), Fraction(i * i, big + 3 * i)) for i in range(1, 7)]
        self.check(tmp_path, [f"{x} {y}" for x, y in points], "--highlight", "forbidden 0")


def test_affine_decimal_entry_keeps_its_value():
    """0.1 maps x to x/10, not to x times the float nearest 0.1."""
    source = ["generate", "--random", "7", "--seed", "1"]
    _, before, _ = call(source)
    code, after, _ = call(source + ["--affine", "0.1,0,0,1,0,0"])
    assert code == EXIT_OK
    for old, new in zip(before.splitlines(), after.splitlines(), strict=True):
        (x, y), (x2, y2) = old.split(), new.split()
        assert (Fraction(x2), y2) == (Fraction(x) / 10, y)


def test_affine_singular_at_decimal_value():
    """A map singular at its decimal entries is refused, though its float
    entries are not singular (0.1 * 0.9 - 0.3 * 0.3 is 1.4e-17 in floats)."""
    code, out, err = call(["generate", "--random", "7", "--affine", "0.1,0.3,0.3,0.9,0,0"])
    assert (code, out) == (EXIT_ERROR, "")
    assert_one_error_line(err)
    assert "NonInvertible" in err
