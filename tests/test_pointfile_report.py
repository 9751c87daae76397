"""Point-file grammar, backend inference, report reproducibility."""

import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopespectra import EXACT, parse_point_text, serialize_points, points_equal
from slopespectra.errors import BackendMismatch, ParseError
from slopespectra.generators import GeneratorSpec, random_convex_position, regular_polygon
from slopespectra import report as rep
from slopespectra.slopes import (Without, classify_criticality, forbidden_slope_table,
                                 slope_spectrum)


class TestParsing:
    def test_rational_line(self):
        cfg = parse_point_text("1/3 2/3\n0 1\n5 -2\n")
        assert cfg.backend.exact
        assert cfg.points[0].x == Fraction(1, 3)

    def test_decimals_force_float(self):
        cfg = parse_point_text("0.5 1\n2 3\n-1.25e1 0\n")
        assert not cfg.backend.exact
        assert cfg.points[2].x == -12.5

    def test_bad_token_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_point_text("1 2\n0.5 x\n")
        assert exc.value.line_no == 2

    def test_comments_and_blanks(self):
        cfg = parse_point_text("# header\n\n1 2  # trailing\n3 4\n")
        assert len(cfg) == 2

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_point_text("1 2 3\n")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_point_text("1/0 2\n")

    def test_mixing_fraction_and_decimal(self):
        with pytest.raises(BackendMismatch):
            parse_point_text("1/2 3\n0.5 1\n")

    def test_rational_backend_refuses_decimals(self):
        with pytest.raises(BackendMismatch):
            parse_point_text("0.5 1\n2 3\n", EXACT)

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_point_text("# nothing\n")


class TestRoundTrip:
    def test_exact_round_trip(self):
        cfg = GeneratorSpec(random=8, seed=42).build()
        back = parse_point_text(serialize_points(cfg))
        assert back.points == cfg.points

    def test_float_round_trip(self):
        cfg = regular_polygon(9)
        back = parse_point_text(serialize_points(cfg))
        assert all(points_equal(p, q, cfg.backend)
                   for p, q in zip(back.points, cfg.points))
        # repr round-trips floats exactly
        assert back.points == cfg.points


class TestReport:
    def _make(self):
        payload = {"n": 3, "verdict": {"kind": "refutation", "stage": "Size",
                                       "reason": "too small", "witness": 3}}
        return rep.build_report("verify", "rational", 1e-9, "ab" * 32, payload, 1.234)

    def test_digest_excludes_timing(self):
        a = self._make()
        b = rep.build_report("verify", "rational", 1e-9, "ab" * 32,
                             {"n": 3, "verdict": {"kind": "refutation", "stage": "Size",
                                                  "reason": "too small", "witness": 3}},
                             99.9)
        assert a[rep.DIGEST_KEY] == b[rep.DIGEST_KEY]
        stripped_a = {k: v for k, v in a.items() if k != rep.TIMING_KEY}
        stripped_b = {k: v for k, v in b.items() if k != rep.TIMING_KEY}
        assert rep.to_json(stripped_a) == rep.to_json(stripped_b)

    def test_text_rendering_stable(self):
        a = self._make()
        text = rep.to_text(a)
        assert text.splitlines()[0] == "command: verify"
        assert "payload.verdict.stage: Size" in text

    def test_json_sorted_keys(self):
        doc = rep.to_json(self._make())
        assert doc.index('"backend"') < doc.index('"command"') < doc.index('"eps"')

    def test_text_tuple_is_the_equal_list(self):
        value = (1, (2, "x"), [0.5, None])
        as_list = [1, [2, "x"], [0.5, None]]
        assert rep.to_text({"payload": {"w": value}}) == rep.to_text({"payload": {"w": as_list}})
        assert rep.to_text({"payload": {"w": value}}) == 'payload.w: [1, [2, "x"], [0.5, null]]\n'


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**29, max_value=10**40).flatmap(lambda k: st.sampled_from([k, -k])),
    st.floats(),
    st.sampled_from([-0.0, 1e-9, 1e300, math.nan, math.inf, -math.inf]),
    st.text(),  # non-ASCII and control characters included
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=25)


@st.composite
def shared_leaf(draw):
    """One scalar-leaf container held several times, at one depth and at
    different depths, beside an arbitrary value."""
    leaf = draw(st.one_of(st.dictionaries(st.text(max_size=3), JSON_SCALARS, min_size=1,
                                          max_size=3),
                          st.lists(JSON_SCALARS, min_size=1, max_size=3),
                          st.lists(JSON_SCALARS, min_size=1, max_size=3).map(tuple)))
    return {"top": leaf, "same": [leaf, leaf, {"k": leaf}], "deeper": ([leaf],),
            "value": draw(JSON_VALUES)}


LEAF = {"dx": 1, "dy": -2}

# strings that hold what the indented walker splits its C texts at, or what
# a format string would read
COLUMN_TEXTS = st.sampled_from(["},\n  {", "],[", "]\n[", '"', "\\", "%", "%s"])
# the layout of like values: a scalar, a dict of layouts, or a list or tuple
# of one layout
SHAPES = st.recursive(
    st.just(None),
    lambda inner: st.one_of(
        st.dictionaries(st.one_of(st.text(max_size=3), COLUMN_TEXTS), inner,
                        min_size=1, max_size=3).map(lambda d: ("dict", d)),
        st.tuples(st.sampled_from(["list", "tuple"]), inner)),
    max_leaves=6)


def like(shape):
    """Values laid out as `shape`; lists and tuples of any length, empty ones included."""
    if shape is None:
        return st.one_of(JSON_SCALARS, COLUMN_TEXTS)
    kind, inner = shape
    if kind == "dict":
        return st.fixed_dictionaries({k: like(v) for k, v in inner.items()})
    return st.lists(like(inner), max_size=3).map(tuple if kind == "tuple" else list)


@st.composite
def columns(draw):
    """Two or more like values in one list, at times with one unlike value
    among them, at depth one and under lists at two more depths."""
    values = draw(st.lists(draw(SHAPES.map(like)), min_size=2, max_size=5))
    if draw(st.booleans()):
        odd = draw(st.one_of(st.sampled_from([{}, [], ()]), JSON_VALUES))
        values.insert(draw(st.integers(0, len(values))), odd)
    return {"top": values, "deeper": [[values, values[:1]]]}


def build(payload) -> dict:
    return rep.build_report("analyze", "rational", 1e-9, "ab" * 32, payload, 1.234)


def assert_digest(payload):
    """`build_report`'s digest, hashed as it is written, is sha256 of the
    canonical text of the report without its digest and timing."""
    report = build(payload)
    digest = report.pop(rep.DIGEST_KEY)
    del report[rep.TIMING_KEY]
    assert digest == hashlib.sha256(rep._dumps(report, None).encode()).hexdigest()


def assert_json_dumps(value):
    """Both JSON forms and the text form's lists are `json.dumps`'s text,
    and the digest of a report that holds the value is its canonical text's."""
    assert rep._dumps(value, 2) == json.dumps(value, sort_keys=True, indent=2)
    assert rep._dumps(value, None) == json.dumps(value, sort_keys=True, separators=(",", ":"))
    text_form = "".join(rep._encoder(item_sep=", ", key_sep=": ")(value, []))
    assert text_form == json.dumps(value, sort_keys=True)
    assert_digest(value)


class TestEncoder:
    """`report._dumps` is `json.dumps(sort_keys=True)` byte for byte."""

    @given(st.one_of(JSON_VALUES, shared_leaf()))
    @example([(), {}, [], (1, "\u00e9\x00\u2028\U0001f600"), -0.0, 1e-9, 1e300,
              math.nan, math.inf, -math.inf, 10**35, -(10**31)])
    # a list that starts with a scalar-leaf container and goes on with a
    # scalar, with a container of containers, or with an empty container,
    # each after a leaf already seen
    @example({"a": [LEAF], "b": [LEAF, 3, "x", None, LEAF]})
    @example({"a": [LEAF], "b": [LEAF, [[1], LEAF], {"k": [LEAF]}, LEAF]})
    @example({"a": [LEAF], "b": [LEAF, [], {}, (), LEAF]})
    # one leaf under lists at three depths
    @example([LEAF, [LEAF, [LEAF, LEAF]], LEAF])
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, value):
        assert_json_dumps(value)

    @given(columns())
    # like dicts whose strings hold the split texts, and keys that hold "%"
    @example([{"s": "},\n  {", "%k": [1]}, {"s": "],[", "%k": [2, 3]}, {"s": '"\\%', "%k": []}])
    @example([{"a": "},\n  {"}, {"a": "],["}, {"a": '"'}, {"a": "\\"}, {"%": "%s"}])
    # unequal key sets, with and without containers below
    @example([{"a": [1]}, {"b": [2]}, {"a": [1], "b": {}}])
    @example([{"a": 1}, {"b": 2}, {"a": 3, "b": 4}])
    # one empty dict, list or tuple among non-empty ones
    @example([{"a": 1}, {}, {"a": 2}])
    @example([{"a": [1]}, {}, {"a": [2]}])
    @example([[1], [], [2]])
    @example([(1,), (), (2, 3)])
    # dicts mixed with lists
    @example([{"a": 1}, [1, 2], {"a": 2}])
    @example([{"a": [1]}, [[1]], {"a": [2]}])
    # lists of lists with an empty inner list, and tuples
    @example([[[1, 2], []], [[3]], [[], []]])
    @example([((1, 2), (3,)), ((4, 5),)])
    @example(({"a": (1, 2)}, {"a": (3,)}))
    # keys that are equal but written differently
    @example([{1: [1]}, {True: [2]}, {1.0: [3]}])
    @settings(max_examples=300, deadline=None)
    def test_columns_match_json_dumps(self, value):
        assert_json_dumps(value)

    def test_python_runs_per_column(self, monkeypatch):
        """The indented walker writes a key once per column of like dicts,
        not once per dict."""
        calls = []
        key_text = rep._key_text
        monkeypatch.setattr(rep, "_key_text", lambda k: calls.append(k) or key_text(k))
        counts = []
        for n in (10, 1000):
            value = {"classes": [{"direction": {"dx": k, "dy": 1}, "pairs": [[0, k]]}
                                 for k in range(n)]}
            calls.clear()
            assert rep._dumps(value, 2) == json.dumps(value, sort_keys=True, indent=2)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_refuses_what_json_refuses(self):
        refused = [
            {"x": Fraction(1, 2)},
            [1, {"x": [Fraction(1, 2)]}],          # in a list json's C encoder writes whole
            [LEAF, LEAF, [2, Fraction(1, 2)]],     # in a list the indented walk goes through
            {"a": [LEAF], "b": [LEAF, Fraction(1, 2)]},
            # three levels deep in a column of like dicts
            [{"a": {"b": {"c": 1}}}, {"a": {"b": {"c": Fraction(1, 2)}}}],
        ]
        for value in refused:
            for indent in (2, None):
                with pytest.raises(TypeError):
                    json.dumps(value, sort_keys=True, indent=indent)
                with pytest.raises(TypeError, match="^Object of type Fraction is not JSON"):
                    rep._dumps(value, indent)
            with pytest.raises(TypeError, match="^Object of type Fraction is not JSON"):
                build(value)


def plain(value):
    """The value with each `Without` row replaced by the list of its items."""
    if isinstance(value, Without):
        return list(value)
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


@st.composite
def rows_in_dicts(draw):
    """`Without` rows over one base as dict values at two depths, beside
    arbitrary values."""
    base = draw(st.lists(st.one_of(JSON_VALUES, st.just(LEAF)), max_size=6))
    holes = st.sets(st.integers(0, len(base) - 1)) if base else st.just(set())
    row = holes.map(lambda hs: Without(base, tuple(sorted(hs))))
    return {"a": draw(row), "b": {"c": draw(row), "d": draw(JSON_VALUES)},
            "e": draw(JSON_VALUES), "f": draw(row)}


TRICKY = ["},{", "],[", "\\", "\u00e9\U0001f600", {"k": "},{\\"}, ["],["]]
NON_LEAVES = [[1, [2]], {"k": [LEAF]}, [], "s", LEAF]
CLASSES = [{"direction": LEAF, "pairs": [[0, 1]]}, {"direction": {"dx": 3, "dy": 1},
           "pairs": [[0, 2], [1, 3]]}, {"direction": {"dx": 0, "dy": 1}, "pairs": []}]


class TestWithoutRows:
    """A `Without` dict value is written as the list of its items."""

    @given(rows_in_dicts())
    @example({"none": Without([LEAF, 2, "x"], ()),
              "all": Without([LEAF, 2, "x"], (0, 1, 2)),
              "empty": Without([], ())})
    @example({"adjacent": Without(list(range(6)), (2, 3, 4)),
              "ends": Without(list(range(6)), (0, 5))})
    # one-item bases, and items whose texts hold the separators, a
    # backslash or non-ASCII text
    @example({"kept": Without(["x"], ()), "hole": Without(["x"], (0,))})
    @example({"a": Without(TRICKY, (1, 2)), "b": {"c": Without(TRICKY, (0, 5))},
              "d": Without(TRICKY, ()), "e": Without(TRICKY, (0, 1, 2, 3, 4, 5))})
    # a base of non-leaf items, shared by rows at two depths
    @example({"a": Without(NON_LEAVES, (1,)),
              "b": {"c": Without(NON_LEAVES, (0, 4)), "d": {"e": Without(NON_LEAVES, ())}}})
    # a base that is a column of like dicts
    @example({"a": Without(CLASSES, (1,)), "b": {"c": Without(CLASSES, ())}})
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps_of_lists(self, value):
        lists = plain(value)
        assert rep._dumps(value, 2) == json.dumps(lists, sort_keys=True, indent=2)
        assert rep._dumps(value, None) == json.dumps(lists, sort_keys=True,
                                                     separators=(",", ":"))
        assert rep.to_text({"payload": value}) == rep.to_text({"payload": lists})
        assert_digest(value)

    def test_refused_outside_a_dict(self):
        row = Without([LEAF, 2], (1,))
        for value in ([row], {"a": [1, row]}, {"a": [{"b": row}]}, row,
                      {"a": Without([row], ())}):
            for indent in (2, None):
                with pytest.raises(TypeError, match="^Object of type Without is not JSON"):
                    rep._dumps(value, indent)
            if value is not row:  # a report's payload is a dict value under no list
                with pytest.raises(TypeError, match="^Object of type Without is not JSON"):
                    build(value)

    def test_digest_builds_no_canonical_text(self):
        """The digest of an `analyze` report is hashed as it is written: the
        peak of `build_report` stays below the length of the text it hashes."""
        config = random_convex_position(30, 5)
        payload = rep.analyze_json(slope_spectrum(config), forbidden_slope_table(config),
                                   classify_criticality(config))
        assert_digest(payload)
        size = len(rep._dumps(build(payload), None))
        tracemalloc.start()
        try:
            build(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size
