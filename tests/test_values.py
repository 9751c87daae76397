"""The immutable value types keep the contract of the frozen dataclasses they
replaced: repr, equality and hash over the compared fields, construction,
immutability, pickle and copy, and the checks in `__post_init__`."""

import copy
import dataclasses
import functools
import math
import pickle
import random
from fractions import Fraction

import pytest

from slopespectra import (
    AffineMap,
    Applicable,
    Backend,
    Conic,
    ConicGroup,
    Configuration,
    Direction,
    EXACT,
    Forbidden,
    GeneratorSpec,
    NotApplicable,
    ParallelWitness,
    Point,
    Refutation,
    SlopeClass,
    Stage,
    classify_criticality,
    classify_proof_case,
    delete_vertices,
    float_backend,
    forbidden_slope_table,
    is_affinely_regular,
    random_affine_map,
    regular_polygon,
    slope_spectrum,
    verify_theorem,
)
from slopespectra._frozen import Frozen
from slopespectra.errors import BackendMismatch, DegenerateConic, DuplicatePoints, NonInvertible


def samples() -> list:
    """At least one instance of every value type, most from real computations."""
    polygon = regular_polygon(8)
    instance = delete_vertices(regular_polygon(12), [1])
    cert = verify_theorem(instance)
    spectrum = slope_spectrum(polygon)
    cls = spectrum.classes[0]
    return [
        EXACT, float_backend(), polygon, cls.direction,
        Point(Fraction(1, 2), Fraction(3)), cls, spectrum,
        Forbidden(), ParallelWitness(3), forbidden_slope_table(polygon)[0],
        classify_criticality(polygon), cert, cert.conic, cert.base_point,
        ConicGroup(cert.conic, cert.base_point), Applicable(True), NotApplicable("P1P6 || P2P5"),
        random_affine_map(7), is_affinely_regular(polygon), GeneratorSpec(polygon=8, delete=(0,)),
        verify_theorem(polygon), classify_proof_case(instance),
    ]


@functools.cache
def twin_class(cls):
    """A frozen dataclass with the fields of a value type."""
    fields = [(f, object, dataclasses.field(compare=f in cls._compared)) for f in cls._fields]
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


def twin(value):
    """The value as an instance of its dataclass twin."""
    return twin_class(type(value))(**{f: getattr(value, f) for f in type(value)._fields})


def test_samples_cover_every_value_type():
    assert {type(v) for v in samples()} == set(Frozen.__subclasses__())


class TestRepr:
    @pytest.mark.parametrize("value, text", [
        (Point(Fraction(1, 2), 0.5), "Point(x=Fraction(1, 2), y=0.5)"),
        (Direction(1, 2, True, 0.25), "Direction(dx=1, dy=2, exact=True, angle=0.25)"),
        (Backend("float", 1e-9), "Backend(kind='float', eps_rel=1e-09)"),
        (Refutation(Stage.SIZE, "need at least 7 points", (0, 1)),
         "Refutation(stage=<Stage.SIZE: 'Size'>, reason='need at least 7 points', witness=(0, 1))"),
    ])
    def test_pinned(self, value, text):
        assert repr(value) == text

    def test_same_as_dataclass(self):
        for value in samples():
            assert repr(value) == repr(twin(value))


class TestEquality:
    def test_same_as_dataclass(self):
        values = samples()
        for v in values:
            assert v == copy.copy(v) and hash(v) == hash(twin(v))
            for w in values:
                if type(w) is type(v):
                    assert (v == w) == (twin(v) == twin(w))

    def test_angle_not_compared(self):
        d, e = Direction(1.0, 0.0, False, 0.0), Direction(1.0, 0.0, False, 0.5)
        assert d == e and hash(d) == hash(e)
        assert d != Direction(1.0, 1e-3, False, 0.0)

    def test_other_class_not_equal(self):
        p = Point(1, 2)
        assert p.__eq__(ParallelWitness(1)) is NotImplemented
        assert p != (1, 2) and Forbidden() != Applicable(True)


class TestConstruction:
    @pytest.mark.parametrize("make", [
        lambda: Point(1), lambda: Point(1, 2, 3), lambda: Point(1, z=2),
        lambda: Direction(1, 2), lambda: ParallelWitness(1, p=1),
        lambda: Refutation(Stage.SIZE), lambda: Refutation(Stage.SIZE, "r", None, None),
        lambda: GeneratorSpec(sides=8), lambda: Forbidden(1),
    ])
    def test_missing_or_extra_argument(self, make):
        with pytest.raises(TypeError):
            make()

    def test_keywords_and_defaults(self):
        assert Point(y=2, x=1) == Point(1, 2)
        assert Refutation(reason="r", stage=Stage.SIZE) == Refutation(Stage.SIZE, "r", None)
        spec = GeneratorSpec(polygon=8)
        assert (spec.random, spec.delete, spec.affine, spec.perturb_delta, spec.seed,
                spec.bound) == (None, (), None, None, 0, 1000)
        assert Direction(1, 2, True).angle == 0.0

    def test_immutable(self):
        for value in samples():
            name = (type(value)._fields or ("anything",))[0]
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)

    @pytest.mark.parametrize("call, error, match", [
        (lambda: Backend("decimal"), ValueError, "unknown backend kind 'decimal'"),
        (lambda: EXACT.coerce("1"), BackendMismatch, "not a coordinate: '1'"),
        (lambda: float_backend().coerce(True), BackendMismatch, "not a coordinate: True"),
        (lambda: EXACT.coerce(None), BackendMismatch, "not a coordinate: None"),
    ], ids=["unknown-kind", "coerce-str", "coerce-bool", "coerce-none"])
    def test_backend_refusals(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_post_init_checks(self):
        with pytest.raises(ValueError):
            Backend("float", 2.0)
        with pytest.raises(ValueError):
            Backend(kind="float", eps_rel=0.0)
        with pytest.raises(DuplicatePoints):
            Configuration((Point(0, 0), Point(1, 0), Point(0, 0)), EXACT)
        with pytest.raises(NonInvertible):
            AffineMap(((1, 2), (2, 4)), (0, 0))
        pair_of_lines = Conic.from_coeffs((1, 0, -1, 0, 0, 0), EXACT)  # x^2 - y^2
        with pytest.raises(DegenerateConic):
            ConicGroup(pair_of_lines, Point(Fraction(0), Fraction(0)))


class TestFloatBackendRules:
    def test_infinity_equals_only_itself(self):
        b = float_backend()
        assert not b.eq(math.inf, 1.0) and not b.eq(-1e300, -math.inf)
        assert not b.eq(math.inf, -math.inf) and b.eq(math.inf, math.inf)

    @pytest.mark.parametrize("terms", [[math.inf], [-math.inf, 1.0], [math.inf, -math.inf],
                                       [1e308, 1e308]], ids=["inf", "-inf", "nan", "overflow"])
    def test_non_finite_sum_is_not_zero(self, terms):
        assert not float_backend().sum_is_zero(terms)

    def test_finite_equality_is_the_relative_bound(self):
        # on finite values eq is |a - b| <= eps max(1, |a|, |b|), also one
        # float step either side of the bound
        rng, eps = random.Random(5), 1e-9
        b = float_backend(eps)
        for _ in range(2000):
            a = rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12)
            c = a + rng.choice([0, 0.5, 0.99, 1, 1.01, 2]) * rng.choice([-eps, eps]) * max(1.0, abs(a))
            c = rng.choice([c, math.nextafter(c, math.inf), math.nextafter(c, -math.inf)])
            assert b.eq(a, c) == (abs(a - c) <= eps * max(1.0, abs(a), abs(c)))
            assert b.sum_is_zero([a, -c]) == (abs(a - c) <= eps * max(1.0, abs(a), abs(c)))


class TestState:
    def test_pickle_and_deepcopy_round_trip(self):
        for value in samples():
            for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert type(other) is type(value) and other == value
                assert repr(other) == repr(value)

    def test_direction_classes_computed_once(self):
        config = regular_polygon(8)
        assert "direction_classes" not in vars(config)
        classes = config.direction_classes
        assert vars(config)["direction_classes"] is classes
        assert config.direction_classes is classes

    @pytest.mark.parametrize("config", [regular_polygon(8), delete_vertices(
        Configuration.from_coords([(0, 0), (1, 0), (2, 1), (1, 3), (0, 2)], EXACT), [2])])
    def test_spectrum_is_the_class_table(self, config):
        # one table of SlopeClass values, shared rather than rebuilt
        from slopespectra import geometry, slopes

        assert SlopeClass is geometry.SlopeClass is slopes.SlopeClass
        assert slope_spectrum(config).classes is config.direction_classes
        assert all(type(cls) is SlopeClass for cls in config.direction_classes)
