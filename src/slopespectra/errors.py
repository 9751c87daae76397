"""Exception hierarchy shared by every module of the library."""


class SlopeSpectraError(Exception):
    """Base class for all errors raised by slopespectra."""


class BackendMismatch(SlopeSpectraError):
    """Scalar values incompatible with the requested backend (e.g. a decimal
    coordinate fed to the exact-rational backend)."""


class CoincidentPoints(SlopeSpectraError):
    """Two points expected to be distinct coincide."""


class DuplicatePoints(SlopeSpectraError):
    """A configuration was constructed with two equal points."""

    def __init__(self, i: int, j: int):
        self.indices = (i, j)
        super().__init__(f"points {i} and {j} coincide")

    def __reduce__(self):
        return type(self), self.indices


class TooFewPoints(SlopeSpectraError):
    """The operation needs more points than the configuration has."""


class TooFewRemaining(SlopeSpectraError):
    """Vertex deletion would leave fewer than three points."""


class PolygonTooSmall(SlopeSpectraError):
    """Regular polygons need at least three vertices."""


class AllCollinear(SlopeSpectraError):
    """Every point of the configuration lies on one line."""


class NotConvexPosition(SlopeSpectraError):
    """Some point is not a vertex of the convex hull."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"point {index} lies strictly inside the convex hull")

    def __reduce__(self):
        return type(self), (self.index,)


class IndexOutOfRange(SlopeSpectraError, IndexError):
    """A point or vertex index lies outside the configuration."""


class IndexOrder(SlopeSpectraError):
    """Indices violate the required strict order i < j < k."""


class LemmaViolation(SlopeSpectraError):
    """The chord dichotomy has no single branch: the class of A_i A_k holds
    two segments at A_i or at A_j, or the witness lies outside (i, k)."""


class CollinearTriple(SlopeSpectraError):
    """Three of the given points are collinear where general position is
    required."""

    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"collinear triple at indices {witness}")

    def __reduce__(self):
        return type(self), (self.witness,)


class RankDeficient(SlopeSpectraError):
    """The conic incidence system does not determine a unique conic: the
    five integer incidence rows, whose kernel fits the conics of both
    backends, have rank below 5 (all six signed 5x5 minors are zero)."""


class DegenerateConic(SlopeSpectraError):
    """The conic factors into lines; the group law is undefined on it."""


class SingularPoint(SlopeSpectraError):
    """The conic gradient vanishes at the point (degenerate conic)."""


class NoSecondIntersection(SlopeSpectraError):
    """The line meets the conic only at the base point (asymptotic
    direction)."""


class OperandOffConic(SlopeSpectraError):
    """A group operand does not lie on the group's conic."""


class DegenerateInput(SlopeSpectraError):
    """Input points are degenerate for this operation (duplicates or a
    collinear triple)."""


class CollinearSource(SlopeSpectraError):
    """The three source points of an affine-map solve are collinear."""


class NonInvertible(SlopeSpectraError):
    """The affine map's linear part has determinant zero."""


class GenerationExhausted(SlopeSpectraError):
    """Rejection sampling hit its retry cap without producing a valid
    configuration."""


class InconsistentGap(SlopeSpectraError):
    """The reconstructed vertex fails its defining parallelisms; the
    configuration is not an instance of the theorem."""


class ParseError(SlopeSpectraError):
    """A point file line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")

    def __reduce__(self):
        return type(self), (self.line_no, self.message)


class InvalidSpec(SlopeSpectraError):
    """The generator pipeline specification is malformed, or a random
    generator was given a bound below 1."""


class RenderTooLarge(SlopeSpectraError):
    """The configuration exceeds the documented rendering point cap."""
