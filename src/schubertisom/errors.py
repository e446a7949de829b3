"""Exception types shared across the package."""


class SchubertError(Exception):
    """Base class for all domain errors raised by this package."""


class NonSquareError(SchubertError):
    """The rows are not n x n over the n labels: there are `nrows` rows, or,
    when `label` is given, its row is the first of the wrong length, `ncols`."""

    def __init__(self, nlabels, nrows, label=None, ncols=None):
        where = f"row count {nrows}" if label is None else f"row {label!r} has length {ncols}"
        super().__init__(f"matrix is not square over {nlabels} labels: {where}")
        self.nrows = nrows
        self.ncols = ncols


class DiagonalNotTwoError(SchubertError):
    def __init__(self, label, value):
        super().__init__(f"diagonal entry at {label!r} is {value}, expected 2")
        self.label = label
        self.value = value


class PositiveOffDiagonalError(SchubertError):
    def __init__(self, s, t, value):
        super().__init__(f"off-diagonal entry ({s!r},{t!r}) is {value}, expected <= 0")
        self.s = s
        self.t = t
        self.value = value


class ZeroAsymmetryError(SchubertError):
    def __init__(self, s, t):
        super().__init__(
            f"entry ({s!r},{t!r}) is zero but ({t!r},{s!r}) is not (or vice versa)"
        )
        self.s = s
        self.t = t


class InvalidIndexSetError(SchubertError, ValueError):
    """The labels of an index set are empty, repeated or unhashable."""


class MalformedCartanError(SchubertError):
    """A Cartan matrix given as JSON lacks a key or has entries of the wrong type."""


class UnknownLabelError(SchubertError):
    def __init__(self, label):
        super().__init__(f"unknown generator label {label!r}")
        self.label = label


class TooLargeError(SchubertError):
    def __init__(self, size, cap):
        super().__init__(f"index set of size {size} exceeds search cap {cap}")
        self.size = size
        self.cap = cap


class MixedContextsError(SchubertError):
    def __init__(self):
        super().__init__("elements belong to different Cartan matrices")


class InvalidWitnessError(SchubertError):
    """A claimed equivalence witness does not carry [e,w] onto [e,w']."""


class NotInSupportError(SchubertError):
    def __init__(self, label):
        super().__init__(f"generator {label!r} is not in the support of the element")
        self.label = label


class NotInIntervalError(SchubertError):
    def __init__(self, word):
        super().__init__(f"element {' '.join(word) or 'e'} is not in the interval")
        self.word = word


class EnumerationCapExceededError(SchubertError):
    def __init__(self, cap):
        super().__init__(f"more than {cap} elements enumerated (element cap {cap})")
        self.cap = cap


class RewriteCapExceededError(SchubertError):
    def __init__(self, cap):
        super().__init__(
            f"normal form needs more than {cap} monomial symbols (rewrite cap {cap})"
        )
        self.cap = cap


class NotACoverError(SchubertError):
    def __init__(self):
        super().__init__("second element does not cover the first in Bruhat order")


class MalformedOracleError(SchubertError):
    """The given product table is not the cohomology of any Schubert variety."""
