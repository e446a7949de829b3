"""Exception types shared across the package."""


def _shown(value):
    """repr(value); for a value too long to print, `<int of N bits>` if it is
    an integer, else `<T too long to print>` with T its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} too long to print>"


class SchubertError(Exception):
    """Base class for the package's errors: a subclass declares `fields`, in
    order, and a `message` over their reprs, or keeps Exception's arguments."""

    fields = ()
    message = None

    def __init__(self, *args):
        if self.message is not None:
            self.__dict__.update(zip(self.fields, args, strict=True))
            args = (self.message.format(**{f: _shown(v) for f, v in vars(self).items()}),)
        super().__init__(*args)


class NonSquareError(SchubertError):
    """Not n x n over the n labels: `nrows` rows, or, when `label` is given, its
    row, the first of the wrong length, has `ncols`; its own __init__ picks which."""

    def __init__(self, nlabels, nrows, label=None, ncols=None):
        where = f"row count {nrows}" if label is None else f"row {label!r} has length {ncols}"
        super().__init__(f"matrix is not square over {nlabels} labels: {where}")
        self.nrows, self.ncols = nrows, ncols


class DiagonalNotTwoError(SchubertError):
    fields = ("label", "value")
    message = "diagonal entry at {label} is {value}, expected 2"


class PositiveOffDiagonalError(SchubertError):
    fields = ("s", "t", "value")
    message = "off-diagonal entry ({s},{t}) is {value}, expected <= 0"


class ZeroAsymmetryError(SchubertError):
    fields = ("s", "t")
    message = "entry ({s},{t}) is zero but ({t},{s}) is not (or vice versa)"


class InvalidIndexSetError(SchubertError, ValueError):
    """The labels of an index set are empty, repeated or unhashable."""


class MalformedCartanError(SchubertError):
    """A Cartan matrix given as JSON lacks a key or has entries of the wrong type."""


class UnknownLabelError(SchubertError):
    fields = ("label",)
    message = "unknown generator label {label}"


class TooLargeError(SchubertError):
    fields = ("size", "cap")
    message = "index set of size {size} exceeds search cap {cap}"


class MixedContextsError(SchubertError):
    message = "elements belong to different Cartan matrices"


class InvalidWitnessError(SchubertError):
    """A claimed equivalence witness does not carry [e,w] onto [e,w']."""


class NotInSupportError(SchubertError):
    fields = ("label",)
    message = "generator {label} is not in the support of the element"


class NotInIntervalError(SchubertError):
    # Its own constructor: the text joins the word's letters, or reads e.
    def __init__(self, word):
        super().__init__(f"element {' '.join(word) or 'e'} is not in the interval")
        self.word = word


class EnumerationCapExceededError(SchubertError):
    fields = ("cap",)
    message = "more than {cap} elements enumerated (element cap {cap})"


class RewriteCapExceededError(SchubertError):
    fields = ("cap",)
    message = "normal form needs more than {cap} monomial symbols (rewrite cap {cap})"


class NotACoverError(SchubertError):
    message = "second element does not cover the first in Bruhat order"


class MalformedOracleError(SchubertError):
    """The given product table is not the cohomology of any Schubert variety."""
