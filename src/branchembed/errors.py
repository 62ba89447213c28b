"""Exception types shared across the package.

Every error raised by this package derives from :class:`BranchEmbedError`,
so callers can catch one base class at an application boundary.  Structural
errors additionally derive from :class:`ValueError` (or :class:`OSError`
for file problems) to stay friendly to generic handling.
"""


class BranchEmbedError(Exception):
    """Base class for all errors raised by this package."""


class DendrogramError(BranchEmbedError, ValueError):
    """An invalid merge table.

    ``record`` is the 0-based index of the offending merge record when the
    problem is attributable to a single record, else ``None``.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class DuplicateChild(DendrogramError):
    """A node is referenced as a child more than once."""


class ForwardReference(DendrogramError):
    """A record references a node id that does not exist yet."""


class SizeMismatch(DendrogramError):
    """A declared size disagrees with the sizes it should be derived from."""


class NonMonotonic(DendrogramError):
    """A merge height is lower than the height of one of its children."""


class NegativeHeight(DendrogramError):
    """A merge height is negative."""


class ZeroVarianceRow(BranchEmbedError, ValueError):
    """A data row is constant, so row correlation is undefined.

    ``row`` is the 0-based index of the first such row.
    """

    def __init__(self, row):
        super().__init__(f"row {row} has zero variance")
        self.row = row


class DissimilarityOverflow(BranchEmbedError, ValueError):
    """A Euclidean distance between finite rows overflows float64: the
    sum of squared differences exceeds the float64 range.

    ``rows`` is the first such pair of 0-based row indices, in condensed
    order.
    """

    def __init__(self, i, j):
        super().__init__(
            f"distance between rows {i} and {j} overflows float64")
        self.rows = (i, j)


class LinkageOverflow(BranchEmbedError, ValueError):
    """A merged dissimilarity inside :func:`~branchembed.linkage`
    overflows float64.  ``method`` is the linkage method and ``step`` the
    0-based merge step whose closest pair is at an overflowed value."""

    def __init__(self, method, step):
        super().__init__(
            f"{method} linkage overflows float64 at merge step {step}")
        self.method = method
        self.step = step


class EmbeddingOverflow(BranchEmbedError, ValueError):
    """A coordinate of an embedding overflows float64, as merge heights
    near its maximum can make sums of travel distances do."""

    def __init__(self):
        super().__init__("embedding coordinates overflow float64")


class SizeLimit(BranchEmbedError, MemoryError):
    """An array the computation needs is larger than this machine's
    physical memory, so it is refused before anything is allocated.

    ``nbytes`` is the size of what was refused (the arrays held
    together) and ``limit`` the physical memory, both in bytes.
    """

    def __init__(self, what, nbytes, limit):
        super().__init__(
            f"{what} needs {nbytes} bytes, more than the {limit} bytes "
            f"of physical memory")
        self.nbytes = nbytes
        self.limit = limit


class ZeroVariance(BranchEmbedError, ValueError):
    """A value vector is constant, so Pearson correlation is undefined."""


class ConstantColumn(BranchEmbedError, ValueError):
    """A data column is constant, so min-max rescaling is undefined.

    ``column`` is the 0-based index of the first such column.
    """

    def __init__(self, column):
        super().__init__(f"column {column} is constant")
        self.column = column


class ParseError(BranchEmbedError, ValueError):
    """A text record could not be parsed.

    ``line`` is the 1-based line number within the input.
    """

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RaggedRow(ParseError):
    """A CSV row has a different width than the first row."""


class IoError(BranchEmbedError, OSError):
    """A file could not be read.  ``path`` is the offending path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = str(path)
