"""Exception hierarchy shared by all kernel modules."""


class AlgebraError(Exception):
    """Base class for mathematical errors raised by the kernel."""


class ParseError(AlgebraError):
    """Malformed polynomial text or an unknown variable name."""


class CoefficientError(AlgebraError):
    """A coefficient is not invertible in the coefficient field."""


class InhomogeneousError(AlgebraError):
    """Terms of differing weighted degree where homogeneity is required."""


class NotStabilized(AlgebraError):
    """Betti numbers have not become constant within the computed range."""


class InfiniteLength(AlgebraError):
    """A length that was required to be finite is infinite."""


class NonIsolatedSingularity(AlgebraError):
    """The ring's Tjurina number is infinite: its singularity is not isolated."""


class AsymmetricGram(AlgebraError):
    """A Gram matrix of theta pairings is not symmetric."""


class NotFiniteLength(AlgebraError):
    """Module expected to have finite length does not."""


class NotFinitePd(AlgebraError):
    """Module expected to have finite projective dimension does not."""


class DimensionMismatch(AlgebraError):
    """Support dimensions do not match the caller contract."""


class SessionError(Exception):
    """Schema or reference violation in a session file."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))
