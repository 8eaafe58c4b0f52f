"""Exception hierarchy shared by the whole package."""


class SkewbraceError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SkewbraceError):
    """A structure failed one of its construction-time checks."""


# -- group construction -------------------------------------------------

class NoIdentityAtZero(ValidationError):
    pass


class NotLatinSquare(ValidationError):
    pass


class NotAssociative(ValidationError):
    pass


class NotNormal(ValidationError):
    pass


class NotAHomomorphism(ValidationError):
    pass


class NotAutomorphism(ValidationError):
    pass


# -- permutation machinery ----------------------------------------------

class NotRegular(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


class OrderTooLargeForOracle(SkewbraceError):
    pass


# -- skew braces ---------------------------------------------------------

class BraceLawViolated(ValidationError):
    pass


class IdentityMismatch(ValidationError):
    pass


class NotAnIdeal(ValidationError):
    pass


class NotALeftIdeal(ValidationError):
    pass


class NotBiSkew(ValidationError):
    pass


class NotBraceAutomorphismAction(ValidationError):
    pass


# -- constructions -------------------------------------------------------

class NotIntoNormModCenter(ValidationError):
    pass


class NotClassTwo(ValidationError):
    pass


class NotAbelian(ValidationError):
    pass


class BadParameters(ValidationError):
    pass


# -- analysis ------------------------------------------------------------

class CatalogIncompleteForOrder(SkewbraceError):
    pass


class InternalInconsistency(SkewbraceError):
    """Two independent computations of the same fact disagreed."""


def require(ok: bool, what: str) -> None:
    """Self-check that, unlike assert, still runs under python -O."""
    if not ok:
        raise InternalInconsistency(what)


# -- catalog / io ---------------------------------------------------------

class UnsupportedOrder(SkewbraceError):
    pass


class UnknownName(SkewbraceError):
    pass


class ParseError(SkewbraceError):
    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
