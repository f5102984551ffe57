"""Exception types shared across the package."""

import functools


class DaggerAlgError(Exception):
    pass


class NonElement(DaggerAlgError):
    """Value does not belong to the ring's carrier."""


class DimensionMismatch(DaggerAlgError):
    pass


class FlavorMismatch(DaggerAlgError):
    """Max-flavor norm requested over an Archimedean ring, or mixed flavors."""


class NotCokernelForm(DaggerAlgError):
    pass


class UnsupportedRing(DaggerAlgError):
    pass


class ZeroSampleElement(DaggerAlgError):
    pass


class TailDiverges(DaggerAlgError):
    """Tail majorant radius does not strictly dominate the evaluation radius."""


class NotStrictlySmaller(DaggerAlgError):
    """Polyradius comparison requires strict componentwise inequality."""


class UnitIdealWitnessMissing(DaggerAlgError):
    pass


class NonPositiveLowerBound(DaggerAlgError):
    pass


class TruncationTooSmall(DaggerAlgError):
    """A truncated homology verdict flipped between nearby truncation levels."""


class NotACover(DaggerAlgError):
    pass


class CoordinateOutOfDisk(DaggerAlgError):
    """A fiber coordinate lies outside the polydisk of the algebra."""


class ViolationWitness(DaggerAlgError):
    """An inequality that should always hold failed; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def reads_json(what: str):
    """Decorate a ``from_json(obj, ...)`` reader of a JSON object: input of
    the wrong shape (not an object, or a list where a pair or an object
    belongs) raises ``ValueError`` naming ``what``, not the ``TypeError``
    or ``AttributeError`` the reader would hit."""

    def decorate(read):
        @functools.wraps(read)
        def reader(obj, *args):
            if not isinstance(obj, dict):
                raise ValueError(f"{what} must be a JSON object")
            try:
                return read(obj, *args)
            except (TypeError, AttributeError) as exc:
                raise ValueError(f"malformed {what}: {exc}") from None

        return reader

    return decorate
