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


class UnsupportedRing(DaggerAlgError):
    pass


class TailDiverges(DaggerAlgError):
    """Tail majorant radius does not strictly dominate the evaluation radius."""


class NotStrictlySmaller(DaggerAlgError):
    """Polyradius comparison requires strict componentwise inequality."""


class UnitIdealWitnessMissing(DaggerAlgError):
    pass


class NotACover(DaggerAlgError):
    pass



def reads_json(what: str):
    """Decorate a ``from_json(obj, ...)`` reader of a JSON object: input of
    the wrong shape (not an object, a list where a pair or an object
    belongs, or an object without a key the reader needs) raises
    ``ValueError`` naming ``what``, not the ``TypeError``,
    ``AttributeError`` or ``KeyError`` the reader would hit."""

    def decorate(read):
        @functools.wraps(read)
        def reader(obj, *args):
            if not isinstance(obj, dict):
                raise ValueError(f"{what} must be a JSON object")
            try:
                return read(obj, *args)
            except (TypeError, AttributeError) as exc:
                raise ValueError(f"malformed {what}: {exc}") from None
            except KeyError as exc:
                raise ValueError(f"malformed {what}: missing key "
                                 f"{exc.args[0]!r}") from None

        return reader

    return decorate
