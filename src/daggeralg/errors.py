"""Exception types shared across the package, and ``members``, the one
reader of the shape of a JSON object read from input."""


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


NULL = type(None)

_JSON_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", NULL: "null"}


def members(obj, what: str, schema: dict) -> list:
    """The members of the JSON object ``obj`` in the order of ``schema``,
    which maps each key to its exact JSON type or a tuple of them (a
    bool is not an int, and a string is not a list).  A key whose types
    include null may be absent, and reads as None; any key the schema
    does not name is an error.  Each error is a ``ValueError`` naming
    ``what``."""
    if type(obj) is not dict:
        raise ValueError(f"{what} must be a JSON object")
    for key in obj:
        if key not in schema:
            raise ValueError(f"malformed {what}: unknown key {key!r}")
    for key, types in schema.items():
        types = types if type(types) is tuple else (types,)
        if key not in obj and NULL not in types:
            raise ValueError(f"malformed {what}: missing key {key!r}")
        if type(obj.get(key)) not in types:
            raise ValueError(f"malformed {what}: {key!r} must be "
                             + " or ".join(map(_JSON_NAMES.get, types)))
    return [obj.get(key) for key in schema]
