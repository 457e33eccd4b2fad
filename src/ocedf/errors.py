"""Exception hierarchy shared by all ocedf modules."""


class OcedfError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(OcedfError):
    """A log or instance violates its declared schema.

    Covers duplicate type/attribute/instance names, undeclared types,
    attribute kind mismatches, dangling relation endpoints and duplicate
    relation triples.
    """


class _LocatedError(OcedfError):
    """An error at ``path`` inside a document, which prefixes the message."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class SpecError(_LocatedError):
    """A project spec document is malformed or fails cross-validation.

    ``path`` points at the offending location inside the document,
    e.g. ``extraction_matrix.rows['view file'].User``.
    """


class OcelDocumentError(_LocatedError):
    """An OCEL JSON document cannot be parsed into a valid log.

    ``path`` is the JSON path of the offending entry, e.g. ``events[3]``.
    """


class DataError(OcedfError):
    """Source data cannot be ingested: ragged rows, bad timestamps,
    conflicting duplicate ids, or dangling references under fail-fast."""
