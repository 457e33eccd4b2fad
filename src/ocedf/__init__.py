"""Object-centric event data toolkit.

Parses declarative extraction project specs, extracts OCEL 2.0 logs from
tabular sources in a strict objects / relations-and-events /
event-to-object order, verifies extracted logs against the declared
multiplicity expectations, and offers flattening, drill-down/roll-up,
event unfolding, and directly-follows graph discovery on top.
"""

from .analysis import (
    Dfg,
    FlatLog,
    FlatRow,
    TypeDfg,
    discover_dfg,
    drill_down,
    filter_log,
    flatten,
    roll_up,
    stats,
    to_dot,
    unfold_events,
)
from .errors import DataError, OcedfError, OcelDocumentError, SchemaError, SpecError
from .extraction import (
    ExtractionReport,
    SourceTable,
    extract,
    load_source,
    synthesize_event_id,
)
from .ocel import (
    AttributeDef,
    AttributeValue,
    E2ORelation,
    EventInstance,
    EventTypeDef,
    O2ORelation,
    ObjectInstance,
    ObjectTypeDef,
    OcedLog,
    ocel_from_dict,
    ocel_to_dict,
    read_ocel_json,
    write_ocel_json,
)
from .specmodel import (
    ConceptualSchema,
    Diagnostic,
    E2ORule,
    EventRule,
    ExtractionMatrix,
    MappingRule,
    MultiplicityRange,
    O2ORule,
    ObjectRule,
    ProjectSpec,
    Q2OTMatrix,
    Question,
    extraction_order,
    parse_multiplicity,
    parse_spec,
    parse_spec_document,
    validate_spec,
)
from .verification import (
    VerificationMatrix,
    VerificationReport,
    Violation,
    WarningEntry,
    check,
    derive_matrix,
    render_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeDef", "AttributeValue", "ConceptualSchema", "DataError", "Dfg",
    "Diagnostic", "E2ORelation", "E2ORule", "EventInstance", "EventRule",
    "EventTypeDef", "ExtractionMatrix", "ExtractionReport", "FlatLog", "FlatRow",
    "MappingRule", "MultiplicityRange", "O2ORelation", "O2ORule", "ObjectInstance",
    "ObjectRule", "ObjectTypeDef", "OcedLog", "OcedfError", "OcelDocumentError",
    "ProjectSpec", "Q2OTMatrix", "Question", "SchemaError", "SourceTable",
    "SpecError", "TypeDfg", "VerificationMatrix", "VerificationReport", "Violation",
    "WarningEntry", "check", "derive_matrix", "discover_dfg", "drill_down",
    "extract", "extraction_order", "filter_log", "flatten", "load_source",
    "ocel_from_dict", "ocel_to_dict", "parse_multiplicity", "parse_spec",
    "parse_spec_document", "read_ocel_json", "render_matrix", "roll_up", "stats",
    "synthesize_event_id", "to_dot", "unfold_events", "validate_spec",
    "write_ocel_json",
]
