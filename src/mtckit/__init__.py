"""mtckit: medical temporal constraints as typed values.

A toolkit for representing medical temporal constraints (how often, when,
and how far apart medications may be taken) under a small constraint
grammar, extracting them from free-text drug usage guidelines with
few-shot prompting against a completion service, scoring extractions with
a multilabel protocol, and checking parsed constraints against patient
event timelines.
"""

from . import adherence, dataset, evaluation, grammar, icl, normalize, rulebase, tables
from .adherence import Timeline, TimelineEvent, ToleranceConfig, Verdict, VerdictStatus, check
from .dataset import (
    DEFAULT_ABBREVIATION_RULES,
    AbbreviationRule,
    CorpusStats,
    Dug,
    dataset_stats,
    dump_dugs,
    extract_ehr_statements,
    load_dugs,
)
from .evaluation import (
    UNDEFINED_LABEL,
    EvalReport,
    LabelMetrics,
    MismatchedIdsError,
    Scores,
    build_label_space,
    evaluate,
    krippendorff_alpha,
    load_predictions,
    map_to_label,
)
from .grammar import (
    ClockTime,
    Consistency,
    DayPart,
    DefinitiveDependency,
    DependencyPrep,
    Frequency,
    ImpreciseDependency,
    Interval,
    IntervalPrep,
    Mtc,
    MtcListResult,
    NonvalidMtcError,
    OccurrencePrep,
    SameTime,
    TimeDependency,
    TimeOfDay,
    TimeUnit,
    is_valid,
    mtc_type,
    parse_mtc,
    parse_mtc_list,
    serialize,
    with_negated,
)
from .normalize import (
    NormalizationResult,
    normalize_activity,
    normalize_raw_output,
)
from .rulebase import TypePrediction, TypeRule, classify_types, evaluate_type_classifier
from .tables import FileFormatError

__version__ = "0.1.0"

__all__ = [
    "adherence",
    "dataset",
    "evaluation",
    "grammar",
    "icl",
    "normalize",
    "rulebase",
    "tables",
    "AbbreviationRule",
    "ClockTime",
    "Consistency",
    "CorpusStats",
    "DEFAULT_ABBREVIATION_RULES",
    "DayPart",
    "DefinitiveDependency",
    "DependencyPrep",
    "Dug",
    "EvalReport",
    "FileFormatError",
    "Frequency",
    "ImpreciseDependency",
    "Interval",
    "IntervalPrep",
    "LabelMetrics",
    "MismatchedIdsError",
    "Mtc",
    "MtcListResult",
    "NonvalidMtcError",
    "NormalizationResult",
    "OccurrencePrep",
    "SameTime",
    "Scores",
    "TimeDependency",
    "TimeOfDay",
    "TimeUnit",
    "Timeline",
    "TimelineEvent",
    "ToleranceConfig",
    "TypePrediction",
    "TypeRule",
    "UNDEFINED_LABEL",
    "Verdict",
    "VerdictStatus",
    "build_label_space",
    "check",
    "classify_types",
    "dataset_stats",
    "dump_dugs",
    "evaluate",
    "evaluate_type_classifier",
    "extract_ehr_statements",
    "is_valid",
    "krippendorff_alpha",
    "load_dugs",
    "load_predictions",
    "map_to_label",
    "mtc_type",
    "normalize_activity",
    "normalize_raw_output",
    "parse_mtc",
    "parse_mtc_list",
    "serialize",
    "with_negated",
]
