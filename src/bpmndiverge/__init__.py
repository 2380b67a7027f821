"""Detect, diagnose, and repair divergent interpretations of a process
narrative.

The pipeline parses executable process models, simulates them over a shared
case population, quantifies cross-model disagreement as normalized outcome
entropy, pins the disagreement on specific gateways via model-based
diagnosis, maps those gateways back to narrative segments, and splices in
provider-supplied disambiguated wording.
"""

from .bpmn import (
    GatewayView,
    Issue,
    Node,
    NodeKind,
    ProcessModel,
    SequenceFlow,
    parse_bpmn,
    serialize_bpmn,
    validate_structure,
)
from .conditions import (
    BoolOp,
    Compare,
    Literal,
    Not,
    VarRef,
    ast_equal,
    evaluate,
    normalize,
    parse_condition,
    to_text,
)
from .config import RunConfig, load_config, provider_auth_token
from .diagnosis import (
    Diagnosis,
    DirectionResult,
    NoDivergenceError,
    choose_direction,
    collect_conflicts,
    compare_observations,
    diagnosis_report,
    minimal_hitting_sets,
    refine_diagnoses,
)
from .distribution import (
    ConsistencyCategory,
    EmpiricalDistribution,
    build_distribution,
    consistency_category,
    normalized_entropy,
    select_representatives,
)
from .repair import (
    AmbiguityInstance,
    CannedRewriteProvider,
    HttpRewriteProvider,
    NarrativeDocument,
    RepairRecord,
    build_ambiguity_report,
    localize_ambiguity,
    propose_repairs,
    reconstruct_narrative,
)
from .simulation import (
    CaseRecord,
    ConditionTables,
    KpiConfig,
    KpiVector,
    Trace,
    execute_case,
    load_cases_csv,
    simulate_population,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityInstance",
    "BoolOp",
    "CannedRewriteProvider",
    "CaseRecord",
    "Compare",
    "ConditionTables",
    "ConsistencyCategory",
    "Diagnosis",
    "DirectionResult",
    "EmpiricalDistribution",
    "GatewayView",
    "HttpRewriteProvider",
    "Issue",
    "KpiConfig",
    "KpiVector",
    "Literal",
    "NarrativeDocument",
    "NoDivergenceError",
    "Node",
    "NodeKind",
    "Not",
    "ProcessModel",
    "RepairRecord",
    "RunConfig",
    "SequenceFlow",
    "Trace",
    "VarRef",
    "ast_equal",
    "build_ambiguity_report",
    "build_distribution",
    "choose_direction",
    "collect_conflicts",
    "compare_observations",
    "consistency_category",
    "diagnosis_report",
    "evaluate",
    "execute_case",
    "load_cases_csv",
    "load_config",
    "localize_ambiguity",
    "minimal_hitting_sets",
    "normalize",
    "normalized_entropy",
    "parse_bpmn",
    "parse_condition",
    "propose_repairs",
    "provider_auth_token",
    "reconstruct_narrative",
    "refine_diagnoses",
    "select_representatives",
    "serialize_bpmn",
    "simulate_population",
    "to_text",
    "validate_structure",
]
