"""Exact recursive filtering over rewriting multi-hypergraph states.

States are labeled multi-hypergraphs; dynamics are rewriting rules applied
uniformly over their matches; partial observations arrive as per-step
annotations.  Beliefs are kept as weighted lifted states (bounded-interval
edge multiplicities under exact-total constraints), which stay exponentially
smaller than the underlying ground support while producing exactly the same
posteriors as ground enumeration.
"""

from .canon import CanonicalForm, canonical_form, canonical_form_lifted, pinned_form
from .errors import (EffectError, EngineError, EnumerationLimitError,
                     IntegrityError, ParseError, StructuralError,
                     TraceInconsistencyError)
from .filtering import (ActionModel, Belief, FilterResult, JointPrediction,
                        Particle, StepStats, agent_location,
                        filter_trace, predict, update)
from .graphs import EdgeKey, Label, Vertex, edge_key, index_vertices
from .lifted import (MAX_GROUNDINGS, LiftedMultiHypergraph, MultiHypergraph,
                     TotalConstraint)
from .domain import (AnnotationTuple, Domain, builtin_domain, format_trace,
                     generate_trace, held_counts, parse_domain, parse_trace)
from .oracle import (ComparisonReport, GroundBelief, compare, expand,
                     ground_filter_trace, total_variation)
from .rewrite import (Effect, EffectEdge, LiftedApplyResult, Match, Pattern,
                      PatternEdge, PatternVertex, Rule, apply,
                      ground_options, lifted_apply, successors)

__version__ = "0.1.0"

__all__ = [
    "ActionModel", "AnnotationTuple", "Belief", "CanonicalForm",
    "ComparisonReport", "Domain", "EdgeKey",
    "Effect", "EffectEdge", "EffectError", "EngineError",
    "EnumerationLimitError", "FilterResult", "GroundBelief",
    "IntegrityError", "JointPrediction", "Label",
    "LiftedApplyResult", "LiftedMultiHypergraph", "MAX_GROUNDINGS", "Match",
    "MultiHypergraph", "ParseError", "Particle", "Pattern", "PatternEdge",
    "PatternVertex", "Rule", "StepStats", "StructuralError",
    "TotalConstraint", "TraceInconsistencyError", "Vertex", "agent_location",
    "apply", "builtin_domain",
    "canonical_form", "canonical_form_lifted", "compare",
    "edge_key", "expand", "filter_trace",
    "format_trace", "generate_trace", "ground_filter_trace",
    "ground_options", "held_counts", "index_vertices",
    "lifted_apply", "parse_domain", "parse_trace",
    "pinned_form", "predict", "successors",
    "total_variation", "update", "__version__",
]
