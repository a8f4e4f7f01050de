"""chasegraph: existential-rule chase with derivation graphs and reductions.

The library covers the full pipeline: rule/database parsing, trigger and
chase computation with provenance, greediness analysis of derivations,
derivation-graph construction, the three reduction operations with trace
recording, tree-decomposition extraction, and bounded per-database verdicts
for the greedy / cycle-free rule-set classes.
"""

from .analysis import (
    GreedinessReport,
    RuleDependencyGraph,
    depends_on,
    find_greedy_rederivation,
    is_greedy,
    normalize_by_grd,
    permute_adjacent,
    rule_dependency_graph,
)
from .chase import (
    Derivation,
    DerivationStep,
    Trigger,
    apply_rule,
    chase_k,
    chase_levels,
    enumerate_derivations,
    one_step,
    triggers,
)
from .classify import (
    ClassificationVerdict,
    EntailmentResult,
    classify,
    entails,
    subsumption_check,
)
from .derivgraph import (
    DerivationGraph,
    NodeFacts,
    build_derivation_graph,
    check_decomposition_properties,
    check_generative_paths,
    node_frontier,
    x_generative_node,
)
from .docparse import RuleDocument, parse_document, print_document
from .homs import (
    find_homomorphisms,
    hom_equivalent,
    isomorphic_mod_nulls,
    satisfies_rule,
)
from .model import (
    Atom,
    BooleanQuery,
    Constant,
    Instance,
    KnowledgeBase,
    Null,
    Rule,
    Substitution,
    Variable,
    frontier_atoms,
)
from .reduction import (
    ArStep,
    CrStep,
    ReductionTrace,
    TrStep,
    apply_ar,
    apply_cr,
    apply_tr,
    check_prefix_invariants,
    is_cycle_free,
    reduce_graph,
)
from .treedecomp import (
    TreeDecomposition,
    extract_tree_decomposition,
    validate_tree_decomposition,
    width_bound,
)

__version__ = "0.1.0"
