"""Exact cooperative-game solutions on three lattices of cooperation structures.

Everything is computed in rational arithmetic: games live on the Boolean
lattice of coalitions, the lattice of partitions, or the lattice of
embedded subsets, and the solvers return exact atom shares with
verifiable side conditions (core certificates, separability witnesses).
"""

from .lattice import (
    EmbeddedSubset,
    Partition,
    SizeLimitError,
    bell,
    class_count,
    class_vectors,
    ground_cap,
    lattice_for,
)
from .transform import (
    LatticeGame,
    MobiusCoefficients,
    format_fraction,
    mobius,
    parse_fraction,
    zeta_expand,
    zeta_game,
)
from .games import (
    PredicateReport,
    SymmetricGame,
    additive_global,
    additive_pff,
    clustering_restrict,
    is_monotone,
    is_supermodular,
    is_symmetric,
    is_totally_positive,
)
from .solutions import (
    SOLVERS,
    NodeShares,
    Solution,
    cu,
    cu_chain_oracle,
    egalitarian,
    graph_restrict,
    is_fixed_point,
    myerson,
    shapley_chain,
    shapley_dividends,
    split_to_nodes,
    su,
    symmetric_solution,
    transport_solution,
)
from .coresep import (
    CoreReport,
    SeparabilityReport,
    SeparatingFamily,
    VerificationError,
    core_contains,
    core_feasible,
    separability_test,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddedSubset",
    "Partition",
    "SizeLimitError",
    "bell",
    "class_count",
    "class_vectors",
    "ground_cap",
    "lattice_for",
    "LatticeGame",
    "MobiusCoefficients",
    "format_fraction",
    "mobius",
    "parse_fraction",
    "zeta_expand",
    "zeta_game",
    "PredicateReport",
    "SymmetricGame",
    "additive_global",
    "additive_pff",
    "clustering_restrict",
    "is_monotone",
    "is_supermodular",
    "is_symmetric",
    "is_totally_positive",
    "SOLVERS",
    "NodeShares",
    "Solution",
    "cu",
    "cu_chain_oracle",
    "egalitarian",
    "graph_restrict",
    "is_fixed_point",
    "myerson",
    "shapley_chain",
    "shapley_dividends",
    "split_to_nodes",
    "su",
    "symmetric_solution",
    "transport_solution",
    "CoreReport",
    "SeparabilityReport",
    "SeparatingFamily",
    "VerificationError",
    "core_contains",
    "core_feasible",
    "separability_test",
    "__version__",
]
