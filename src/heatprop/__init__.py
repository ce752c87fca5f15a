"""Semi-supervised node classification by heat diffusion on sparse graphs.

The package solves discrete Dirichlet problems on weighted undirected graphs
(by conjugate gradients), classifies nodes from one-vs-all diffusions with
vanilla, weighted, or mean-centered score rules, and ships an analytic block
model plus a benchmark harness for validating the centered rule.
"""

__version__ = "0.1.0"

from .blockmodel import (
    BlockModelParams,
    build_deterministic_block_graph,
    closed_form_temperatures,
    sbm_generate,
    vanilla_consistency_condition,
)
from .classify import SeedSet, diffuse_one_vs_all
from .errors import IsolatedNodeError, NumericalError, ValidationError
from .experiments import (
    BlockSource,
    DatasetSource,
    ExperimentConfig,
    SamplingPolicy,
    SbmSource,
    Sweep,
    accuracy,
    macro_f1,
    per_class_f1,
    run_experiment,
    sample_seeds,
)
from .graph import (
    Graph,
    NodePartition,
    build_graph,
    connected_components,
    directed_to_bipartite,
    transition_apply,
)
from .io import load_edge_list, load_labels
from .solver import (
    DirichletProblem,
    SolverOptions,
    TemperatureField,
    residual,
    solve_exact,
    solve_iterative,
)

__all__ = [
    "BlockModelParams",
    "BlockSource",
    "DatasetSource",
    "DirichletProblem",
    "ExperimentConfig",
    "Graph",
    "IsolatedNodeError",
    "NodePartition",
    "NumericalError",
    "SamplingPolicy",
    "SbmSource",
    "SeedSet",
    "SolverOptions",
    "Sweep",
    "TemperatureField",
    "ValidationError",
    "accuracy",
    "build_deterministic_block_graph",
    "build_graph",
    "closed_form_temperatures",
    "connected_components",
    "diffuse_one_vs_all",
    "directed_to_bipartite",
    "load_edge_list",
    "load_labels",
    "macro_f1",
    "per_class_f1",
    "residual",
    "run_experiment",
    "sample_seeds",
    "sbm_generate",
    "solve_exact",
    "solve_iterative",
    "transition_apply",
    "vanilla_consistency_condition",
]
