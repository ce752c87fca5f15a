"""Semi-supervised node classification by heat diffusion on sparse graphs.

The package solves discrete Dirichlet problems on weighted undirected graphs
(iteratively or exactly), classifies nodes from one-vs-all diffusions with
vanilla, weighted, or mean-centered score rules, and ships an analytic block
model plus a benchmark harness for validating the centered rule.
"""

__version__ = "0.1.0"

from .blockmodel import (
    BlockModelParams,
    BlockTemperatures,
    build_deterministic_block_graph,
    closed_form_temperatures,
    sbm_generate,
    vanilla_consistency_condition,
)
from .classify import (
    Classification,
    ScoreMatrix,
    SeedSet,
    center,
    classify,
    classify_binary,
    diffuse_one_vs_all,
    one_vs_all_fields,
)
from .errors import IsolatedNodeError, NumericalError, ValidationError
from .experiments import (
    BlockSource,
    DatasetSource,
    ExperimentConfig,
    ResultTable,
    SamplingPolicy,
    SbmSource,
    Sweep,
    accuracy,
    binary_per_label_experiment,
    macro_f1,
    per_class_f1,
    run_experiment,
    sample_seeds,
)
from .graph import (
    Graph,
    MultiLabelPartition,
    NodePartition,
    build_graph,
    connected_components,
    directed_to_bipartite,
    transition_apply,
)
from .io import DatasetBundle, load_dataset, load_edge_list, load_labels
from .solver import (
    DirichletProblem,
    SolveInfo,
    SolverOptions,
    TemperatureField,
    residual,
    solve,
    solve_exact,
    solve_iterative,
)

__all__ = [
    "BlockModelParams",
    "BlockSource",
    "BlockTemperatures",
    "Classification",
    "DatasetBundle",
    "DatasetSource",
    "DirichletProblem",
    "ExperimentConfig",
    "Graph",
    "IsolatedNodeError",
    "MultiLabelPartition",
    "NodePartition",
    "NumericalError",
    "ResultTable",
    "SamplingPolicy",
    "SbmSource",
    "ScoreMatrix",
    "SeedSet",
    "SolveInfo",
    "SolverOptions",
    "Sweep",
    "TemperatureField",
    "ValidationError",
    "accuracy",
    "binary_per_label_experiment",
    "build_deterministic_block_graph",
    "build_graph",
    "center",
    "classify",
    "classify_binary",
    "closed_form_temperatures",
    "connected_components",
    "diffuse_one_vs_all",
    "directed_to_bipartite",
    "load_dataset",
    "load_edge_list",
    "load_labels",
    "macro_f1",
    "one_vs_all_fields",
    "per_class_f1",
    "residual",
    "run_experiment",
    "sample_seeds",
    "sbm_generate",
    "solve",
    "solve_exact",
    "solve_iterative",
    "transition_apply",
    "vanilla_consistency_condition",
]
