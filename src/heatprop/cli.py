"""Command-line front end: classify, bench, oracle.

Exit codes: 0 success, 1 validation or usage error, 2 numerical failure
(including solver non-convergence when run with --tol 0).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .blockmodel import (
    BlockModelParams,
    build_deterministic_block_graph,
    closed_form_temperatures,
    vanilla_consistency_condition,
)
from .classify import VARIANTS, SeedSet, classify, one_vs_all_problem
from .datasets import BUILTIN_DATASETS, config_path
from .errors import NumericalError, ValidationError
from .experiments import (
    DEFAULT_SEED_FRACTION,
    BlockSource,
    DatasetSource,
    ExperimentConfig,
    SamplingPolicy,
    SbmSource,
    Sweep,
    run_experiment,
)
from .io import load_dataset
from .solver import SOLVER_MODES, SolverOptions, residual, solve_exact


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # numerical failures, so route usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# classify


def _add_classify(sub):
    p = sub.add_parser("classify", help="label the non-seed nodes of a dataset")
    p.add_argument("--graph", required=True, help="edge list file, or a bundled dataset name")
    p.add_argument("--labels", help="label file (required with --sample)")
    p.add_argument("--seeds-file", help="seed file of `node label` lines")
    p.add_argument("--sample", choices=["uniform", "degree", "balanced"], help="sample seeds from --labels")
    p.add_argument("--fraction", type=float, default=DEFAULT_SEED_FRACTION, help="seed fraction for --sample")
    p.add_argument("--variant", choices=VARIANTS, default="centered")
    p.add_argument("--max-iter", type=int, default=SolverOptions.max_iterations)
    p.add_argument("--tol", type=float, default=SolverOptions.tolerance)
    p.add_argument("--mode", choices=SOLVER_MODES, default=SolverOptions.mode)
    p.add_argument("--directed", action="store_true", help="treat the edge list as directed arcs")
    p.add_argument("--weighted", action="store_true", help="edge list has a weight column")
    p.add_argument("--use-destination", action="store_true",
                   help="classify destination copies instead of source copies (directed only)")
    p.add_argument("--delimiter", help="override the auto-detected column delimiter")
    p.add_argument("--seed", type=int, default=SamplingPolicy.rng_seed, help="master RNG seed")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")


def _load_bundle(args):
    if args.graph in BUILTIN_DATASETS:
        from .datasets import load_builtin

        bundle = load_builtin(args.graph)
        if args.labels:
            raise ValidationError("bundled datasets already carry labels; drop --labels")
        return bundle
    return load_dataset(
        args.graph,
        labels_path=args.labels,
        directed=args.directed,
        weighted=args.weighted,
        delimiter=args.delimiter,
    )


def _copy_index(bundle, original: int, use_destination: bool) -> int:
    if not bundle.directed:
        return original
    return original + bundle.n_original if use_destination else original


def _seeds_from_file(path, bundle, label_names, use_destination):
    from .io import load_labels

    parsed, names = load_labels(path, bundle.id_map, bundle.n_original)
    if label_names:
        # remap the seed file's label ids onto the ground-truth naming
        rename = {}
        reverse = {v: k for k, v in label_names.items()}
        for lab, name in names.items():
            if name not in reverse:
                raise ValidationError(f"seed label {name!r} does not appear in --labels")
            rename[lab] = reverse[name]
        names = label_names
    else:
        rename = {lab: lab for lab in names}
    seeds = {}
    for node in parsed.labeled_nodes():
        seeds[_copy_index(bundle, int(node), use_destination)] = rename[int(parsed.labels[node])]
    return SeedSet.from_dict(seeds, num_labels=len(names)), names


def _cmd_classify(args) -> int:
    if args.sample and not (args.labels or args.graph in BUILTIN_DATASETS):
        raise ValidationError("--sample needs --labels to draw seeds from")
    if not args.sample and not args.seeds_file:
        raise ValidationError("provide either --seeds-file or --sample")
    if args.sample and args.seeds_file:
        raise ValidationError("--seeds-file and --sample are mutually exclusive")

    bundle = _load_bundle(args)
    label_names = bundle.label_names or {}
    opts = SolverOptions(max_iterations=args.max_iter, tolerance=args.tol, mode=args.mode)

    if args.seeds_file:
        seeds, label_names = _seeds_from_file(args.seeds_file, bundle, label_names, args.use_destination)
    else:
        if bundle.labels is None:
            raise ValidationError("--sample needs a label file")
        from .experiments import sample_seeds

        policy = SamplingPolicy(kind=args.sample, fraction=args.fraction, rng_seed=args.seed)
        ground = bundle.labels
        if bundle.directed:
            lifted = np.zeros(bundle.graph.n, dtype=np.int64)
            span = slice(bundle.n_original, None) if args.use_destination else slice(0, bundle.n_original)
            lifted[span] = ground.labels
            from .graph import NodePartition

            ground = NodePartition(labels=lifted, num_labels=ground.num_labels)
        seeds = sample_seeds(ground, bundle.graph, policy)

    start = time.perf_counter()
    scores, result = classify(bundle.graph, seeds, args.variant, opts)
    wall = time.perf_counter() - start

    max_residual = 0.0
    strict_failure = False
    for k, fld in enumerate(scores.fields, start=1):
        problem = one_vs_all_problem(bundle.graph, seeds, k)
        if problem is not None:
            max_residual = max(max_residual, residual(problem, fld))
        if args.tol == 0 and fld.info.stop_reason == "max_iterations" and fld.info.final_change > 0:
            strict_failure = True

    seed_set = set(int(s) for s in seeds.nodes)
    lines = ["node_id,label,confidence"]
    for original in range(bundle.n_original):
        idx = _copy_index(bundle, original, args.use_destination)
        if idx in seed_set:
            continue
        name = label_names.get(int(result.labels[idx]), str(int(result.labels[idx])))
        lines.append(f"{bundle.external_id(original)},{name},{_fmt(float(result.confidence[idx]))}")
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")

    iters = max(f.info.iterations for f in scores.fields)
    print(
        f"classified {len(lines) - 1} nodes | variant={args.variant} "
        f"iterations={iters} residual={_fmt(max_residual)} wall={wall:.3f}s",
        file=sys.stderr,
    )
    if strict_failure:
        print("solver did not reach a fixed point within --max-iter (strict --tol 0)", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# bench


CONFIG_KEYS = {
    "task", "source", "sizes", "seeds", "p", "q", "graph_file", "labels_file",
    "directed", "weighted", "policy", "fraction", "variants", "repetitions",
    "sweep", "sweep_values", "master_seed", "max_iterations", "tolerance",
    "mode", "grid_points", "max_block_nodes",
}


def parse_config(text: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; keys checked exhaustively."""
    values: dict[str, str] = {}
    unknown = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {ln}: expected `key = value`")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            unknown.append(key)
            continue
        values[key] = val
    if unknown:
        raise ValidationError(
            f"unknown config keys: {', '.join(sorted(set(unknown)))}; "
            f"valid keys: {', '.join(sorted(CONFIG_KEYS))}"
        )
    return values


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def _float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in raw.split(",") if v.strip())


def _name_tuple(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(","))


def _config_params(cfgv: dict[str, str]) -> BlockModelParams:
    for key in ("sizes", "seeds", "p", "q"):
        if key not in cfgv:
            raise ValidationError(f"block-model sources need the {key!r} config key")
    return BlockModelParams(
        sizes=_int_tuple(cfgv["sizes"]),
        seed_counts=_int_tuple(cfgv["seeds"]),
        p=float(cfgv["p"]),
        q=float(cfgv["q"]),
    )


def _config_experiment(cfgv: dict[str, str], master_seed: int | None) -> ExperimentConfig:
    source_kind = cfgv.get("source", "sbm")
    if source_kind == "sbm":
        source = SbmSource(params=_config_params(cfgv))
    elif source_kind == "blocks":
        source = BlockSource(params=_config_params(cfgv))
    elif source_kind in BUILTIN_DATASETS or source_kind == "files":
        if source_kind == "files":
            if "graph_file" not in cfgv:
                raise ValidationError("source=files needs graph_file (and labels_file)")
            bundle = load_dataset(
                cfgv["graph_file"],
                labels_path=cfgv.get("labels_file"),
                directed=cfgv.get("directed", "false").lower() == "true",
                weighted=cfgv.get("weighted", "false").lower() == "true",
            )
            name = Path(cfgv["graph_file"]).stem
        else:
            from .datasets import load_builtin

            bundle = load_builtin(source_kind)
            name = source_kind
        if bundle.labels is None:
            raise ValidationError("benchmark datasets need ground-truth labels")
        source = DatasetSource(graph=bundle.graph, labels=bundle.labels, name=name)
    else:
        raise ValidationError(f"unknown source {source_kind!r}")

    policy = None
    if "policy" in cfgv:
        kind = cfgv["policy"]
        if kind == "explicit":
            kind = "explicit_counts"
        if kind == "explicit_counts":
            if "seeds" not in cfgv:
                raise ValidationError("policy=explicit needs the 'seeds' config key")
            policy = SamplingPolicy(kind=kind, counts=_int_tuple(cfgv["seeds"]))
        else:
            policy = SamplingPolicy(kind=kind, fraction=float(cfgv.get("fraction", DEFAULT_SEED_FRACTION)))
    elif isinstance(source, DatasetSource):
        policy = SamplingPolicy(kind="uniform", fraction=float(cfgv.get("fraction", DEFAULT_SEED_FRACTION)))

    sweep = None
    if cfgv.get("sweep", "none") != "none":
        sweep = Sweep(kind=cfgv["sweep"], values=_float_tuple(cfgv.get("sweep_values", "1")))

    solver = SolverOptions(**_given(cfgv, max_iterations=int, tolerance=float, mode=str))
    run = _given(cfgv, variants=_name_tuple, repetitions=int, master_seed=int)
    if master_seed is not None:
        run["master_seed"] = master_seed
    return ExperimentConfig(source=source, solver=solver, policy=policy, sweep=sweep, **run)


def _given(cfgv: dict[str, str], **decoders) -> dict:
    """The config keys among ``decoders`` that are present, decoded; an
    absent key is left out, so the dataclass default applies."""
    return {key: decode(cfgv[key]) for key, decode in decoders.items() if key in cfgv}


def _run_oracle_grid(cfgv: dict[str, str], master_seed: int | None, out_dir: Path) -> int:
    """Agreement report between the closed-form block temperatures and the
    exact solver over random parameter draws."""
    points = int(cfgv.get("grid_points", 50))
    max_nodes = int(cfgv.get("max_block_nodes", 200))
    seed = master_seed if master_seed is not None else int(cfgv.get("master_seed", ExperimentConfig.master_seed))
    rng = np.random.default_rng(seed)
    rows = ["point,num_blocks,n,p,q,hot,max_abs_diff"]
    worst = 0.0
    for idx in range(points):
        kb = int(rng.integers(1, 6))
        sizes, seeds_c = [], []
        for _ in range(kb):
            nk = int(rng.integers(2, max(3, max_nodes // kb)))
            sizes.append(nk)
            seeds_c.append(int(rng.integers(1, nk + 1)))
        p = float(rng.uniform(0.2, 3.0))
        q = float(rng.uniform(0.2, 3.0))
        params = BlockModelParams(sizes=tuple(sizes), seed_counts=tuple(seeds_c), p=p, q=q)
        hot = int(rng.integers(1, kb + 1))
        graph, _, seeds = build_deterministic_block_graph(params)
        oracle = closed_form_temperatures(params, hot=hot)
        problem = one_vs_all_problem(graph, seeds, hot)
        if problem is None:
            continue
        field = solve_exact(problem)
        diff = _block_disagreement(params, seeds, field.values, oracle.per_block)
        worst = max(worst, diff)
        rows.append(
            f"{idx},{kb},{params.n},{_fmt(p)},{_fmt(q)},{hot},{repr(diff)}"
        )
    out = out_dir / "oracle_agreement.csv"
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"oracle grid: {points} points, worst block disagreement {worst:.3e} -> {out}")
    return 0


def _block_disagreement(params, seeds, values, per_block) -> float:
    """Largest gap between a non-seed temperature and its block's closed form."""
    diff = np.abs(values - np.repeat(per_block, params.sizes))
    diff[seeds.nodes] = 0.0
    return float(diff.max())


def _add_bench(sub):
    p = sub.add_parser("bench", help="run a benchmark described by a config file")
    p.add_argument("--config", required=True, help="config file path or bundled config name")
    p.add_argument("--out-dir", default="bench-out")
    p.add_argument("--seed", type=int, help="override the config's master seed")
    p.add_argument("--timing", action="store_true",
                   help="write measured wall times (output is then not byte-reproducible)")


def _cmd_bench(args) -> int:
    path = Path(args.config)
    if not path.exists():
        try:
            path = config_path(args.config)
        except ValidationError:
            raise ValidationError(f"config file {args.config!r} not found") from None
    cfgv = parse_config(path.read_text(encoding="utf-8"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfgv.get("task", "experiment") == "oracle_grid":
        return _run_oracle_grid(cfgv, args.seed, out_dir)

    cfg = _config_experiment(cfgv, args.seed)
    table = run_experiment(cfg)
    table.write_csv(out_dir / "results.csv", include_timing=args.timing)
    table.write_aggregate_csv(out_dir / "aggregate.csv")
    for failure in table.failures:
        print(f"failed: sweep={failure.sweep} rep={failure.rep}: {failure.message}", file=sys.stderr)
    print(f"{len(table.rows)} rows -> {out_dir / 'results.csv'}")
    for agg in table.aggregate():
        print(f"  {agg.variant} sweep={_fmt(agg.sweep)}: macro-F1 {agg.mean:.4f} +- {agg.std:.4f}")
    return 0


# ---------------------------------------------------------------------------
# oracle


def _add_oracle(sub):
    p = sub.add_parser("oracle", help="closed-form block-model temperatures")
    p.add_argument("--K", type=int, required=True, dest="num_blocks")
    p.add_argument("--sizes", required=True, help="comma-separated block sizes")
    p.add_argument("--seeds", required=True, help="comma-separated per-block seed counts")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--hot", type=int, default=1)


def _cmd_oracle(args) -> int:
    sizes = _int_tuple(args.sizes)
    seeds = _int_tuple(args.seeds)
    if len(sizes) != args.num_blocks or len(seeds) != args.num_blocks:
        raise ValidationError("--sizes and --seeds must list exactly K values")
    params = BlockModelParams(sizes=sizes, seed_counts=seeds, p=args.p, q=args.q)
    temps = closed_form_temperatures(params, hot=args.hot)
    print(f"mean temperature = {_fmt(temps.mean)}")
    for k in range(params.num_blocks):
        print(
            f"block {k + 1}: T = {_fmt(temps.per_block[k])}  delta = {_fmt(temps.deltas[k])}"
        )
    for b in range(1, params.num_blocks + 1):
        for other in range(1, params.num_blocks + 1):
            if other == b:
                continue
            ok = vanilla_consistency_condition(params, hot=b, other=other)
            print(f"vanilla condition block {b} vs {other}: {'TRUE' if ok else 'FALSE'}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _Parser(prog="heatprop", description=__doc__)
    parser.add_argument("--version", action="version", version=f"heatprop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_classify(sub)
    _add_bench(sub)
    _add_oracle(sub)
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_oracle(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
