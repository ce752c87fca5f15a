"""Command-line front end: classify, bench, oracle.

``classify`` prints as ``residual=`` the largest ``SolveInfo.final_change``
of its fields, the solver's recursively updated defect at its stop. It is
not the true defect ``max|P t - t|`` of a field, which can exceed it.

``classify`` and ``bench`` decode every flag or config key, and check the
output destination, before they read a graph, label or seed file.

Exit codes: 0 success, 1 validation or usage error or an input or output
file that cannot be read or written, 2 numerical failure (including solver
non-convergence when run with --tol 0).
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from itertools import permutations
from pathlib import Path

import numpy as np

from . import __version__
from .blockmodel import BlockModelParams, closed_form_temperatures, oracle_grid
from .classify import VARIANTS, SeedSet, classify, one_vs_all_fields
from .datasets import BUILTIN_DATASETS, config_path, load_bundle
from .errors import NumericalError, ValidationError
from .experiments import (
    DEFAULT_SEED_FRACTION,
    DatasetSource,
    ExperimentConfig,
    SamplingPolicy,
    SbmSource,
    Sweep,
    run_experiment,
    sample_seeds,
)
from .io import load_labels, read_text
from .solver import SolverOptions


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # numerical failures, so route usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with each ``"`` doubled, when it
    holds ``,`` or ``"`` (the minimal quoting of the ``csv`` module)."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# ---------------------------------------------------------------------------
# classify


def _add_classify(sub):
    p = sub.add_parser("classify", help="label the non-seed nodes of a dataset")
    p.add_argument("--graph", required=True, help="edge list file, or a bundled dataset name")
    p.add_argument("--labels", help="label file (required with --sample)")
    seeds = p.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seeds-file", help="seed file of `node label` lines")
    seeds.add_argument("--sample", choices=["uniform", "degree", "balanced"], help="sample seeds from --labels")
    p.add_argument("--fraction", type=float, help=f"seed fraction for --sample (default {DEFAULT_SEED_FRACTION})")
    p.add_argument("--variant", choices=VARIANTS, default="centered")
    p.add_argument("--max-iter", type=int, default=SolverOptions.max_iterations)
    p.add_argument("--tol", type=float, default=SolverOptions.tolerance)
    p.add_argument("--directed", action="store_true", help="treat the edge list as directed arcs")
    p.add_argument("--weighted", action="store_true", help="edge list has a weight column")
    p.add_argument("--use-destination", action="store_true",
                   help="classify destination copies instead of source copies (directed only)")
    p.add_argument("--delimiter", help="override the auto-detected column delimiter")
    p.add_argument("--seed", type=nonnegative_int, help=f"RNG seed for --sample (default {SamplingPolicy.rng_seed})")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")


def _seeds_from_file(path, bundle, label_names, delimiter=None):
    parsed, names = load_labels(path, bundle.id_map, bundle.graph.n, delimiter=delimiter)
    rename = {lab: lab for lab in names}
    if label_names:
        # remap the seed file's label ids onto the ground-truth naming
        reverse = {v: k for k, v in label_names.items()}
        for lab, name in names.items():
            if name not in reverse:
                raise ValidationError(f"seed label {name!r} does not appear in --labels")
            rename[lab] = reverse[name]
        names = label_names
    seeds = {int(node): rename[int(parsed.labels[node])] for node in parsed.labeled_nodes()}
    return SeedSet.from_dict(seeds, num_labels=len(names)), names


def _cmd_classify(args) -> int:
    """Label every non-seed node; the stderr summary's ``residual=`` is the
    largest ``SolveInfo.final_change`` (see the module docstring). Every flag
    is decoded, and ``--out`` checked, before ``load_bundle`` reads the first
    file."""
    if args.sample and not (args.labels or args.graph in BUILTIN_DATASETS):
        raise ValidationError("--sample needs --labels to draw seeds from")
    sampling = [flag for flag, value in (("--fraction", args.fraction), ("--seed", args.seed)) if value is not None]
    if args.seeds_file and sampling:
        raise ValidationError(f"{' and '.join(sampling)}: only used with --sample, not with --seeds-file")
    if args.use_destination and not args.directed:
        raise ValidationError("--use-destination needs a directed edge list (--directed)")
    if args.out != "-" and not Path(args.out).parent.is_dir():
        raise ValidationError(f"cannot write {args.out}: {Path(args.out).parent} is not an existing directory")
    if args.out != "-" and Path(args.out).is_dir():
        raise ValidationError(f"cannot write {args.out}: it is a directory")
    opts = SolverOptions(max_iterations=args.max_iter, tolerance=args.tol)
    policy = None
    if args.sample:
        fraction = DEFAULT_SEED_FRACTION if args.fraction is None else args.fraction
        policy = SamplingPolicy(kind=args.sample, fraction=fraction, rng_seed=args.seed or SamplingPolicy.rng_seed)

    bundle = load_bundle(args.graph, args.labels, args.directed, args.weighted, args.delimiter, args.use_destination)
    if policy:
        seeds, label_names = sample_seeds(bundle.labels, bundle.graph, policy), bundle.label_names
    else:
        seeds, label_names = _seeds_from_file(args.seeds_file, bundle, bundle.label_names, args.delimiter)

    start = time.perf_counter()
    fields = one_vs_all_fields(bundle.graph, seeds, opts)
    labels, confidence = classify(fields, seeds, args.variant)
    wall = time.perf_counter() - start

    strict_failure = args.tol == 0 and any(fld.info.stop_reason == "max_iterations" for fld in fields)

    index = np.fromiter(bundle.id_map.values(), dtype=np.int64, count=len(bundle.id_map))
    is_seed = np.zeros(bundle.graph.n, dtype=bool)
    is_seed[seeds.nodes] = True
    originals = np.flatnonzero(~is_seed[index])
    index = index[originals]
    external = list(bundle.id_map)
    joined = "".join(external)
    if "," in joined or '"' in joined:
        external = list(map(_csv_field, external))
    names = {lab: _csv_field(name) for lab, name in label_names.items()}
    rows = map(
        "{},{},{:.12g}\n".format,  # the confidence as _fmt writes it
        map(external.__getitem__, originals.tolist()),
        map(names.__getitem__, labels[index].tolist()),
        confidence[index].tolist(),
    )
    text = "node_id,label,confidence\n" + "".join(rows)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")

    iters = max(f.info.iterations for f in fields)
    defect = max(f.info.final_change for f in fields)
    print(
        f"classified {originals.size} nodes | variant={args.variant} "
        f"iterations={iters} residual={_fmt(defect)} wall={wall:.3f}s",
        file=sys.stderr,
    )
    if strict_failure:
        print("solver did not reach a fixed point within --max-iter (strict --tol 0)", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# bench


# not underscored: argparse names a `type=` function in its error message
def int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("must be nonnegative")
    return value


def float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in raw.split(",") if v.strip())


def name_list(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _lookup(table: dict):
    """Decoder that maps each key of ``table`` to its value and rejects any other text."""
    def decode(raw: str):
        if raw not in table:
            raise ValueError(f"expected one of {', '.join(table)}")
        return table[raw]

    return decode


# every config key and the decoder of its value
CONFIG_SCHEMA = {
    "task": _lookup({"experiment": "experiment", "oracle_grid": "oracle_grid"}),
    "source": str,
    "sizes": int_list,
    "seeds": int_list,
    "p": float,
    "q": float,
    "graph_file": str,
    "labels_file": str,
    "directed": _lookup({"true": True, "false": False}),
    "weighted": _lookup({"true": True, "false": False}),
    "policy": _lookup(dict(uniform="uniform", degree="degree", balanced="balanced", explicit="explicit_counts")),
    "fraction": float,
    "variants": name_list,
    "repetitions": int,
    "sweep": str,
    "sweep_values": float_list,
    "master_seed": nonnegative_int,
    "max_iterations": int,
    "tolerance": float,
    "grid_points": int,
    "max_block_nodes": int,
}


def parse_config(text: str) -> dict:
    """Flat `key = value` lines; a '#' opening a line or after whitespace
    starts a comment; keys checked exhaustively, each set at most once and
    each value decoded by its ``CONFIG_SCHEMA`` entry."""
    values = {}
    lines = {}
    unknown = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw.strip(), maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {ln}: expected `key = value`")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in lines:
            raise ValidationError(f"config line {ln}: {key} is already set on line {lines[key]}")
        lines[key] = ln
        if key not in CONFIG_SCHEMA:
            unknown.append(key)
            continue
        try:
            values[key] = CONFIG_SCHEMA[key](val)
        except ValueError as exc:
            raise ValidationError(f"config line {ln}: bad value {val!r} for {key} ({exc})") from None
    if unknown:
        raise ValidationError(
            f"unknown config keys: {', '.join(sorted(set(unknown)))}; "
            f"valid keys: {', '.join(sorted(CONFIG_SCHEMA))}"
        )
    return values


def _take(cfgv: dict, what: str, *keys: str) -> list:
    """Remove and return the values of required keys."""
    for key in keys:
        if key not in cfgv:
            raise ValidationError(f"{what} needs the {key!r} config key")
    return [cfgv.pop(key) for key in keys]


def _reject_unread(cfgv: dict):
    if cfgv:
        raise ValidationError(f"config keys that this run never reads: {', '.join(sorted(cfgv))}")


def _config_experiment(cfgv: dict) -> ExperimentConfig:
    """The experiment a config describes; consumes the keys of ``cfgv`` it
    reads and rejects any left over. ``source`` is ``sbm`` (the default),
    ``files`` or a bundled dataset name. Every key is decoded before a dataset
    source's files are read, so a rejected config reads no file."""
    source_kind = cfgv.pop("source", "sbm")
    dataset = source_kind in BUILTIN_DATASETS or source_kind == "files"
    if dataset:
        if source_kind == "files":
            graph, labels = _take(cfgv, "source = files", "graph_file", "labels_file")
        else:
            graph, labels = source_kind, cfgv.pop("labels_file", None)
        flags = {k: cfgv.pop(k) for k in ("directed", "weighted") if k in cfgv}
    elif source_kind == "sbm":
        sizes, seeds, p, q = _take(cfgv, "a block-model source", "sizes", "seeds", "p", "q")
        params = BlockModelParams(sizes=sizes, seed_counts=seeds, p=p, q=q)
        source = SbmSource(params=params)
    else:
        bundled = ", ".join(BUILTIN_DATASETS)
        raise ValidationError(f"unknown source {source_kind!r}; expected sbm, files or a bundled dataset ({bundled})")

    policy = None
    kind = cfgv.pop("policy", None)
    if kind == "explicit_counts":
        counts = _take(cfgv, "policy = explicit", "seeds")[0] if dataset else params.seed_counts
        policy = SamplingPolicy(kind=kind, counts=counts)
    elif kind is not None or dataset:
        policy = SamplingPolicy(kind=kind or "uniform", fraction=cfgv.pop("fraction", DEFAULT_SEED_FRACTION))

    sweep = None
    if (sweep_kind := cfgv.pop("sweep", "none")) != "none":
        sweep = Sweep(kind=sweep_kind, values=_take(cfgv, "a sweep", "sweep_values")[0])

    # absent keys are left out, so the dataclass defaults apply
    solver = SolverOptions(**{k: cfgv.pop(k) for k in ("max_iterations", "tolerance") if k in cfgv})
    run = {k: cfgv.pop(k) for k in ("variants", "repetitions", "master_seed") if k in cfgv}
    _reject_unread(cfgv)
    if dataset:
        bundle = load_bundle(graph, labels, **flags)
        source = DatasetSource(graph=bundle.graph, labels=bundle.labels)
    return ExperimentConfig(source=source, solver=solver, policy=policy, sweep=sweep, **run)


def _run_oracle_grid(cfgv: dict, out_dir: Path) -> int:
    """Write the agreement report of ``blockmodel.oracle_grid``; consumes the
    keys of ``cfgv`` it reads and rejects any left over."""
    points = cfgv.pop("grid_points", 50)
    max_block_nodes = cfgv.pop("max_block_nodes", 200)
    seed = cfgv.pop("master_seed", ExperimentConfig.master_seed)
    _reject_unread(cfgv)
    rows = oracle_grid(points, max_block_nodes, seed)
    lines = ["point,num_blocks,n,p,q,hot,max_abs_diff"]
    for idx, (params, hot, diff) in enumerate(rows):
        lines.append(f"{idx},{params.num_blocks},{params.n},{_fmt(params.p)},{_fmt(params.q)},{hot},{diff!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "oracle_agreement.csv"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    worst = max(diff for *_, diff in rows)
    print(f"oracle grid: {points} points, worst block disagreement {worst:.3e} -> {out}")
    return 0


def _add_bench(sub):
    p = sub.add_parser("bench", help="run a benchmark described by a config file")
    p.add_argument("--config", required=True, help="config file path or bundled config name")
    p.add_argument("--out-dir", default="bench-out")
    p.add_argument("--seed", type=nonnegative_int, help="override the config's master seed")


def _cmd_bench(args) -> int:
    cfgv = parse_config(read_text(config_path(args.config)))
    if args.seed is not None:
        cfgv["master_seed"] = args.seed
    out_dir = Path(args.out_dir)
    # made after the run, so that a rejected config leaves no directory
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise ValidationError(f"cannot write to {out_dir}: {existing} is not a directory")
    if cfgv.pop("task", "experiment") == "oracle_grid":
        return _run_oracle_grid(cfgv, out_dir)

    table = run_experiment(_config_experiment(cfgv))
    out_dir.mkdir(parents=True, exist_ok=True)
    table.write_csv(out_dir / "results.csv")
    table.write_aggregate_csv(out_dir / "aggregate.csv")
    for failure in table.failures:
        print(f"failed: sweep={failure.sweep} rep={failure.rep}: {failure.message}", file=sys.stderr)
    print(f"{len(table.rows())} rows -> {out_dir / 'results.csv'}")
    for variant, sweep, mean, std in table.aggregate():
        print(f"  {variant} sweep={_fmt(sweep)}: macro-F1 {mean:.4f} +- {std:.4f}")
    return 0


# ---------------------------------------------------------------------------
# oracle


def _add_oracle(sub):
    p = sub.add_parser("oracle", help="closed-form block-model temperatures")
    p.add_argument("--sizes", type=int_list, required=True, help="comma-separated block sizes")
    p.add_argument("--seeds", type=int_list, required=True, help="comma-separated per-block seed counts")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--hot", type=int, default=1, help="label whose diffusion is printed, 1..K")


def _cmd_oracle(args) -> int:
    params = BlockModelParams(sizes=args.sizes, seed_counts=args.seeds, p=args.p, q=args.q)
    if not 1 <= args.hot <= params.num_blocks:
        raise ValidationError(f"hot label {args.hot} out of range [1, {params.num_blocks}]")
    temps = closed_form_temperatures(params)
    row, mean = temps.per_block[args.hot - 1], temps.mean[args.hot - 1]
    print(f"mean temperature = {_fmt(mean)}")
    for k in range(params.num_blocks):
        print(f"block {k + 1}: T = {_fmt(row[k])}  delta = {_fmt(row[k] - mean)}")
    t = temps.per_block
    for b, other in permutations(range(1, params.num_blocks + 1), 2):
        ok = t[b - 1, b - 1] > t[other - 1, b - 1]
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
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
