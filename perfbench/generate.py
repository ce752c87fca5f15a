"""Set-up step: write one workload's inputs for a seed.

    python3 perfbench/generate.py --workload sbm-sweep --seed 1 --out DIR [--scale tiny]

run.py starts this script in a fresh process and times it, so the set-up time
covers starting Python, importing heatprop and generating the inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import heatprop.cli  # noqa: F401  (importing the package is part of set-up)
    from workloads import generate

    generate(args.workload, args.scale, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
