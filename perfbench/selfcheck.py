"""Self-check of the benchmark's deterministic counters; never looks at wall time.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload it makes two traced runs (``run.py --trace 1``) in separate
processes and requires that they report identical counters, that those
counters equal the ones recorded in ``baseline.json`` (they do not depend on
the seed), and that both runs pass the benchmark's output checks.  Exits 1 on
any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_counters(name, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True).stdout
    line = json.loads(out.strip().splitlines()[-1])
    return line["correct"], {k: line["metrics"][k]["value"] for k in tracing.COUNTERS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    baseline = json.loads((HERE / "baseline.json").read_text())["counters"]
    ok = True
    for name in args.workload:
        (ok1, first), (ok2, second) = (traced_counters(name, args.seed) for _ in range(2))
        problems = [] if ok1 and ok2 else ["output checks failed"]
        problems += [f"{k}: {first[k]} then {second[k]}" for k in first if first[k] != second[k]]
        problems += [f"{k}: {first[k]}, baseline {v}" for k, v in baseline[name].items()
                     if first[k] != v]
        print(f"{name}: {'OK' if not problems else 'FAIL'}"
              + "".join(f"\n  {msg}" for msg in problems))
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
