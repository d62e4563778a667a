"""Benchmark of the supmin CLI: solve, audit and check on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

One client runs one command at a time (a closed loop) through the real entry
point ``supmin.cli.main``, in this process, with BLAS/OpenMP threads pinned
to 1 and the audit at its default of one job.  A run:

1. writes the workload's config for ``--seed`` (see ``workloads.py``) into a
   fresh directory under ``perfbench/out/``; the CLI only sees that file;
2. runs passes of the workload's commands, each pass in its own output
   directory, while another pass still fits in ``--seconds``; before each
   pass it times set-up ``PROBES_PER_PASS`` times, each in a fresh
   interpreter that imports ``supmin.cli`` and loads the config
   (``probe.py``), and around each command it times a fixed calibration loop
   (``calibrate``), so that both sample the host's speed across the run;
3. checks every pass's exit codes and ``candidate.csv`` with the benchmark's
   own evaluator (``exact.py``).

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics, medians over the passes; with ``--trace 1`` passes
alternate traced and untraced, and it holds the per-layer metrics of the
traced passes (``tracing.py``) and the tracing overhead.  Earlier lines print
every metric by name and unit, and ``result.json`` in the run directory keeps
them with the run's environment.  The process exits with a non-zero code,
printing no result, when the supmin sources are not next to the benchmark.
"""

import os

THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)  # before anything imports numpy

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBES_PER_PASS = 2
# Calibration loop time that ``pipeline_ref_s`` scales the host's speed to.
CAL_REF_S = 0.15
sys.path.insert(0, str(HERE))

import exact  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SetupError(Exception):
    """The program under test cannot be imported or set up; no result is printed."""


def import_cli():
    if not (SRC / "supmin" / "cli.py").is_file():
        raise SetupError(f"no supmin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import supmin.cli

    if Path(supmin.cli.__file__).resolve().parent != SRC / "supmin":
        raise SetupError(f"supmin imported from {supmin.cli.__file__}, not {SRC}")
    return supmin.cli


def environment(cfg, seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    import numpy

    return {"cpu_model": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed, "x_domain": cfg["domain"],
            "thread_pins": THREAD_PINS, "loadavg_before": list(os.getloadavg())}


def probe_setup(config_path):
    """Wall time from spawning a fresh interpreter until it has imported
    ``supmin.cli`` and loaded the config, plus the probe's own split."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), str(config_path)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or not line:
        raise SetupError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    split = json.loads(line)
    if Path(split["module"]).resolve().parent != SRC / "supmin":
        raise SetupError(f"probe imported supmin from {split['module']}")
    return wall, split


def calibrate(rounds=12000):
    """Wall time of a fixed loop of small numpy and pure-Python work.

    The loop uses nothing from supmin, so no change to the program moves it;
    it only samples how fast the shared host runs at the moment.  On the
    2-CPU machine this benchmark was tuned on, identical passes ran up to
    1.6 times slower in some minutes than in others, and the loop slowed with
    them.
    """
    import numpy as np

    a = np.linspace(0.1, 1.0, 16).reshape(8, 2)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(rounds):
        acc += float(np.max(np.abs(a @ a.T)))
        acc += sum(j * 0.5 for j in range(30))
    return time.perf_counter() - t0


def run_pass(cli, work, cfg, config_path, pass_dir, tracer=None):
    """One pass of the workload's commands; returns its record."""
    times, codes, logs = {}, {}, []
    cals = [calibrate()]
    ref_s = 0.0  # the commands' wall time, rescaled to the reference host speed
    for command in work.commands:
        argv = [command, str(config_path), "--output-dir", str(pass_dir)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.command(command, cli.main, argv)
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                code = f"{type(exc).__name__}: {exc}"
            times[command] = time.perf_counter() - t0
        cals.append(calibrate())
        ref_s += times[command] * CAL_REF_S / ((cals[-2] + cals[-1]) / 2)
        codes[command] = code
        logs.append(f"$ supmin {' '.join(argv)}\n{buf.getvalue()}exit {code}\n")
    (pass_dir / "cli.log").write_text("".join(logs))

    bad = {c for c in work.commands if codes[c] != work.expected_exit[c]}
    problems = [f"{c} exited {codes[c]}, expected {work.expected_exit[c]}" for c in sorted(bad)]
    oracle = exact.oracle(work.oracle, cfg)
    try:
        sup, cand_problems = exact.check_candidate(cfg, pass_dir / "candidate.csv", oracle)
        records = json.loads((pass_dir / "sweep.json").read_text())["records"]
        subintervals = []
        if "audit" in work.commands:
            subintervals = json.loads((pass_dir / "audit.json").read_text())["subintervals"]
        nonconverged = sum(1 for r in records if not r["converged"])
        inconclusive = sum(1 for s in subintervals if s["status"] == "inconclusive")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        sup, cand_problems = math.inf, [f"unreadable output: {exc}"]
        records, subintervals, nonconverged, inconclusive = [], [], 0, 0
    if cand_problems:
        bad.add("solve")
        problems += cand_problems
    return {
        "times": times, "ref_s": ref_s, "calibration_s": cals, "codes": codes,
        "problems": problems, "failed": len(bad),
        "candidate_sup": sup,
        "oracle": oracle,
        # the issue's failed share: exponent records, audited subintervals, commands
        "share_attempts": len(records) + len(subintervals) + len(work.commands),
        "share_failures": nonconverged + inconclusive + len(bad),
        "inconclusive": inconclusive,
        "artifact_bytes": sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file()),
    }


def run_workload(cli, name, seed, seconds, traced):
    work = workloads.WORKLOADS[name]
    cfg = workloads.make_config(name, seed)
    run_dir = OUT / f"{name}-seed{seed}-trace{int(traced)}-{time.time_ns()}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(cfg, indent=1) + "\n")
    env = environment(cfg, seed)

    started = time.perf_counter()  # set-up probes count against the run's seconds
    probes, passes, longest = [], [], 0.0
    while True:
        round_started = time.perf_counter()
        probes += [probe_setup(config_path) for _ in range(PROBES_PER_PASS)]
        k = len(passes)
        tracer = tracing.Tracer() if traced and k % 2 == 0 else None
        pass_dir = run_dir / f"pass-{k}"
        pass_dir.mkdir()
        uninstall = tracing.install(tracer) if tracer else None
        try:
            rec = run_pass(cli, work, cfg, config_path, pass_dir, tracer)
        finally:
            if uninstall:
                uninstall()
        rec["traced"] = tracer is not None
        if tracer:
            rec["layers"] = tracing.layer_metrics(tracer, rec["times"])
            tracer.write(pass_dir / "spans.csv.gz")
        passes.append(rec)
        now = time.perf_counter()
        longest = max(longest, now - round_started)
        elapsed = now - started
        if len(passes) >= (2 if traced else 1) and elapsed + 1.1 * longest > seconds:
            break

    env["loadavg_after"] = list(os.getloadavg())
    plain = [p for p in passes if not p["traced"]]
    problems = sorted({msg for p in passes for msg in p["problems"]})
    sups = {p["candidate_sup"] for p in passes}
    if len(sups) > 1:
        problems.append(f"candidate sup differs between passes: {sorted(sups)}")
    sup = passes[0]["candidate_sup"]
    oracle = passes[0]["oracle"]

    def med(values):
        return statistics.median(values) if values else None

    cmd_s = {c: med([p["times"][c] for p in plain]) for c in work.commands}
    info = {
        "setup_s": med([w for w, _ in probes]),
        "solve_s": cmd_s["solve"],
        "audit_s": cmd_s.get("audit"),
        "check_s": cmd_s.get("check"),
        "pipeline_s": med([sum(p["times"].values()) for p in plain]),
        "pipeline_ref_s": med([p["ref_s"] for p in plain]),
        # high-water mark of this process, so with --workload all it covers earlier workloads
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "candidate_sup": sup,
        "oracle_gap": (sup - oracle) / oracle if oracle else None,
        "failed_share": (sum(p["share_failures"] for p in passes)
                         / sum(p["share_attempts"] for p in passes)),
    }
    layers = traced_metrics(passes, probes, problems) if traced else None
    result = {
        "workload": name, "run_dir": str(run_dir), "environment": env,
        "passes": len(passes), "correct": not problems, "problems": problems,
        "attempted": sum(len(p["codes"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "info": info, "layers": layers,
        "pass_records": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def traced_metrics(passes, probes, problems):
    """Per-layer metrics: medians over traced passes, whose counters must agree."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = [p["layers"] for p in traced]
    for key in tracing.COUNTERS:
        if len({lay[key] for lay in layers}) > 1:
            problems.append(f"counter {key} differs between traced passes: "
                            f"{[lay[key] for lay in layers]}")
    out = {key: layers[0][key] if key in tracing.COUNTERS
           else statistics.median(lay[key] for lay in layers) for key in layers[0]}
    out["cli.import_s"] = statistics.median(s["import_s"] for _, s in probes)
    out["cli.config_s"] = statistics.median(s["config_s"] for _, s in probes)
    out["io.artifact_bytes"] = traced[0]["artifact_bytes"]
    out["audit.inconclusive"] = traced[0]["inconclusive"]
    # traced minus untraced wall time, per command (0 when not run) and in total
    for command in ("solve", "audit", "check"):
        out[f"trace.overhead.{command}_s"] = (
            statistics.median(p["times"][command] for p in traced)
            - statistics.median(p["times"][command] for p in plain)
            if command in traced[0]["times"] else 0.0)
    out["trace.overhead_s"] = sum(out[f"trace.overhead.{c}_s"] for c in ("solve", "audit", "check"))
    return out


UNITS = {"setup_s": "s", "solve_s": "s", "audit_s": "s", "check_s": "s", "pipeline_s": "s", "pipeline_ref_s": "s",
         "peak_rss_mb": "MB", "candidate_sup": "1", "oracle_gap": "1", "failed_share": "1"}


def report(result, traced, spec):
    """Print every metric of one workload; return the metrics of the JSON line."""
    env, info = result["environment"], result["info"]
    print(f"== {result['workload']}: seed {env['seed']} (x-domain {env['x_domain']}), "
          f"{result['passes']} passes, run dir {result['run_dir']}")
    print(f"   cpu {env['cpu_model']!r}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, threads pinned to 1, load average "
          f"{env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}")
    for key, value in info.items():
        shown = "n/a (not run by this workload)" if value is None else f"{value!r} {UNITS[key]}"
        print(f"   {key} = {shown}")
    for msg in result["problems"]:
        print(f"   CHECK FAILED: {msg}")
    if not traced:
        return {m["name"]: {"value": info[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    shown = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
             for m in spec["per_layer"]}
    for key, metric in shown.items():
        print(f"   {key} = {metric['value']!r} {metric['unit']}")
    return shown


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_cli()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        results = [run_workload(cli, n, args.seed, seconds, bool(args.trace)) for n in names]
    except (SetupError, OSError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for res in results:
        shown = report(res, bool(args.trace), spec)
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in shown.items()})
    for shown in metrics.values():  # only a failed run has no finite value to show
        if not math.isfinite(shown["value"]):
            shown["value"] = None
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
