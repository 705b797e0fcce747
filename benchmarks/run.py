"""quasispin benchmark: one workload, fresh interpreter per sample.

    python3 benchmarks/run.py --workload identities --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  One closed-loop client: each sample
spawns one child interpreter (benchmarks/child.py), waits for it, and
only then starts the next, so at most one child runs at a time.  A fresh
process per sample matters because the module-level memos of ``uea``
(``_normal_cache``, ``_pf_cache``, ``_bracket_cache``) and
``Irrep._pf_cache`` persist within a process; a second in-process repeat
would time a warm cache that no CLI user sees.

``--trace 0`` reports the end-to-end metrics as medians over the samples
of one run.  ``wall_s`` and ``cpu_s`` are scaled to a reference speed
(see ``SpeedProbe`` in child.py and ``to_reference_speed``): on a shared
host the vCPU speed can swing by 2x over minutes, and as measured they
would move with it.  The measured wall time and the host slowdown are
printed beside them and reported by the traced run.  ``--trace 1`` runs
one traced sample (wrappers from tracer.py) followed by untraced samples,
and reports the per-layer metrics, the per-command wall times of the
untraced samples and the tracing overhead.  The last line of stdout is one JSON object; spans and
the outputs behind a digest mismatch go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fnmatch import fnmatchcase

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("identities", "fock_shell", "classify_corpus")
SETUP_CHILDREN = 10  # import-only children per run, for setup_s
HARD_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says

# Per-command wall times reported by the traced run: metric -> pattern of
# the command labels it sums.  The ROADMAP Baseline rows are
# verify_identities, fock_build, repr_analyze and classify_-1,-2.
COMMAND_METRICS = {
    "cmd.verify_identities_s": "verify_identities",
    "cmd.o7_spot_s": "o7_spot",
    "cmd.fock_build_s": "fock_build",
    "cmd.repr_analyze_s": "repr_analyze",
    "cmd.classify_s": "classify_*",
    "cmd.classify_m1_m2_s": "classify_-1,-2",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a child died)."""


def spawn_child(args, deadline):
    """Run child.py to completion; returns (spawn time, result dict)."""
    workdir = tempfile.mkdtemp(dir=OUT)
    result_path = os.path.join(workdir, "result.json")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, CHILD, "--workdir", workdir,
           "--result", result_path, *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as ex:
        proc.kill()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        if isinstance(ex, subprocess.TimeoutExpired):
            raise BenchError(f"child {args} overran the {HARD_LIMIT_S} s "
                             "limit") from ex
        raise
    try:
        if code != 0:
            raise BenchError(f"child {args} exited with code {code}")
        with open(result_path) as fh:
            result = json.load(fh)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    result["_workdir"] = workdir
    return t_spawn, result


def to_reference_speed(res, t_spawn):
    """Scale the command phase of a sample (first command to verdict) to
    the reference speed of child.SpeedProbe, leaving out the probes' own
    time; set-up is left as measured.  Adds wall_s, cpu_s, setup_s and
    raw_wall_s (spawn to verdict, as measured) and rescales command_s."""
    k, probe_s = res["scale"], res["probe_s"]
    res["raw_wall_s"] = res["verdict"] - t_spawn
    res["setup_s"] = res["ready"] - t_spawn
    res["wall_s"] = (res["start"] - t_spawn
                     + (res["verdict"] - res["start"] - probe_s) * k)
    res["cpu_s"] = (res["cpu_start"]
                    + (res["cpu_s"] - res["cpu_start"] - probe_s) * k)
    res["command_s"] = {label: (t - res["command_probe_s"][label]) * k
                        for label, t in res["command_s"].items()}


def _keep(result, name, dest):
    src = os.path.join(result["_workdir"], name)
    if os.path.exists(src):
        shutil.copyfile(src, dest)


def _median(values):
    return statistics.median(values) if values else 0.0


def check_checkout():
    if sys.flags.optimize:
        raise BenchError("refusing to run with assertions stripped (-O)")
    init = os.path.join(ROOT, "src", "quasispin", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no quasispin sources at {os.path.dirname(init)}")
    os.makedirs(OUT, exist_ok=True)


def run(workload, seed, seconds, trace):
    check_checkout()
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)["digests"][workload]
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    setups = []
    for _ in range(SETUP_CHILDREN):
        t_spawn, res = spawn_child(["--setup-only"], deadline)
        shutil.rmtree(res["_workdir"], ignore_errors=True)
        setups.append((res["ready"] - t_spawn) * res["scale"])

    base = ["--workload", workload, "--seed", str(seed)]
    samples, traced = [], None
    attempted = failed = 0
    window = time.monotonic()
    longest = 0.0
    while True:
        tracing = trace and traced is None
        t0 = time.monotonic()
        t_spawn, res = spawn_child(base + ["--trace", str(int(tracing))],
                                   deadline)
        longest = max(longest, time.monotonic() - t0)
        to_reference_speed(res, t_spawn)
        attempted += res["attempted"] + 1  # +1: the digest comparison
        failed += res["failed"]
        if res["digest"] != expected:
            failed += 1
            _keep(res, "outputs.json",
                  os.path.join(OUT, f"{workload}-outputs-mismatch.json"))
            print(f"digest mismatch on {workload}: {res['digest']}",
                  file=sys.stderr)
        print(f"sample {len(samples) + (traced is not None)}: "
              f"{'traced ' if tracing else ''}wall {res['wall_s']:.3f} s "
              f"(measured {res['raw_wall_s']:.3f} s, host slowdown "
              f"{1 / res['scale']:.3f} over {res['probes']} probes), "
              f"cpu {res['cpu_s']:.3f} s, setup {res['setup_s']:.3f} s",
              file=sys.stderr)
        if tracing:
            traced = res
            _keep(res, "spans.json",
                  os.path.join(OUT, f"spans-{workload}-{seed}.json"))
        else:
            samples.append(res)
        shutil.rmtree(res["_workdir"], ignore_errors=True)
        # stop before a sample that would likely end past the window
        now = time.monotonic()
        if samples and (now + longest > window + seconds
                        or now + longest > deadline):
            break

    correct = failed == 0
    n = len(samples)
    if not trace:
        metrics = {
            "wall_s": (_median([s["wall_s"] for s in samples]), "s"),
            "cpu_s": (_median([s["cpu_s"] for s in samples]), "s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (_median([s["peak_rss_mb"] for s in samples]),
                            "MB"),
            "pass_frac": ((attempted - failed) / attempted, "ratio"),
        }
        counts = {"wall_s": n, "cpu_s": n, "setup_s": len(setups),
                  "peak_rss_mb": n, "pass_frac": n}
    else:
        metrics, counts, ok = layer_metrics(traced, samples, attempted,
                                            failed)
        correct = correct and ok
    for name, (value, unit) in metrics.items():
        print(f"{workload:16s} {name:32s} {value:>16.6f} {unit:6s} "
              f"(n={counts.get(name, 1)})")
    print(f"{workload:16s} {'(measured wall, not scaled)':32s} "
          f"{_median([s['raw_wall_s'] for s in samples]):>16.6f} s      "
          f"(n={n})")
    print(f"{workload:16s} {'(host slowdown)':32s} "
          f"{_median([1 / s['scale'] for s in samples]):>16.6f} ratio  "
          f"(n={n})")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


def layer_metrics(traced, samples, attempted, failed):
    """Per-layer metrics of the traced sample, plus per-command times and
    the tracing overhead measured against the untraced samples."""
    from tracer import unit_of
    layers = traced["layers"]
    metrics = {k: (layers[k], unit_of(k)) for k in sorted(layers)}
    untraced_wall = _median([s["wall_s"] for s in samples])
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    metrics["host.raw_wall_s"] = (
        _median([s["raw_wall_s"] for s in samples]), "s")
    metrics["host.slowdown"] = (
        _median([1 / s["scale"] for s in samples]), "ratio")
    for name, pattern in COMMAND_METRICS.items():
        metrics[name] = (_median([
            sum((t for label, t in s["command_s"].items()
                 if fnmatchcase(label, pattern)), 0.0)
            for s in samples]), "s")
    metrics["fail_frac"] = (failed / attempted, "ratio")
    counts = {k: len(samples) for k in metrics if k.startswith("cmd.")}
    ok = True
    if traced["self_s_sum"] > traced["raw_wall_s"]:
        print(f"self times sum to {traced['self_s_sum']} s, more than the "
              f"traced wall time {traced['raw_wall_s']} s", file=sys.stderr)
        ok = False
    if traced["missing_targets"]:
        print(f"trace targets not found: {traced['missing_targets']}",
              file=sys.stderr)
    return metrics, counts, ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, KeyError, ValueError) as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
