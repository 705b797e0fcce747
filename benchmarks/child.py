"""One sample of one workload, in a fresh interpreter.

Started by run.py, one child at a time.  It imports quasispin from the
checkout's ``src``, writes the moment it became ready, runs the workload's
commands under the speed probe, takes the verdict time and resource usage,
and only then canonicalises the outputs and hashes them, so parsing is
never timed.  The result is one JSON file at ``--result``.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import quasispin.cli  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

# On a host shared with other tenants the child's vCPU can run at half speed
# for seconds and drift over minutes, and its CPU time swings with it.  The
# probe measures that speed at the moment and on the vCPU the workload runs
# on: every PROBE_PERIOD_S of wall time a SIGALRM handler, which runs in the
# main thread between bytecodes, times one fixed piece of pure-Python work.
# REF_PROBE_S is what that work takes at the reference speed; run.py scales
# the commands' time by the mean of REF_PROBE_S / duration over the probes
# of the sample.
PROBE_PERIOD_S = 0.05
REF_PROBE_S = 0.0004
SETUP_PROBES = 100
_PROBE_DATA = [Fraction(i + 1, 2 * i + 3) for i in range(24)]


def _probe_work():
    """Fraction products summed into a dict: the program's own mix of
    rational arithmetic, allocation and hashing, about 0.4 ms of it."""
    acc = {}
    for i, a in enumerate(_PROBE_DATA):
        for b in _PROBE_DATA[i::6]:
            k = i * 7 % 11
            acc[k] = acc.get(k, 0) + a * b
    return acc


def _timed_probe():
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def reference_scale(durations):
    """Mean of REF_PROBE_S / duration: time x scale is time at the
    reference speed, whatever mix of speeds the probes sampled."""
    return statistics.fmean(REF_PROBE_S / d for d in durations)


class SpeedProbe:
    """Durations of the probe work, timed from a SIGALRM interval timer."""

    def __init__(self):
        self.durations = []

    def _fire(self, signum, frame):
        self.durations.append(_timed_probe())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir")
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    result = {"ready": READY}
    if args.setup_only:
        # Set-up is over before a timer could sample it, so the speed it
        # ran at is taken from probes run back to back right after it.
        result["scale"] = reference_scale(
            [_timed_probe() for _ in range(SETUP_PROBES)])
        _write(args.result, result)
        return 0
    # Verdict paths rely on assert (report.Check, uea.omega_image); under
    # -O they vanish and the timing would be of a weaker program.
    if sys.flags.optimize:
        print("refusing to run with assertions stripped (-O)",
              file=sys.stderr)
        return 3

    import workloads
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    raws, command_s, command_probe_s = {}, {}, {}
    cmds = workloads.commands(args.workload, args.seed, args.workdir)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_start = usage.ru_utime + usage.ru_stime
    start = time.monotonic()
    with SpeedProbe() as probe:
        for label, thunk in cmds:
            t0, n0 = time.monotonic(), len(probe.durations)
            try:
                raws[label] = (tracer.command(label, thunk) if tracer
                               else thunk())
            except (Exception, SystemExit):
                traceback.print_exc()
                raws[label] = None
            command_s[label] = time.monotonic() - t0
            command_probe_s[label] = sum(probe.durations[n0:])
        verdict = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    records, attempted, failed, crashed = {}, 0, 0, []
    for label, raw in raws.items():
        if raw is None:
            crashed.append(label)
            continue
        try:
            record, checks = workloads.canonical(label, raw, args.workdir)
        except (OSError, ValueError, KeyError):
            traceback.print_exc()
            crashed.append(label)
            continue
        records[label] = record
        attempted += len(checks)
        failed += sum(1 for c in checks if c[1] in ("fail", False))
        failed += 1 if record.get("exit", 0) != 0 else 0
    result.update({
        "start": start,
        "verdict": verdict,
        "cpu_start": cpu_start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "probe_s": sum(probe.durations),
        "probes": len(probe.durations),
        "scale": reference_scale(probe.durations),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "command_s": command_s,
        "command_probe_s": command_probe_s,
        "attempted": attempted + len(crashed),
        "failed": failed + len(crashed),
        "digest": workloads.digest(records),
    })
    if tracer is not None:
        from quasispin import uea
        memo = getattr(uea, "_normal_cache", {})
        result["layers"] = tracer.metrics(len(memo))
        result["self_s_sum"] = sum(tracer.self_times().values())
        result["missing_targets"] = tracer.missing
        tracer.dump(os.path.join(args.workdir, "spans.json"))
    with open(os.path.join(args.workdir, "outputs.json"), "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    _write(args.result, result)
    return 0


def _write(path, result):
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
