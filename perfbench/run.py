"""End-to-end and per-layer benchmark of the cartier CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady [--seconds S]
    python3 perfbench/run.py --selftest

Every measured invocation is one cold `cartier` command in a fresh child
process (perfbench/child.py), because that is what a user pays: the
period and lift caches of `cartier.harness` start empty each time.  One
child runs at a time, all started from this process.

A run first spawns set-up probes, which stop once `cartier.cli` is imported
and its parser built, then repeats the workload's command for about
--seconds and checks the exit code and stdout SHA-256 of every invocation
against perfbench/reference.json.  The seed picks the workload's case from
that file's pool.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json as medians over the run; with --trace 1 it adds two traced
invocations and reports the per-layer metrics.  The last line of stdout is
one JSON object; the exit code is 0 only if every invocation was correct.

Times are rescaled to a reference CPU speed (see SpeedClock): this process
and its children share one CPU, and while a child runs this process times
a fixed probe on that CPU every PROBE_PERIOD_S.

--steady runs the workloads interleaved, STEADY_ROUNDS times each with
seeds 0..STEADY_ROUNDS-1, each as its own `run.py` process, and prints the
median, quartiles and (Q3-Q1)/median of every end-to-end metric, over all
seeds and for each case of the pool alone.  --selftest is the negative
control of the output check: a corrupted stdout must count as a failed
invocation.
"""

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_PROBES = 32
STEADY_ROUNDS = 10
# the speed probe runs this often while a child runs, and takes
# PROBE_REF_S at the reference speed
PROBE_PERIOD_S = 0.02
PROBE_REF_S = 1.5e-4
# a run must end within 180 s; invocations are killed at this deadline
RUN_DEADLINE_S = 170.0
CHECK_TABLE_NOTE = (
    "order-dependent: the first check that touches a period or lift cache key pays for its build"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


_PROBE_FRACTIONS = [Fraction(i + 1, 2 * i + 3) for i in range(8)]
_PROBE_MODULUS = 7 ** 12


def _probe_once():
    """Fixed pure-Python work like the program's: Fraction products and a
    truncated product of integer lists."""
    fs = _PROBE_FRACTIONS
    acc = Fraction(0)
    for i in range(8):
        acc += fs[i] * fs[7 - i]
    m = _PROBE_MODULUS
    xs = [(i * 7919) % m for i in range(40)]
    out = [0] * 40
    for i in range(40):
        xi = xs[i]
        for j in range(40 - i):
            out[i + j] += xi * xs[j]
    return acc, [c % m for c in out]


def probe():
    """Seconds the probe takes now: the best of four, so that a probe cut
    by a context switch does not count."""
    best = float("inf")
    for _ in range(4):
        t = time.perf_counter()
        _probe_once()
        best = min(best, time.perf_counter() - t)
    return best


class SpeedClock:
    """Time since start on this CPU, rescaled to the reference speed.

    The shared host runs the same code up to 1.7x slower for stretches of
    a second to minutes, independently on each CPU.  Each `tick()` times
    the probe and counts the real time since the last tick at the speed
    the probe shows: `PROBE_REF_S / probe()` reference seconds per second.
    The probe's own time is left out of both clocks."""

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self.scaled_s = 0.0
        self.probe_s = 0.0

    def tick(self):
        now = time.perf_counter()
        k = probe()
        self.scaled_s += (now - self.last) * PROBE_REF_S / k
        self.last = time.perf_counter()
        self.probe_s += self.last - now
        return self.scaled_s

    def raw_s(self):
        return self.last - self.start - self.probe_s


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the probe
    measures the speed of the CPU the child runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def invoke(argv, mode, deadline):
    """Spawn one child; return exit code, stdout, wall and set-up time
    (rescaled, and as measured), peak RSS and, for a traced child, its
    span summary."""
    ready_r, ready_w = os.pipe()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    clock = SpeedClock()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(ready_w), mode, *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        pass_fds=(ready_w,),
        env=env,
        cwd=ROOT,
    )
    os.close(ready_w)
    out, side, setup, timed_out = [], [], None, False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout.fileno(), selectors.EVENT_READ, out)
        sel.register(ready_r, selectors.EVENT_READ, side)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            events = sel.select(timeout=min(PROBE_PERIOD_S, left))
            if not events:
                clock.tick()
                continue
            for key, _ in events:
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fd)
                    continue
                if key.data is side and setup is None:
                    setup = (clock.tick(), clock.raw_s())
                key.data.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    clock.tick()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    os.close(ready_r)
    side = b"".join(side)
    trace = json.loads(side[1:]) if mode.startswith("trace:") and len(side) > 1 else None
    return {
        "code": None if timed_out else proc.returncode,
        "stdout": b"".join(out),
        "wall_s": clock.scaled_s,
        "raw_wall_s": clock.raw_s(),
        "setup_s": setup and setup[0],
        "raw_setup_s": setup and setup[1],
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "trace": trace,
    }


def verdict(inv, ref):
    """None if the invocation matches its reference, else the reason."""
    if inv["code"] is None:
        return "timed out"
    if inv["code"] != ref["exit"]:
        return "exit code %d, expected %d" % (inv["code"], ref["exit"])
    digest = hashlib.sha256(inv["stdout"]).hexdigest()
    if digest != ref["sha256"]:
        return "stdout sha256 %s, expected %s" % (digest, ref["sha256"])
    return None


class Run:
    """Invocations of one case, with their failures counted."""

    def __init__(self, ref, deadline):
        self.ref = ref
        self.deadline = deadline
        self.attempted = 0
        self.failures = []

    def invoke(self, mode="run"):
        inv = invoke(self.ref["argv"], mode, self.deadline)
        self.record(inv)
        return inv

    def record(self, inv):
        self.attempted += 1
        reason = verdict(inv, self.ref)
        if reason is not None:
            self.failures.append(reason)
            sys.stderr.write("invocation failed: %s\n" % reason)

    def setup_probes(self, n):
        """n set-up probes, after one unmeasured warm-up probe that also
        compiles the bytecode cache of a fresh checkout."""
        probes = []
        for i in range(n + 1):
            inv = invoke([], "setup", self.deadline)
            if inv["code"] != 0 or inv["setup_s"] is None:
                raise BenchError("set-up probe failed: cartier.cli does not import from %s" % SRC)
            if i:
                probes.append(inv)
        return probes


def measure(run, seconds):
    """Repeat the case while the next invocation is expected to end within
    `seconds`; at least one."""
    start = time.perf_counter()
    invs = [run.invoke()]
    while time.perf_counter() - start + statistics.median(i["raw_wall_s"] for i in invs) <= seconds:
        invs.append(run.invoke())
    return invs


def traced_metrics(run, untraced, units):
    """Two traced invocations; per-layer metrics and whether every count
    repeated exactly.  Counts and the ratios of counts must repeat; times
    and the trace.* shares derived from them need not.

    The tracing overhead compares the rescaled wall time of the first
    traced invocation with that of the untraced one just before it."""
    invs = [run.invoke("trace:%s-%d" % (run.ref["name"], k)) for k in range(2)]
    if any(inv["trace"] is None for inv in invs):
        return None, False
    traces = [inv["trace"] for inv in invs]
    metrics, repeat = {}, True
    for name, unit in units.items():
        if name == "trace.overhead_frac":
            value = invs[0]["wall_s"] / untraced["wall_s"] - 1
        else:
            values = [t["metrics"][name] for t in traces]
            if unit != "s" and not name.startswith("trace."):
                if values[0] != values[1]:
                    sys.stderr.write("count %s did not repeat: %r\n" % (name, values))
                    repeat = False
                value = values[0]
            else:
                value = statistics.median(values)
        metrics[name] = value
    checks = [t["checks"] for t in traces]
    if checks[0] is not None:
        if [c[0] for c in checks[0]] != [c[0] for c in checks[1]]:
            repeat = False
        print("# per-check runtime of the first traced run, %d checks (%s)" % (len(checks[0]), CHECK_TABLE_NOTE))
        for check_id, runtime in checks[0]:
            print("check %s %.6f s" % (check_id, runtime))
    return metrics, repeat


def run_workload(bench, refs, workload, seed, seconds, trace):
    if not (SRC / "cartier" / "cli.py").is_file():
        raise BenchError("no cartier sources under %s" % SRC)
    if workload not in refs:
        raise BenchError("unknown workload %r" % workload)
    pool = refs[workload]
    ref = dict(pool[seed % len(pool)], name="%s-%d" % (workload, seed % len(pool)))
    run = Run(ref, time.perf_counter() + RUN_DEADLINE_S)
    print("# %s: cartier %s (seed %d -> case %s)" % (workload, " ".join(ref["argv"]), seed, ref["name"]))
    repeat = True
    if trace:
        # set-up time is not a per-layer metric: only the warm-up probe,
        # which keeps a traced hw run well within the deadline
        run.setup_probes(0)
        invs = measure(run, seconds)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics, repeat = traced_metrics(run, invs[-1], units)
        metrics = metrics or {}
    else:
        # probes before and after the invocations sample two stretches of time
        setups = run.setup_probes(SETUP_PROBES // 2)
        invs = measure(run, seconds)
        setups += run.setup_probes(SETUP_PROBES // 2)
        setups += [i for i in invs if i["setup_s"] is not None]
        metrics = {
            "wall_s": statistics.median(i["wall_s"] for i in invs),
            "setup_s": statistics.median(i["setup_s"] for i in setups),
            "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in invs),
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        print("# wall_s and peak_rss_mb: median of %d invocations; setup_s: median of %d; "
              "times rescaled to the reference speed (as measured: wall %s s, set-up median %.4f s)"
              % (len(invs), len(setups), " ".join("%.3f" % i["raw_wall_s"] for i in invs),
                 statistics.median(i["raw_setup_s"] for i in setups)))
    failed = len(run.failures)
    print("# error_frac %.6f (%d of %d invocations failed)" % (failed / run.attempted, failed, run.attempted))
    for name, value in metrics.items():
        print("%s %r %s" % (name, value, units[name]))
    correct = failed == 0 and repeat
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def steady(bench, refs, seconds):
    """Run every workload STEADY_ROUNDS times, interleaved, one process
    each.  The spread is reported over all seeds, as a driver of the
    benchmark sees it, and for each case of a workload's pool alone, where
    it is run-to-run noise only."""
    workloads = [w["name"] for w in bench["workloads"]]
    values = {}
    bad = 0
    for seed in range(STEADY_ROUNDS):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                bad += 1
                print("# round %d %s failed with exit code %d" % (seed, w, proc.returncode), flush=True)
                continue
            result = json.loads(lines[-1])
            groups = ["all"]
            if len(refs[w]) > 1:
                groups.append("case%d" % (seed % len(refs[w])))
            for group in groups:
                for name, m in result["metrics"].items():
                    values.setdefault((w, group), {}).setdefault(name, []).append(m["value"])
            print("# round %d %s %s" % (seed, w, json.dumps(result["metrics"])), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    print("%-8s %-6s %-12s %12s %12s %12s %8s %8s"
          % ("workload", "seeds", "metric", "median", "q1", "q3", "iqr/med", "bound/3"))
    for (w, group), metrics in values.items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary.setdefault(w, {}).setdefault(group, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals),
            }
            print("%-8s %-6s %-12s %12.6g %12.6g %12.6g %8.4f %8.4f"
                  % (w, group, name, med, q1, q3, spread, bounds[name] / 3))
    print(json.dumps({"rounds": STEADY_ROUNDS, "seconds": seconds, "failed_runs": bad, "workloads": summary}))
    return 0 if bad == 0 else 1


def selftest(refs):
    """Negative control: a real smoke invocation passes the output check,
    the same stdout with one byte flipped, or a wrong exit code, fails it."""
    ref = dict(refs["smoke"][0], name="smoke")
    run = Run(ref, time.perf_counter() + RUN_DEADLINE_S)
    good = run.invoke()
    corrupted = dict(good, stdout=bytes([good["stdout"][0] ^ 1]) + good["stdout"][1:])
    run.record(corrupted)
    run.record(dict(good, code=ref["exit"] + 1))
    run.record(dict(good, code=None))
    ok = len(run.failures) == 3 and verdict(good, ref) is None
    print("selftest: %d of %d invocations counted as failed, expected 3 (%s)"
          % (len(run.failures), run.attempted, "; ".join(run.failures)))
    print("selftest %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        refs = load_json(HERE / "reference.json")
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        if args.selftest:
            return selftest(refs)
        if args.steady:
            return steady(bench, refs, seconds)
        if not args.workload:
            ap.error("--workload, --steady or --selftest is required")
        pin_to_one_cpu()
        return run_workload(bench, refs, args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
