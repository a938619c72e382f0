"""End-to-end benchmark of the repro library, with a traced per-layer run.

Run from anywhere (paths are taken relative to this file's checkout)::

    python3 perfbench/run.py --workload conversion --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (closed loops, one caller each; see ``workloads.py``):

* ``conversion`` - fresh gnp-connected host (n=150, p=0.5), a theorem21
  build (k=3, vertex r=2), then a one-trial sampled verify;
* ``lp`` - fresh gnp-digraph host (n=26, p=0.25), an ft2-approx build
  (r=1; cutting planes on HiGHS, then rounding), then a lemma31 verify;
* ``serve`` - a SpannerService on barabasi-albert (n=10^4, m=5, r=1)
  replaying a seeded 90/10 read/write stream, one ``apply`` per op;
* ``sweep`` - run_sweep(workers=2) of an 8-build theorem21 grid, then
  the envelopes loaded and merged again.

Every workload runs in its own child process; two more children only
set up, so ``setup_s`` is the median of three set-ups. After each child
the runner lists its descendants in ``/proc`` and fails if any is still
alive. The compiled kernels and temporary files live under
``.perfbench_cache/`` in the checkout; the kernels and the library's
bytecode are brought up to date before the first child starts, so
``setup_s`` never mixes a cold compile with a cached load.

Gated durations and rates are reported at a reference machine speed.
Between units (and once after set-up) a child pauses and asks this
process, which never imports the library, to time a fixed probe
(:func:`speed_probe`); each unit is rescaled by the readings around it
(``SpeedProbe`` in workloads.py). Raw values are printed next to them,
and the line before the last one is a JSON object of the raw gated
values.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` - the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. The lines above it print every
metric by name and unit, and the provenance of the result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from ledger_stats import failed_frac
from workloads import PER_LAYER_UNITS, REFERENCE_PROBE_MS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
WORKLOAD_NAMES = ("conversion", "lp", "serve", "sweep")
SETUP_SAMPLES = 3
#: Whole-command limit for one workload, after the one-off warm step.
DEADLINE_S = 170.0
PR_SET_CHILD_SUBREAPER = 36
#: A traced unit's layer self times must add up to this share of its wall.
MIN_COVERAGE_PCT = 90.0

#: Probe timings after a set-up; the reading for a set-up is their median.
SETUP_PROBES = 9

#: Gated end-to-end metrics and units. ``primary`` is the workload's main
#: call (build, QUERY_DIST, run_sweep); every workload reports all five.
E2E_KEYS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "spanner_edges": "count",
    "primary_p50_ms": "ms",
}


class BenchError(Exception):
    """A run that must end without a result."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants, so a leaked grandchild stays visible."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still checked


def _process_table() -> Dict[int, tuple]:
    """pid -> (ppid, state) for every process in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def live_descendants(pid: int) -> List[int]:
    """Descendants of ``pid`` that are not zombies."""
    table = _process_table()
    children: Dict[int, List[int]] = {}
    for child, (parent, _state) in table.items():
        children.setdefault(parent, []).append(child)
    found, stack = [], list(children.get(pid, []))
    while stack:
        child = stack.pop()
        if table[child][1] != "Z":
            found.append(child)
        stack.extend(children.get(child, []))
    return found


def reap_zombies() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def assert_no_leftovers(label: str) -> None:
    """Fail when anything started for ``label`` outlived it; kill it first."""
    reap_zombies()
    left = live_descendants(os.getpid())
    if not left:
        return
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10
    while live_descendants(os.getpid()) and time.monotonic() < deadline:
        reap_zombies()
        time.sleep(0.05)
    reap_zombies()
    raise BenchError(f"{label} left processes running: {sorted(left)} (killed)")


_PROBE_VALUES = None


def speed_probe() -> float:
    """Milliseconds for a fixed numpy sort and scan plus a pure-Python
    dict loop; no repro code.

    Timed between units on a 2-vCPU virtual machine, the numpy half
    followed the slow and fast phases of the compiled and HiGHS-bound
    units best, the dict half those of interpreted ones (serve's
    queries); the sum is the compromise one probe can make for all four.
    """
    global _PROBE_VALUES
    import numpy as np

    if _PROBE_VALUES is None:
        _PROBE_VALUES = np.random.default_rng(3).random(200_000)
    started = time.perf_counter()
    np.argsort(_PROBE_VALUES)
    np.cumsum(_PROBE_VALUES)
    table: Dict[int, int] = {}
    for i in range(20_000):
        table[i * 7 % 1009] = table.get(i * 3 % 1009, 0) + i
    return 1000.0 * (time.perf_counter() - started)


class ProbeServer(threading.Thread):
    """Times :func:`speed_probe` whenever the child asks, while it waits.

    The child writes one byte on a pipe (``s`` after its set-up, ``u``
    between units) and blocks until this thread answers with the reading
    in milliseconds, as 8 bytes. The probe runs on the CPU the child last
    ran on: the two vCPUs of the machine it was tuned on were not always
    equally fast, and a probe on the other one tracked the units worse.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.request_r, self.request_w = os.pipe()
        self.answer_r, self.answer_w = os.pipe()
        self.child_pid: Optional[int] = None

    def child_fds(self) -> tuple:
        return (self.request_w, self.answer_r)

    def started_child(self, pid: Optional[int]) -> None:
        """Drop this process's copies of the child's ends, so EOF ends the thread."""
        self.child_pid = pid
        os.close(self.request_w)
        os.close(self.answer_r)
        self.start()

    def _follow_child(self) -> None:
        """Move this thread onto the CPU the (now waiting) child last ran on."""
        try:
            with open(f"/proc/{self.child_pid}/stat", encoding="utf-8") as handle:
                cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
            os.sched_setaffinity(0, {cpu})  # 0: this thread only
        except (OSError, IndexError, ValueError, AttributeError):
            pass  # not Linux: probe wherever the thread runs

    def run(self) -> None:
        try:
            while True:
                kind = os.read(self.request_r, 1)
                if not kind:
                    return
                self._follow_child()
                if kind == b"s":
                    reading = statistics.median(speed_probe() for _ in range(SETUP_PROBES))
                else:
                    reading = speed_probe()
                os.write(self.answer_w, struct.pack("d", reading))
        except OSError:
            return  # the child is gone
        finally:
            os.close(self.request_r)
            os.close(self.answer_w)


def run_child(args: List[str], env: dict, timeout: float, label: str) -> dict:
    """Run one child to completion and parse the JSON on its last stdout line."""
    probes = ProbeServer()
    fds = probes.child_fds()
    proc = None
    try:
        proc = subprocess.Popen(
            [sys.executable, *args, "--t0", repr(time.monotonic()),
             "--probe-fds", ",".join(map(str, fds))],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            start_new_session=True,
            pass_fds=fds,
        )
    finally:
        probes.started_child(proc.pid if proc else None)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        assert_no_leftovers(label)
        raise BenchError(f"{label} did not finish within {timeout:.0f} s")
    assert_no_leftovers(label)
    probes.join(timeout=10)
    if proc.returncode != 0:
        raise BenchError(f"{label} exited with code {proc.returncode}")
    lines = out.decode("utf-8", errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{label} printed no JSON result") from None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC  # exactly this checkout's library
    env["REPRO_COMPILED_CACHE"] = os.path.join(CACHE, "compiled")
    env["TMPDIR"] = os.path.join(CACHE, "tmp")
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest() -> str:
    """Content hash of ``src/`` (the checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__" and not d.startswith("_build"))
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout: source_digest identifies it
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def warm(env: dict) -> None:
    """Bring the bytecode and the cached C kernels up to date.

    Both caches are incremental (``compileall`` skips current ``.pyc``
    files, the kernels are cached by source hash), so a warm checkout
    costs about a second here.
    """
    code = (
        "import compileall, sys\n"
        "ok = compileall.compile_dir(sys.argv[1], quiet=1)"
        " and compileall.compile_dir(sys.argv[2], quiet=1)\n"
        "from repro.compiled import compiled_available\n"
        "compiled_available()\n"
        "sys.exit(0 if ok else 1)\n"
    )
    try:
        proc = subprocess.run([sys.executable, "-c", code, SRC, HERE], cwd=ROOT, env=env,
                              timeout=800)
    except subprocess.TimeoutExpired:
        raise BenchError("warming the bytecode and compiled kernels timed out") from None
    finally:
        assert_no_leftovers("warm-up")
    if proc.returncode != 0:
        raise BenchError("warming the bytecode and compiled kernels failed")


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """Set-up-only children, then the measured child."""
    scratch = os.path.join(CACHE, "tmp", f"{name}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    base = [os.path.join(HERE, "workloads.py"), "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace), "--scratch", scratch]
    try:
        setups = []
        for sample in range(SETUP_SAMPLES - 1):
            setups.append(run_child(base + ["--mode", "setup"], env,
                                    deadline - time.monotonic(), f"{name} set-up {sample + 1}"))
        result = run_child(base + ["--mode", "run"], env, deadline - time.monotonic(), name)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["setup_samples"] = setups + [result]
    return result


def end_to_end(result: dict, raw: bool = False) -> Dict[str, float]:
    """The gated metrics; durations and rates at reference machine speed,
    or as measured with ``raw``."""
    view = result["raw" if raw else "ref"]
    setup_key = "setup_s" if raw else "setup_s_ref"
    return {
        "setup_s": statistics.median(doc[setup_key] for doc in result["setup_samples"]),
        "throughput_per_s": view["throughput_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "spanner_edges": result["spanner_edges"],
        "primary_p50_ms": view["primary"]["p50"],
    }


def _timing_rows(label: str, result: dict, kind: str, scale: float, unit: str, with_tail: bool):
    raw, ref = result["raw"][kind], result["ref"][kind]
    rows = [(f"{label}_p50_{unit}", raw["p50"] * scale, ref["p50"] * scale, unit,
             f"n={raw['count']}")]
    if with_tail:
        if raw["tail"] is None:
            rows.append((f"{label}_tail_{unit}", None, None, unit,
                         f"needs > 10 samples, have {raw['count']}"))
        else:
            t = raw["tail"]
            rows.append((f"{label}_tail_{unit}", t["value"] * scale,
                         ref["tail"]["value"] * scale, unit,
                         f"p{t['percentile']:.1f}: rank {t['rank']} of {t['count']}"))
    return rows


def print_report(name: str, seed: int, seconds: float, trace: int, result: dict) -> None:
    """Every metric by the name the workload knows it by, with its unit.

    Timings show the raw value and the value at reference speed; the
    JSON line carries the latter.
    """
    primary, secondary = result["labels"]
    gated, measured = end_to_end(result), end_to_end(result, raw=True)
    setups = ", ".join(f"{doc['setup_s']:.4f}" for doc in result["setup_samples"])
    rows = [
        ("setup_s", measured["setup_s"], gated["setup_s"], "s", f"median of {setups}"),
        ("throughput_per_s", measured["throughput_per_s"], gated["throughput_per_s"], "1/s",
         "closed loop, 1 caller"),
        ("failed_frac", failed_frac(result["attempted"], result["failed"]), None, "share",
         f"{result['failed']} of {result['attempted']} units {result['failure_reasons'] or ''}"),
        ("peak_rss_mb", result["peak_rss_mb"], None, "MB", ""),
        ("spanner_edges", result["spanner_edges"], None, "count", "fixed outputs, see workloads.py"),
    ]
    if name == "sweep":
        rows += _timing_rows(primary, result, "primary", 0.001, "s", False)
    else:
        rows += _timing_rows(primary, result, "primary", 1.0, "ms", True)
        rows += _timing_rows(secondary, result, "secondary", 1.0, "ms", name == "serve")
    mode = "untraced half + traced half" if trace else "untraced"
    print(f"== {name}  seed={seed}  seconds={seconds:g}  {mode}")
    print(f"  speed probe {result['probe_ms']:.3f} ms (median of {result['probe_count']} "
          f"between units; reference {REFERENCE_PROBE_MS} ms); columns: raw, at reference speed")
    for label, raw, ref, unit, note in rows:
        raw_text = "n/a" if raw is None else f"{raw:.4f}"
        ref_text = "" if ref is None else f"{ref:.4f}"
        print(f"  {label:<18} {raw_text:>12} {ref_text:>12} {unit:<6} {note}")
    if trace:
        print("  per-layer (traced half, raw):")
        for key, value in sorted(result["layers"].items()):
            print(f"    {key:<32} {value:.6g} {PER_LAYER_UNITS.get(key, '')}")
    print("  provenance " + json.dumps(result["provenance"], sort_keys=True))


def check_trace(name: str, missing: List[str], layers: Dict[str, float]) -> None:
    """Fail a traced run whose wrappers missed a layer or left time unexplained."""
    if missing:
        raise BenchError(
            f"{name}: traced run never entered {missing}; a wrapper sits on a stale binding"
        )
    if layers["trace.coverage_min_pct"] < MIN_COVERAGE_PCT:
        raise BenchError(
            f"{name}: layer self times explain only {layers['trace.coverage_min_pct']:.1f}% "
            f"of some unit's wall time (need {MIN_COVERAGE_PCT}%)"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no library at {SRC}/repro; run from a full checkout", file=sys.stderr)
        return 2
    become_subreaper()
    for sub in ("compiled", "tmp"):
        os.makedirs(os.path.join(CACHE, sub), exist_ok=True)
    env = child_env()
    digest = source_digest()
    try:
        warm(env)
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, env)
            result["provenance"].update(commit=git_commit(), source_digest=digest)
            if args.trace:
                check_trace(name, result["missing_spans"], result["layers"])
            print_report(name, args.seed, args.seconds, args.trace, result)
            if not args.trace:
                print(json.dumps({"raw_metrics": end_to_end(result, raw=True),
                                  "probe_ms": result["probe_ms"]}))
            metrics = result["layers"] if args.trace else end_to_end(result)
            units = PER_LAYER_UNITS if args.trace else E2E_KEYS
            print(json.dumps({
                "correct": result["failed"] == 0 and result["valid_at_end"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }))
            sys.stdout.flush()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
