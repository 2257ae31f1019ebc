"""Measurement plumbing: percentiles, process-tree accounting, the
``pvi-serve`` subprocess and the stamp every result file carries."""

from __future__ import annotations

import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"



def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in 0..1)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


# -- process accounting (Linux /proc) ----------------------------------------

def _stat_fields(pid: int) -> List[str]:
    # the command name (field 2) may itself contain spaces or ')'
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2:].split()


def session_pids(session: int) -> List[int]:
    """Every live (not zombie) process of one session — the server
    started with ``start_new_session=True`` plus all its pool workers,
    however they were re-parented."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
            if int(fields[3]) == session and fields[0] != "Z":
                pids.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue                    # exited while we looked
    return pids


def cpu_seconds(pids: Sequence[int]) -> float:
    """Time the threads of ``pids`` have spent on a CPU, user and
    system, from ``/proc/<pid>/task/<tid>/schedstat`` (nanoseconds;
    ``stat`` counts in 10 ms ticks, too coarse for a per-operation
    figure and apt to read the same on every run)."""
    total_ns = 0
    for pid in pids:
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                total_ns += int(Path(
                    f"/proc/{pid}/task/{task}/schedstat")
                    .read_text().split()[0])
        except OSError:
            continue                    # exited while we looked
    return total_ns / 1e9


def peak_rss_mib(pids: Sequence[int]) -> float:
    """Sum of the processes' resident-set high-water marks: an upper
    bound of the tree's simultaneous peak that needs no sampler."""
    total_kib = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text() \
                    .splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


# -- the server under test ---------------------------------------------------

class ServerProcess:
    """``python -m repro.service.edge.server --port 0 --tenants ...``
    with every other flag at its default, in its own process group.

    Stopped with SIGINT (the server's own shutdown path: the event
    loop unwinds, the deployment pool joins its workers); the whole
    group is then reaped, so no pool worker outlives the run.  SIGTERM
    is not used: it kills the server without unwinding and leaves the
    pool workers orphaned, holding the stdout pipe.
    """

    def __init__(self) -> None:
        # -W: runpy warns that the package imported the module first
        self.command = [sys.executable, "-W", "ignore::RuntimeWarning",
                        "-m", "repro.service.edge.server",
                        "--port", "0", "--tenants",
                        str(HERE / "tenants.json")]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.process = subprocess.Popen(
            self.command, stdout=subprocess.PIPE, env=env,
            cwd=str(REPO), start_new_session=True, text=True)
        banner = self.process.stdout.readline()
        if "http://" not in banner:
            self.stop()
            raise RuntimeError(f"pvi-serve did not start: {banner!r}")
        self.port = int(banner.split("http://")[1].split()[0]
                        .rsplit(":", 1)[1])

    @property
    def pids(self) -> List[int]:
        return session_pids(self.process.pid)

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)   # any straggler
        except ProcessLookupError:
            pass
        process.wait()
        deadline = time.monotonic() + 5
        while session_pids(process.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        process.stdout.close()


# -- stamps ------------------------------------------------------------------

def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(REPO),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(seed: int, scrubbed: List[str]) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "scrubbed_env": scrubbed,
    }


# -- what a run produces -----------------------------------------------------

def median_setup(build, repeats: int):
    """Run the program's set-up ``repeats`` times; returns (the last
    state built, the median wall of one set-up).  Earlier states are
    closed when they have a ``close``."""
    walls, state = [], None
    for _ in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
        start = time.perf_counter()
        state = build()
        walls.append(time.perf_counter() - start)
    return state, statistics.median(walls)


def time_cap(seconds: float) -> float:
    """Longest a measured phase may last: a run waits for the cycle
    under way to complete, but not through a stall of the machine."""
    return 3 * seconds + 30


def best_by_kind(samples: Iterable[Tuple[object, float]]) \
        -> Dict[object, float]:
    """The least value seen for each kind of operation — the
    estimator of the single-threaded workloads.

    This sandbox's timing noise is one-sided: co-tenant bursts slow
    identical work by a third or more for seconds — at times for most
    of a run — and nothing ever speeds it up.  So, as ``timeit`` does,
    a run keeps for each kind of operation (each census entry) the
    best of its repetitions: the floor needs one quiet moment per
    kind, where a mean or a median over the run reports how busy the
    neighbours were."""
    best: Dict[object, float] = {}
    for kind, value in samples:
        if value < best.get(kind, float("inf")):
            best[kind] = value
    return best


def better_quartile(values: Sequence[float], better: str) -> float:
    """The quartile of per-segment ``values`` on the good side — the
    estimator of the concurrent (edge) workloads, where a request's
    latency depends on what the other connection is doing and the
    best latencies of single requests are not reachable together, so
    only whole segments of the closed loop can be compared.  Same
    reasoning as :func:`best_by_kind`; a quartile rather than the
    best because segments are few and the server ages within a run."""
    ordered = sorted(values, reverse=(better == "higher"))
    return ordered[len(ordered) // 4]


@dataclass
class Measured:
    """One untraced run of one workload."""
    setup_s: float
    attempted: int
    failed: int
    throughput_ops_s: float
    latency_p50_ms: float
    cpu_ms_per_op: float
    peak_rss_mib: float
    #: cycles / jit_work / code_bytes / offline_work over one census
    modeled: Dict[str, int]
    info: Dict[str, object] = field(default_factory=dict)

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """name -> (value, unit) of every end-to-end metric."""
        return {
            "setup_s": (self.setup_s, "s"),
            "throughput_ops_s": (self.throughput_ops_s, "ops/s"),
            "latency_p50_ms": (self.latency_p50_ms, "ms"),
            "cpu_ms_per_op": (self.cpu_ms_per_op, "ms"),
            "peak_rss_mb": (self.peak_rss_mib, "MiB"),
            "modeled_cycles": (self.modeled["cycles"], "cycles"),
            "modeled_jit_work": (self.modeled["jit_work"], "count"),
            "modeled_code_bytes": (self.modeled["code_bytes"], "bytes"),
            "modeled_offline_work": (self.modeled["offline_work"],
                                     "count"),
        }
