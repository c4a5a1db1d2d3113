"""Shared plumbing: locating the program, host facts, statistics, results.

Nothing here imports ``repro``: :func:`import_program` is the single place
that puts the checkout's ``src/`` on ``sys.path``, so a directory without the
program fails loudly instead of picking up some other installed copy.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

#: The checkout root: ``perfbench/pbench/common.py`` -> two levels up.
ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
RUN_SCRIPT = ROOT / "perfbench" / "run.py"
#: Scratch space inside the checkout (git-ignored): temp dirs, span dumps.
OUT_DIR = ROOT / "perfbench" / "out"

#: Concurrency cap of every workload: threads, worker processes, connections.
NPROC = os.cpu_count() or 1


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def import_program():
    """Import ``repro`` from this checkout's ``src/`` (and nowhere else)."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no program sources at {SRC}: expected src/repro/__init__.py")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve() != package.resolve():
        raise ProgramMissing(f"imported repro from {repro.__file__}, not from {SRC}")
    return repro


def program_env() -> Dict[str, str]:
    """Environment for child interpreters that must import this checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def scratch_dir(name: str) -> pathlib.Path:
    """A fresh, empty directory under :data:`OUT_DIR`."""
    path = OUT_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


# ---------------------------------------------------------------------------
# Host facts
# ---------------------------------------------------------------------------


def _burn(iterations: int) -> int:
    """A pure-Python CPU burn (no I/O, no native code): integers, small tuples, dict updates, reprs.

    It exercises the same interpreter machinery the program's hot loops do,
    so it slows down with the program when the host does.
    """
    table: Dict[tuple, int] = {}
    total = 0
    for value in range(iterations):
        key = (value & 255, (value >> 8) & 7)  # at most 2048 keys: the burn stays small in memory
        table[key] = table.get(key, 0) + 1
        total += len(repr(key))
    return total


#: A child interpreter that runs one burn when told to: it prints a line once
#: it is up, burns after reading a line from stdin, and prints again when done.
_BURN_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); from pbench.common import _burn; "
    "print(flush=True); sys.stdin.readline(); _burn(int(sys.argv[2])); print(flush=True)"
)


def parallel_scaling(workers: int = NPROC, iterations: int = 250_000) -> float:
    """Measured speedup of ``workers`` concurrent burns over one burn.

    ``workers`` identical burns run in child interpreters that are started
    and waited for before the clock starts; the scaling is
    ``workers * t_single / t_parallel`` (``workers`` on ideal cores, ~1 when
    the vCPUs share one core).  It bounds what the sharded sweep can reach
    on this host.  Every child is waited for before this returns.
    """
    started = time.perf_counter()
    _burn(iterations)
    single = time.perf_counter() - started
    command = [sys.executable, "-c", _BURN_CHILD, str(ROOT / "perfbench"), str(iterations)]
    children = []
    try:
        for _ in range(workers):
            children.append(subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        for child in children:
            child.stdout.readline()  # up and imported
        started = time.perf_counter()
        for child in children:
            child.stdin.write("\n")
            child.stdin.flush()
        for child in children:
            child.stdout.readline()  # burn done
        together = time.perf_counter() - started
    finally:
        for child in children:
            if child.poll() is None:
                try:
                    child.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait()
            child.stdin.close()
            child.stdout.close()
    return workers * single / together


def stop_helper_processes() -> None:
    """Stop the multiprocessing helper processes (fork server, resource tracker), if any started.

    They would otherwise outlive the benchmark by a moment, since they exit
    only once they notice their parent's pipe closed.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (getattr(forkserver, "_forkserver", None), getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


#: The host-speed reference: a fixed pure-Python burn, and its duration on the
#: reference host (the 2-vCPU development container in a quiet period).
SPEED_BURN_ITERATIONS = 40_000
REFERENCE_BURN_S = 0.03
#: How far the program's times follow the burn's, in log terms: regressing
#: log phase time on log burn time gave slopes of 0.36-0.5 on the reference
#: host, so a full (exponent 1) correction would over-correct.
SPEED_ELASTICITY = 0.5


class HostSpeed:
    """Samples host speed with the reference burn, interleaved with the measured work.

    The shared development container's speed drifts by tens of percent over
    seconds to minutes (neighbours on the same physical core), and the
    program drifts with the burn, though about half as much, so CPU-bound
    end-to-end times are reported at reference speed:
    ``seconds * (REFERENCE_BURN_S / mean burn) ** SPEED_ELASTICITY``.  The
    mean, because the burn's time is bimodal and a median jumps between the
    modes.  Raw seconds stay in the report.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 2) -> None:
        for _ in range(count):
            started = time.perf_counter()
            _burn(SPEED_BURN_ITERATIONS)
            self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Multiply raw host seconds by this to get seconds at reference speed."""
        return (REFERENCE_BURN_S / statistics.fmean(self.samples)) ** SPEED_ELASTICITY


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def host_block() -> Dict[str, object]:
    """What a reader needs to compare numbers across hosts."""
    import numpy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "parallel_scaling_x": round(parallel_scaling(), 3),
    }


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    path = pathlib.Path("/proc") / (str(pid) if pid is not None else "self") / "status"
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


# ---------------------------------------------------------------------------
# Simulated-output digests
# ---------------------------------------------------------------------------


def canonical(value: object) -> object:
    """JSON-safe canonical form of a program output (reports, rows, tables)."""
    if hasattr(value, "to_dict"):
        return canonical(value.to_dict())
    if isinstance(value, Mapping):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonical(dataclasses.asdict(value))
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "tolist"):  # NumPy scalars and arrays
        return value.tolist()
    return value


def _plain(value: object) -> object:
    """``json.dumps`` fallback: one level of :func:`canonical`, the encoder does the rest."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, Mapping):
        return dict(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "tolist"):  # NumPy scalars and arrays
        return value.tolist()
    return repr(value)


def encode(value: object) -> str:
    """Canonical JSON text of a program output: equal outputs give equal text.

    The C encoder walks the value and calls :func:`_plain` only for what it
    cannot encode itself, which is several times faster than building
    :func:`canonical` first; mappings whose keys do not sort together take
    the slow path.
    """
    try:
        return json.dumps(value, sort_keys=True, default=_plain)
    except TypeError:
        return json.dumps(canonical(value), sort_keys=True, default=repr)


def digest(values: Iterable[object]) -> str:
    """SHA-256 over the canonical JSON of ``values`` (a speed-only change keeps it)."""
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(encode(value).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------

#: Line a set-up probe prints once its inputs (and server) are ready.
READY = "perfbench-ready"


def measure_setup(workload: str, seed: int, probes: int = 7, timeout: float = 60.0) -> float:
    """Median seconds (at reference speed) from a fresh interpreter to the first timed operation.

    Each probe runs ``run.py --setup-probe``: the child imports ``repro``,
    builds the workload's inputs (and, for the service, starts the server
    until ``/healthz`` answers), prints :data:`READY`, tears down and exits.
    The clock stops when the ready line arrives.  Host-speed samples are
    taken between the probes.
    """
    samples = []
    speed = HostSpeed()
    command = [sys.executable, str(RUN_SCRIPT), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(probes):
        speed.sample()
        started = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            child.wait(timeout=timeout)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != READY or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode}, first line {line!r})")
        samples.append(elapsed)
    return median(samples) * speed.factor()


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps metric names to values; ``report`` is the human block
    (host, checks, digests, the workload's own named figures); ``spans`` are
    the traced run's spans of its last traced round, written out at exit.
    """

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: Dict[str, object]
    spans: list = dataclasses.field(default_factory=list)


def check(checks: Dict[str, bool], name: str, condition: bool) -> None:
    """Record one named correctness check."""
    checks[name] = bool(condition)


def phase_means(rounds: Sequence[Mapping[str, float]], phases: Sequence[str]) -> "tuple[Dict[str, float], float]":
    """Mean time of each phase over ``rounds`` (``<phase>_s`` keys), and of a whole round.

    Means, not medians: the host switches between a fast and a slow state
    within seconds, so a median over a few rounds jumps between the two
    while the mean follows the mix of both.
    """
    per_phase = {phase: statistics.fmean([r[f"{phase}_s"] for r in rounds]) for phase in phases}
    return per_phase, sum(per_phase.values())


def run_rounds(seconds: float, body: Callable[[int], float], minimum: int = 1) -> None:
    """Call ``body(round)`` until the rounds' measured time fills ``seconds``.

    ``body`` returns the seconds its timed phases took (building inputs,
    host-speed samples and correctness checks do not count).  A further
    round starts only if at least half of a median round still fits in what
    is left, so the measured time ends as close to ``seconds`` as whole
    rounds allow.
    """
    durations: List[float] = []
    while len(durations) < minimum or sum(durations) + median(durations) / 2 <= seconds:
        durations.append(body(len(durations)))
