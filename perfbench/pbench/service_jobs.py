"""``service_jobs``: ``repro serve`` driven by closed-loop HTTP clients.

``repro serve --port 0 --workers 2 --cache-dir <temp>`` runs in its own
process.  Two clients (at most ``nproc``), each on one keep-alive
``http.client`` connection, repeat one job at a time:

1. ``POST /studies`` with a small (6-24 scenario) inference or decode-step
   spec, or the registered ``table2_inference_validation`` study;
2. long-poll ``GET /jobs/<id>/rows?offset=N&wait=...`` until done;
3. ``GET /jobs/<id>/table.csv``.

The seed fixes the submission sequence: about half the jobs are fresh specs
(axis values never used before in the run, so they are priced cold) and half
resubmit an earlier spec (served warm from the shared runner).  The run
keeps going past ``--seconds`` until it holds at least :data:`MIN_JOBS` jobs,
so the p95 has at least ten samples beyond it.  This is the only workload
that measures the HTTP, job-queue and streaming layers; it uses the sweep
layer small, concurrent and repeated.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from . import layers
from .common import (
    NPROC, ROOT, Outcome, check, digest, host_block, import_program, measure_setup, median, percentile,
    program_env, scratch_dir, vm_hwm_mb,
)
from .spans import Tracer

NAME = "service_jobs"

CLIENTS = min(2, NPROC)
SERVER_WORKERS = 2
#: p95 with ten samples beyond it needs 200 jobs.
MIN_JOBS = 200
POLL_WAIT_S = 10.0
#: A run never measures longer than this, whatever MIN_JOBS asks.
MAX_WINDOW_S = 120.0
#: Distinct specs (in stream order) whose served CSVs make up the digest.
DIGEST_SPECS = 40

REGISTERED_STUDY = "table2_inference_validation"
INFERENCE_SYSTEMS = ("A100", "H100")
INFERENCE_MODELS = ("Llama2-7B", "Llama2-13B", "Llama2-70B")
DECODE_ACCELERATORS = ("A100", "H100", "B200")
DECODE_MODELS = ("GPT-7B", "GPT-22B", "GPT-175B", "Llama2-7B", "Llama2-13B", "Llama2-70B")
TENSOR_PARALLEL = (1, 2, 4, 8)

#: Jobs run before timing starts (values below the stream's range, so they
#: never make a fresh stream job warm).
WARMUP = (
    {"name": "warmup-inference", "kind": "inference",
     "axes": {"batch_size": [1, 4], "generated_tokens": [16, 32, 64]},
     "fixed": {"system": "A100", "model": "Llama2-7B", "tensor_parallel": 1, "prompt_tokens": 50},
     "extract": "inference_times"},
    {"name": "warmup-decode", "kind": "decode_bottlenecks",
     "axes": {"kv_len": [50, 60, 70], "batch_size": [1, 4]},
     "fixed": {"accelerator": "H100", "model": "GPT-7B", "tensor_parallel": 2},
     "extract": "gemm_bound_totals"},
)


@dataclasses.dataclass(frozen=True)
class Submission:
    """One job of the stream: the document to POST and the spec it names."""

    index: int
    fresh: bool
    key: str
    document: dict


class JobStream:
    """The seeded submission sequence (the same seed gives the same sequence)."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        unique = list(range(100, 8100))
        self._rng.shuffle(unique)
        self._unique = iter(unique)  # axis values no earlier spec used
        self.specs: List[Submission] = []  # distinct specs, first-submission order
        self._index = 0

    def next(self) -> Submission:
        index = self._index
        self._index += 1
        if len(self.specs) > 2 and self._rng.random() < 0.5:
            earlier = self._rng.choice(self.specs[:-2])  # not the ones still likely in flight
            return Submission(index, False, earlier.key, earlier.document)
        document = {"study": REGISTERED_STUDY} if index == 0 else self._fresh_spec(index)
        submission = Submission(index, True, json.dumps(document, sort_keys=True), document)
        self.specs.append(submission)
        return submission

    def _fresh_spec(self, index: int) -> dict:
        rng = self._rng
        if rng.random() < 0.6:
            return {
                "name": f"inference-{index}",
                "kind": "inference",
                "axes": {
                    "batch_size": sorted(rng.sample((1, 2, 4, 8, 16, 32), rng.choice((2, 3)))),
                    "generated_tokens": sorted(rng.sample((16, 32, 64, 128, 256), rng.choice((3, 4)))),
                },
                "fixed": {
                    "system": rng.choice(INFERENCE_SYSTEMS),
                    "model": rng.choice(INFERENCE_MODELS),
                    "tensor_parallel": rng.choice(TENSOR_PARALLEL),
                    "prompt_tokens": next(self._unique),
                },
                "extract": "inference_times",
                # Memory-overflow corners are model outcomes (error rows), not failed jobs.
                "capture_errors": True,
            }
        return {
            "name": f"decode-{index}",
            "kind": "decode_bottlenecks",
            "axes": {
                "kv_len": sorted(next(self._unique) for _ in range(rng.choice((3, 4, 6)))),
                "batch_size": sorted(rng.sample((1, 2, 4, 8), rng.choice((2, 3, 4)))),
            },
            "fixed": {
                "accelerator": rng.choice(DECODE_ACCELERATORS),
                "model": rng.choice(DECODE_MODELS),
                "tensor_parallel": rng.choice(TENSOR_PARALLEL),
            },
            "extract": "gemm_bound_totals",
            "capture_errors": True,
        }


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` process on a free port, with its cache and log in ``workdir``."""

    def __init__(self, workdir) -> None:
        self.log_path = workdir / "server.log"
        self._log = self.log_path.open("w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", str(SERVER_WORKERS),
             "--cache-dir", str(workdir / "cache")],
            stdout=subprocess.DEVNULL, stderr=self._log, env=program_env(), cwd=str(ROOT),
        )
        try:
            self.host, self.port = self._wait_listening()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, timeout: float = 60.0) -> Tuple[str, int]:
        marker = "listening on http://"
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            text = self.log_path.read_text()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}: {text}")
            time.sleep(0.002)
        raise RuntimeError("repro serve did not start listening")

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            connection = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                time.sleep(0.002)
            finally:
                connection.close()
        raise RuntimeError("repro serve never answered /healthz")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def stop(self) -> None:
        """Interrupt the server (its clean shutdown path) and wait for it to exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def setup(seed: int):
    """What a user pays before the first job: import, inputs, server up and healthy."""
    import_program()
    JobStream(seed).next()
    workdir = scratch_dir(f"setup-{NAME}-{seed}")
    server = Server(workdir)

    def teardown() -> None:
        server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    return teardown


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------


class ExchangeFailed(Exception):
    """A non-2xx answer (or a transport error) on one HTTP exchange."""


@dataclasses.dataclass
class JobRecord:
    """Client-side view of one job."""

    submission: Submission
    ok: bool = False
    job_id: str = ""
    submit_to_done_s: float = 0.0
    post_s: float = 0.0
    rows_poll_s: float = 0.0
    table_s: float = 0.0
    exchanges: int = 0
    first_row_t: Optional[float] = None
    csv: str = ""
    error: str = ""


class Client:
    """One closed-loop client on one keep-alive connection."""

    def __init__(self, host: str, port: int, tracer: Optional[Tracer] = None) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=60)
        self.tracer = tracer

    def exchange(self, span: str, method: str, path: str, body: Optional[bytes] = None) -> Tuple[bytes, float]:
        """One request/response; returns the body and its seconds, raises on non-2xx."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = time.perf_counter()
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.connection.close()  # the next request reconnects
            raise ExchangeFailed(f"{method} {path}: {error}") from error
        ended = time.perf_counter()
        if self.tracer is not None:
            self.tracer.record(span, started, ended)
        if not 200 <= response.status < 300:
            raise ExchangeFailed(f"{method} {path}: HTTP {response.status}: {payload[:200]!r}")
        return payload, ended - started

    def get_json(self, path: str) -> dict:
        return json.loads(self.exchange("service.get", "GET", path)[0])

    def run_job(self, submission: Submission) -> JobRecord:
        record = JobRecord(submission)
        if self.tracer is not None:
            self.tracer.op = f"job{submission.index}"
        started = time.perf_counter()
        try:
            body, record.post_s = self.exchange(
                "service.post", "POST", "/studies", json.dumps(submission.document).encode()
            )
            record.exchanges = 1
            record.job_id = json.loads(body)["job"]["id"]
            offset = 0
            while True:
                body, seconds = self.exchange(
                    "service.rows_poll", "GET", f"/jobs/{record.job_id}/rows?offset={offset}&wait={POLL_WAIT_S}"
                )
                record.rows_poll_s += seconds
                record.exchanges += 1
                page = json.loads(body)
                if page["rows"] and record.first_row_t is None:
                    record.first_row_t = page["rows"][0]["t"]
                offset = page["next_offset"]
                if page["done"]:
                    break
            body, record.table_s = self.exchange("service.table", "GET", f"/jobs/{record.job_id}/table.csv")
            record.exchanges += 1
        except (ExchangeFailed, KeyError, ValueError) as error:
            record.error = str(error)
            return record
        record.submit_to_done_s = time.perf_counter() - started
        record.csv = body.decode("utf-8")
        record.ok = page["state"] == "done"
        if self.tracer is not None:
            self.tracer.record("service.job", started, started + record.submit_to_done_s)
        return record

    def close(self) -> None:
        self.connection.close()


def drive(clients: List[Client], stream: JobStream, seconds: float, min_jobs: int) -> Tuple[List[JobRecord], float]:
    """Run every client closed-loop until ``seconds`` pass and ``min_jobs`` are done."""
    lock = threading.Lock()
    records: List[JobRecord] = []
    errors: List[BaseException] = []
    started = time.perf_counter()

    def loop(client: Client) -> None:
        try:
            while True:
                with lock:
                    elapsed = time.perf_counter() - started
                    if elapsed >= MAX_WINDOW_S or (elapsed >= seconds and len(records) >= min_jobs):
                        return
                    submission = stream.next()
                record = client.run_job(submission)
                with lock:
                    records.append(record)
        except BaseException as error:  # noqa: BLE001 -- surfaced after join
            errors.append(error)

    threads = [threading.Thread(target=loop, args=(client,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records, time.perf_counter() - started


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _served_equals_direct(records: List[JobRecord], checks: Dict[str, bool]) -> str:
    """Each served CSV equals a direct ``Study.run`` of its spec; digest of the first specs."""
    from repro.studies import Study, get_study
    from repro.sweep import SweepRunner

    runner = SweepRunner(cache_size=65536)
    served: Dict[str, str] = {}
    documents: Dict[str, dict] = {}
    consistent = True
    for record in records:
        if not record.ok:
            continue
        first = served.setdefault(record.submission.key, record.csv)
        documents[record.submission.key] = record.submission.document
        consistent = consistent and first == record.csv
    check(checks, "resubmissions_serve_identical_csv", consistent)
    matches = True
    for key, csv in served.items():
        document = documents[key]
        if isinstance(document.get("study"), str):
            table = get_study(document["study"]).run(runner=runner)
        else:
            table = Study.from_dict(document).run(runner=runner)
        matches = matches and table.to_csv() == csv
    check(checks, "served_csv_equals_direct_study_run", matches and bool(served))
    firsts = sorted((r.submission.index, r.submission.key) for r in records if r.ok and r.submission.fresh)
    keys = [key for _, key in firsts][:DIGEST_SPECS]
    check(checks, f"digest_covers_{DIGEST_SPECS}_specs", len(keys) == DIGEST_SPECS)
    return digest([key, served[key]] for key in keys)


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    return {key: after["runner"][key] - before["runner"][key] for key in after["runner"]}


def _window_metrics(records: List[JobRecord], statuses: Dict[str, dict], stats: Dict[str, float]) -> Dict[str, float]:
    """Per-layer view of one window: exchange times, server-side job timing, runner counters."""
    done = [r for r in records if r.ok]
    timing = [statuses[r.job_id] for r in done]
    queue_wait = [s["started_at"] - s["submitted_at"] for s in timing]
    execution = [s["finished_at"] - s["started_at"] for s in timing]
    return {
        "service.post_s": median([r.post_s for r in done]),
        "service.rows_poll_s": median([r.rows_poll_s for r in done]),
        "service.table_s": median([r.table_s for r in done]),
        "service.exchanges_per_job": sum(r.exchanges for r in done) / len(done),
        "service.transport_s": median(
            [r.submit_to_done_s - wait - run for r, wait, run in zip(done, queue_wait, execution)]
        ),
        "service.queue_wait_s": median(queue_wait),
        "service.exec_s": median(execution),
        "service.first_row_s": median(
            [r.first_row_t - s["submitted_at"] for r, s in zip(done, timing) if r.first_row_t is not None]
        ),
        "service.cached_row_share": sum(s["cached_rows"] for s in timing) / sum(s["total_scenarios"] for s in timing),
        "sweep.keyhash_s": stats["keyhash_seconds"],
        "sweep.plan_s": stats["plan_seconds"],
        "sweep.price_s": stats["price_seconds"],
        "sweep.scatter_s": stats["scatter_seconds"],
        "sweep.evaluations": stats["evaluations"],
        "sweep.cache_hits": stats["cache_hits"],
        "sweep.captured_errors": stats["errors"],
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    import_program()
    setup_s = None if trace else measure_setup(NAME, seed)
    host = host_block()
    stream = JobStream(seed)
    tracer = Tracer() if trace else None
    checks: Dict[str, bool] = {}
    workdir = scratch_dir(f"{NAME}-{seed}")
    server = Server(workdir)
    clients = [Client(server.host, server.port) for _ in range(CLIENTS)]
    try:
        warmups = [
            clients[0].run_job(Submission(-1, True, json.dumps(document, sort_keys=True), document))
            for document in WARMUP
        ]
        windows = []  # (records, wall seconds, /stats delta)
        plan = [(seconds / 2, 20, None), (seconds / 2, 20, tracer)] if trace else [(seconds, MIN_JOBS, None)]
        for window_seconds, min_jobs, window_tracer in plan:
            for client in clients:
                client.tracer = window_tracer
            before = clients[0].get_json("/stats")
            records, wall = drive(clients, stream, window_seconds, min_jobs)
            for client in clients:
                client.tracer = None
            windows.append((records, wall, _stats_delta(before, clients[0].get_json("/stats"))))
        statuses = {job["id"]: job for job in clients[0].get_json("/jobs")["jobs"]}
        peak_rss = server.peak_rss_mb()
    finally:
        for client in clients:
            client.close()
        server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    records = [record for window in windows for record in window[0]]
    failed = [record for record in warmups + records if not record.ok]
    for record in failed[:5]:
        print(f"perfbench: job {record.submission.index} failed: {record.error}", file=sys.stderr)
    check(checks, "every_job_done", not failed and all(
        statuses[r.job_id]["state"] == "done" for r in records
    ))
    report: Dict[str, object] = {"digest": _served_equals_direct(records, checks)}

    measured, wall, stats = windows[-1]
    done = [r for r in measured if r.ok]
    fresh = [r.submit_to_done_s for r in done if r.submission.fresh]
    resubmitted = [r.submit_to_done_s for r in done if not r.submission.fresh]
    every = [r.submit_to_done_s for r in done]
    check(checks, "p95_has_ten_samples_beyond", len(every) >= MIN_JOBS or trace)
    report.update({
        "jobs": len(measured),
        "fresh_jobs": len(fresh),
        "resubmitted_jobs": len(resubmitted),
        "window_s": wall,
        "host": host,
        "checks": checks,
        "named_metrics": {
            "service_submit_to_done_p50_s": (median(every), "s"),
            "service_submit_to_done_p95_s": (percentile(every, 95), "s"),
            "service_jobs_per_s": (len(done) / wall, "1/s"),
            "service_fresh_p50_s": (median(fresh), "s"),
            "service_resubmitted_p50_s": (median(resubmitted), "s"),
        },
    })
    if trace:
        metrics = _window_metrics(measured, statuses, stats)
        untraced = [r.submit_to_done_s for r in windows[0][0] if r.ok]
        metrics["trace.overhead_pct"] = layers.overhead_pct(median(untraced), median(every))
        spans = tracer.take()
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "throughput_per_s": len(done) / wall,
            "phase1_s": median(resubmitted),
            "phase2_s": percentile(every, 95),
            "phase3_s": median(fresh),
        }
        spans = []
    return Outcome(
        correct=all(checks.values()),
        attempted=len(warmups) + len(records),
        failed=len(failed),
        metrics=metrics,
        report=report,
        spans=spans,
    )
