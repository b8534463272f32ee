"""Chaos/load harness for the ``walrus serve`` query daemon.

Launches the daemon as a real subprocess (the same way an operator
would), drives it with concurrent clients, and asserts the robustness
contract end to end:

* **Correctness under faults** — every non-degraded answer must equal
  the answer a quiesced, unfaulted in-process database gives for the
  same image.  Zero tolerance: one wrong answer fails the run.
* **Bounded latency** — the p99 of successful queries must stay under
  ``--p99-limit`` even with injected slow reads.
* **Deadline promptness** — queries sent with a budget the server
  cannot meet must come back ``504`` with a server-side elapsed time
  within ``2x`` the budget (the deadline is checked down in the
  R*-tree and matcher loops, not just between requests).
* **Structured overload** — a burst beyond the admission capacity
  must shed with JSON ``503`` + ``Retry-After``, never by hanging or
  crashing.
* **Connection reuse** — each load client keeps one connection
  alive, so the correctness phase must open fewer connections (the
  daemon's ``server.connections`` counter) than half its requests.
* **Clean drain** — SIGTERM must exit ``0`` after printing the
  ``drained`` summary line, within 5 s even while a client holds an
  idle kept-alive connection; the process must never die on its own.

Run ``--smoke --faults`` for the CI-sized chaos pass; a JSON summary
is printed either way and the exit status is non-zero on any
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters
from repro.datasets.generator import DatasetSpec, generate_dataset
from repro.exceptions import DeadlineExceededError, ServerError
from repro.imaging.codecs import read_image, write_image
from repro.server import RetryPolicy, WalrusClient

#: Small multi-scale windows: fast enough for a CI minute, slow
#: enough that a sub-latency budget genuinely expires mid-query.
SERVE_PARAMS = ExtractionParameters(window_min=16, window_max=32,
                                    stride=8, cluster_threshold=0.05)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="load/chaos harness for `walrus serve`")
    parser.add_argument("--smoke", action="store_true",
                        help="CI sizing: small collection, short phases")
    parser.add_argument("--faults", action="store_true",
                        help="mount the fault-injecting page store "
                             "(slow reads + transient read errors)")
    parser.add_argument("--images-per-class", type=int, default=None,
                        help="collection size per class "
                             "(default: 2 smoke / 6 full)")
    parser.add_argument("--queries", type=int, default=None,
                        help="correctness-phase queries "
                             "(default: 24 smoke / 120 full)")
    parser.add_argument("--threads", type=int, default=4,
                        help="concurrent load clients (default: 4)")
    parser.add_argument("--sessions", type=int, default=2,
                        help="server reader sessions (default: 2)")
    parser.add_argument("--p99-limit", type=float, default=10.0,
                        help="p99 latency bound, seconds (default: 10)")
    parser.add_argument("--seed", type=int, default=1999)
    return parser.parse_args(argv)


def build_database(directory: str, seed: int,
                   images_per_class: int) -> list:
    """Create the serving database; returns the dataset's images."""
    dataset = generate_dataset(DatasetSpec(
        images_per_class=images_per_class, seed=seed))
    with WalrusDatabase.create(directory, params=SERVE_PARAMS) as database:
        database.add_images(dataset.images, bulk=True)
    return dataset.images


def reference_answers(directory: str,
                      probe_paths: list[str]) -> tuple[list[list], float]:
    """Quiesced, unfaulted ground truth for each probe image.

    Decodes the probes from the same on-disk files the clients will
    send (codec quantization must hit both sides identically).
    Returns the answers plus the median *uncached* single-query
    latency — the yardstick for the deadline phase's budget.
    """
    answers = []
    timings = []
    with WalrusDatabase.open(directory, readonly=True) as database:
        for path in probe_paths:
            image = read_image(path)
            started = time.perf_counter()
            result = database.query(image)
            timings.append(time.perf_counter() - started)
            answers.append([
                [match.image_id, match.name,
                 round(match.similarity, 9)]
                for match in result.matches])
    return answers, statistics.median(timings)


class ServerProcess:
    """A ``walrus serve`` subprocess plus the parsed bound URL."""

    def __init__(self, database_dir: str, *, sessions: int,
                 faults: bool) -> None:
        # Degradation is disabled (--degrade-at 99): this harness
        # compares every answer byte-for-byte with the unfaulted
        # reference, and a region-capped answer is legitimately
        # different.  The degradation path has its own unit tests.
        command = [sys.executable, "-m", "repro.cli", "serve",
                   database_dir, "--port", "0",
                   "--sessions", str(sessions),
                   "--max-queue", "2",
                   "--queue-timeout", "0.2",
                   "--retry-after", "0.1",
                   "--degrade-at", "99.0"]
        if faults:
            command += ["--fault-read-delay", "0.02",
                        "--fault-read-delay-rate", "0.05",
                        "--fault-read-error-rate", "0.02",
                        "--fault-seed", "7"]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", environment.get("PYTHONPATH", "")) if p)
        environment["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=environment)
        self.url = self._await_banner()

    def _await_banner(self) -> str:
        assert self.process.stdout is not None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise ServerError(
                    "server exited before announcing its address "
                    f"(returncode {self.process.poll()})")
            if "serving queries on " in line:
                return line.split("serving queries on ", 1)[1].split()[0]
        raise ServerError("server never printed its banner")

    def alive(self) -> bool:
        return self.process.poll() is None

    def drain(self) -> tuple[int, str]:
        """SIGTERM, wait, return ``(returncode, remaining stdout)``."""
        self.process.send_signal(signal.SIGTERM)
        try:
            output, _ = self.process.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            output, _ = self.process.communicate()
            return -9, output or ""
        return self.process.returncode, output or ""

    def kill(self) -> None:
        if self.alive():
            self.process.kill()
            self.process.communicate()


def accepted_connections(url: str) -> int:
    """The daemon's ``server.connections`` counter, from ``/metrics``
    (this scrape's own connection included)."""
    with urllib.request.urlopen(url + "/metrics", timeout=10.0) as response:
        for line in response.read().decode("utf-8").splitlines():
            name, _, value = line.partition(" ")
            if name == "walrus_server_connections":
                return int(float(value))
    return 0


def correctness_phase(url: str, probe_paths: list[str],
                      expected: list[list], *, queries: int,
                      threads: int) -> dict:
    """Hammer the server; compare every clean answer to ground truth."""
    latencies: list[float] = []
    counters = {"ok": 0, "wrong": 0, "degraded": 0, "failed": 0}
    lock = threading.Lock()

    def worker(worker_index: int) -> None:
        with WalrusClient(url, retry=RetryPolicy(
                attempts=8, base_delay_seconds=0.05, max_delay_seconds=0.5,
                budget_seconds=60.0, seed=worker_index)) as client:
            for step in range(queries // threads):
                probe = (worker_index + step) % len(probe_paths)
                started = time.perf_counter()
                try:
                    payload = client.query(probe_paths[probe])
                except ServerError:
                    with lock:
                        counters["failed"] += 1
                    continue
                elapsed = time.perf_counter() - started
                answer = [[m["image_id"], m["name"],
                           round(m["similarity"], 9)]
                          for m in payload["matches"]]
                with lock:
                    latencies.append(elapsed)
                    if payload.get("degraded"):
                        counters["degraded"] += 1  # capped: not comparable
                    elif answer != expected[probe]:
                        counters["wrong"] += 1
                    else:
                        counters["ok"] += 1

    pool = [threading.Thread(target=worker, args=(i,))
            for i in range(threads)]
    before = accepted_connections(url)
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    latencies.sort()
    summary: dict = dict(counters)
    summary["requests"] = queries // threads * threads
    # Less the second scrape's own connection.
    summary["connections"] = accepted_connections(url) - before - 1
    if latencies:
        summary["p50_seconds"] = round(statistics.median(latencies), 4)
        summary["p99_seconds"] = round(
            latencies[min(len(latencies) - 1,
                          int(0.99 * len(latencies)))], 4)
    return summary


def deadline_phase(url: str, fresh_paths: list[str],
                   uncached_seconds: float) -> dict:
    """Budgets the server cannot meet must abort within 2x budget.

    Uses *fresh* images the server has never extracted, so the
    signature cache cannot make the work fit the budget, and sizes
    the budget at a fraction of the measured uncached latency.
    """
    budget = min(5.0, max(0.02, 0.4 * uncached_seconds))
    summary = {"budget_seconds": round(budget, 4), "aborted": 0,
               "completed": 0, "late_aborts": 0, "failed": 0,
               "worst_abort_seconds": 0.0}
    with WalrusClient(url, retry=RetryPolicy(
            attempts=1, base_delay_seconds=0.05, max_delay_seconds=0.1,
            budget_seconds=30.0, seed=0)) as client:
        for path in fresh_paths:
            try:
                client.query(path, budget_seconds=budget)
                summary["completed"] += 1
            except DeadlineExceededError as error:
                summary["aborted"] += 1
                summary["worst_abort_seconds"] = round(
                    max(summary["worst_abort_seconds"],
                        error.elapsed_seconds), 4)
                if error.elapsed_seconds > 2.0 * budget:
                    summary["late_aborts"] += 1
            except ServerError:
                summary["failed"] += 1
    return summary


def overload_phase(url: str, probe_path: str, *, threads: int) -> dict:
    """A one-try burst past capacity must shed with structured 503s.

    Raw (non-retrying) POSTs so the 503 body and ``Retry-After``
    header are observable; each request is a batch, which holds its
    admission slot long enough for the burst to pile up.
    """
    body = WalrusClient.encode_image(probe_path)
    envelope = json.dumps({"queries": [body] * 8}).encode("utf-8")
    summary = {"ok": 0, "shed_503": 0, "retry_after_present": 0,
               "other_errors": 0}
    lock = threading.Lock()
    # Released together, so the burst arrives at once rather than as
    # fast as the threads happen to start.
    burst = threading.Barrier(threads)

    def worker(index: int) -> None:
        request = urllib.request.Request(
            url + "/query/batch", data=envelope,
            headers={"Content-Type": "application/json"}, method="POST")
        burst.wait()
        try:
            with urllib.request.urlopen(request, timeout=30.0):
                with lock:
                    summary["ok"] += 1
        except urllib.error.HTTPError as error:
            payload = {}
            try:
                payload = json.loads(error.read())
            except (json.JSONDecodeError, UnicodeDecodeError):
                pass
            with lock:
                if error.code == 503 \
                        and payload.get("error") == "overloaded":
                    summary["shed_503"] += 1
                    if error.headers.get("Retry-After") is not None:
                        summary["retry_after_present"] += 1
                else:
                    summary["other_errors"] += 1
        except urllib.error.URLError:
            with lock:
                summary["other_errors"] += 1

    pool = [threading.Thread(target=worker, args=(i,))
            for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return summary


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    images_per_class = args.images_per_class \
        or (2 if args.smoke else 6)
    queries = args.queries or (24 if args.smoke else 120)

    violations: list[str] = []
    with tempfile.TemporaryDirectory(prefix="walrus-load-") as workdir:
        database_dir = os.path.join(workdir, "db")
        print(f"# building collection ({images_per_class}/class, "
              f"seed {args.seed})", flush=True)
        images = build_database(database_dir, args.seed, images_per_class)

        probes = images[::max(1, len(images) // 6)][:6]
        probe_paths = []
        for index, image in enumerate(probes):
            path = os.path.join(workdir, f"probe{index}.ppm")
            write_image(image, path)
            probe_paths.append(path)
        # A second, differently-seeded collection: images the server
        # has never seen, so deadline-phase extractions are uncached.
        # They are larger than the collection's, so that their
        # extraction outlasts the deadline phase's 20 ms budget floor.
        fresh = generate_dataset(DatasetSpec(
            images_per_class=1, sizes=((384, 384),),
            seed=args.seed + 1)).images[:6]
        fresh_paths = []
        for index, image in enumerate(fresh):
            path = os.path.join(workdir, f"fresh{index}.ppm")
            write_image(image, path)
            fresh_paths.append(path)
        print(f"# computing reference answers for {len(probes)} probes",
              flush=True)
        expected, uncached_seconds = reference_answers(database_dir,
                                                       probe_paths)

        print(f"# launching daemon (sessions={args.sessions}, "
              f"faults={args.faults})", flush=True)
        server = ServerProcess(database_dir, sessions=args.sessions,
                               faults=args.faults)
        try:
            correctness = correctness_phase(
                server.url, probe_paths, expected,
                queries=queries, threads=args.threads)
            if not server.alive():
                violations.append("server died during the load phase")
            deadline = deadline_phase(server.url, fresh_paths,
                                      uncached_seconds)
            overload = overload_phase(server.url, probe_paths[0],
                                      threads=max(8, 4 * args.sessions))
            if not server.alive():
                violations.append("server died during the chaos phases")
            # The drain must not wait on a connection kept alive and idle.
            with WalrusClient(server.url) as idle:
                idle.healthz()
                started = time.monotonic()
                returncode, tail = server.drain()
                drain_seconds = time.monotonic() - started
        finally:
            server.kill()

    if correctness["wrong"]:
        violations.append(
            f"{correctness['wrong']} answers differed from the "
            f"unfaulted reference")
    if correctness["ok"] == 0:
        violations.append("no query succeeded in the load phase")
    if correctness["connections"] >= correctness["requests"] / 2:
        violations.append(
            f"{correctness['connections']} connections for "
            f"{correctness['requests']} requests: clients did not keep "
            f"their connections alive")
    p99 = correctness.get("p99_seconds")
    if p99 is not None and p99 > args.p99_limit:
        violations.append(
            f"p99 {p99}s exceeds the {args.p99_limit}s bound")
    if deadline["aborted"] and deadline["late_aborts"]:
        violations.append(
            f"{deadline['late_aborts']} deadline aborts took longer "
            f"than 2x the budget")
    if deadline["aborted"] == 0:
        violations.append(
            "deadline phase produced no 504 aborts (budget "
            f"{deadline['budget_seconds']}s was met?)")
    if overload["shed_503"] == 0:
        violations.append("overload burst produced no structured 503")
    if returncode != 0:
        violations.append(
            f"SIGTERM drain exited {returncode}, want 0")
    if drain_seconds > 5.0:
        violations.append(
            f"SIGTERM drain took {drain_seconds:.1f}s with an idle "
            f"kept-alive connection open (limit 5s)")
    if "drained" not in tail:
        violations.append("drain summary line missing from stdout")

    report = {
        "faults": args.faults,
        "smoke": args.smoke,
        "correctness": correctness,
        "deadline": deadline,
        "overload": overload,
        "drain": {"returncode": returncode,
                  "seconds": round(drain_seconds, 3),
                  "summary_line": next(
                      (line for line in tail.splitlines()
                       if "drained" in line), None)},
        "violations": violations,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if violations:
        print(f"FAIL: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("# all robustness assertions held", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
