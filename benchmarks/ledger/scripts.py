"""The scripts a worker process runs: one database build or one round.

Each script is a fixed sequence of calls into ``repro``'s public
functions.  It times every operation on its own, keeps the answers and
the deterministic counts, and asserts the cache traffic each phase
assumes (R3).  Nothing here aggregates: the driver takes minima over
rounds and checks the answers against the oracle.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from benchmarks.ledger import fixtures, tracing
from benchmarks.ledger.spec import (QUERY_PARAMS, WORKLOAD_PARAMS,
                                    LedgerError, PhaseMixError, Sizes)
from benchmarks.run_server_load import ServerProcess
from repro.core.cache import CacheStats
from repro.core.database import WalrusDatabase
from repro.core.fsck import fsck_database
from repro.core.results import QueryResult
from repro.exceptions import ServerError
from repro.imaging.codecs import write_image
from repro.imaging.image import Image
from repro.observability import enable_metrics
from repro.server import (ReaderSession, RetryPolicy, WalrusClient,
                          WalrusServer)

#: Reader sessions of the ``serve`` workload's daemon (== ``nproc`` of
#: the reference box).
SESSIONS = 2


@dataclass
class Job:
    """What the driver hands a worker."""

    script: str
    workdir: str
    round_index: int
    sizes: Sizes
    #: Set for the traced round only.
    recorder: tracing.Recorder | None = None

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def scratch(self) -> str:
        """This round's private directory."""
        directory = self.path(f"round-{self.round_index}")
        os.makedirs(directory, exist_ok=True)
        return directory


@dataclass
class Round:
    """What one run of a script measured."""

    ops: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    answers: dict[str, Any] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    failed: int = 0
    #: Stamped on every span: "cold", "warm" or "" (anything else).
    phase: str = ""

    @contextmanager
    def timed(self, series: str) -> Iterator[None]:
        """Time one operation into ``series``."""
        started = time.perf_counter()
        yield
        self.ops.setdefault(series, []).append(
            time.perf_counter() - started)

    def enter(self, phase: str) -> None:
        """Start a phase: stamp it on the spans and collect garbage
        now.  The collector stays on, but when a full collection of the
        worker's heap (~15 ms) falls is a chaotic function of the
        allocation count, hence of the seed: it moved the mean of 15
        opens by a third for three seeds in ten.  Collecting at the
        phase boundary puts the next full collection a quarter of the
        heap's growth away."""
        self.phase = phase
        gc.collect()


# ----------------------------------------------------------------------
# Building blocks shared by the scripts
# ----------------------------------------------------------------------
def directory_counts(directory: str) -> dict[str, int]:
    """Directory size, and its split into page file and catalog."""
    sizes = {name: os.path.getsize(os.path.join(directory, name))
             for name in os.listdir(directory)}
    return {"bytes": sum(sizes.values()),
            "page_bytes": sizes[WalrusDatabase.PAGE_FILE],
            "meta_bytes": sizes[WalrusDatabase.META_FILE]}


def add_counts(round_: Round, counts: dict[str, int],
               prefix: str = "") -> None:
    for name, amount in counts.items():
        round_.counts[prefix + name] = (
            round_.counts.get(prefix + name, 0) + amount)


def ingest_lap(round_: Round, directory: str, images: list[Image],
               sizes: Sizes, *, prefix: str = "") -> list[str]:
    """Bulk-load ``images`` as databases of ``sizes.shard`` images:
    create → ``add_images(bulk=True, workers=1)`` → ``checkpoints`` ×
    checkpoint → close → ``shard_opens`` × readonly open.

    Several small databases, not one large one, because a call that
    runs for a second or more cannot be cleaned by best-of-rounds on
    the reference box while calls of 0.1-0.3 s can.  Shard *j* is the
    *j*-th run of ``sizes.shard`` images: the collection rotates
    through the scene classes, so every shard gets its share of each.
    Returns the directories.
    """
    shards = max(1, len(images) // sizes.shard)
    directories = []
    for number in range(shards):
        target = os.path.join(directory, f"shard-{number}")
        database = WalrusDatabase.create(target, params=WORKLOAD_PARAMS)
        round_.enter("")
        with round_.timed("ingest"):
            database.add_images(
                images[number * sizes.shard:(number + 1) * sizes.shard],
                bulk=True, workers=1)
        for _ in range(sizes.checkpoints):
            with round_.timed("checkpoint"):
                database.checkpoint()
        add_counts(round_, {"images": len(database),
                            "regions": database.region_count,
                            "index_pages": len(database.index.store)},
                   prefix)
        database.close()
        add_counts(round_, directory_counts(target), prefix)
        open_lap(round_, target, sizes.shard_opens)
        directories.append(target)
    round_.counts["ingested"] = len(images)
    return directories


def open_lap(round_: Round, directory: str, opens: int) -> None:
    round_.enter("")
    for _ in range(opens):
        with round_.timed("open"):
            database = WalrusDatabase.open(directory, readonly=True)
            database.close()


def render_answer(result: QueryResult) -> dict[str, Any]:
    """A result as plain lists: the ranking and the probe pairs.

    With quick matching every probed pair of a returned image is one
    of its contributing pairs, so the pairs of all matches are the
    probe's pair set.
    """
    return {
        "ranked": [[match.image_id, match.similarity]
                   for match in result.matches],
        "pairs": sorted([q_index, match.image_id, t_index]
                        for match in result.matches
                        for q_index, t_index in match.pairs),
    }


def assert_phase(before: dict[str, CacheStats],
                 after: dict[str, CacheStats], expect: str,
                 queries: int) -> None:
    """R3: between two ``cache_stats()`` snapshots every lookup missed
    (``expect="miss"``) or every lookup hit (``expect="hit"``)."""
    wrong = "hits" if expect == "miss" else "misses"
    for cache in ("signatures", "probes"):
        moved = getattr(after[cache], wrong) - getattr(before[cache], wrong)
        if moved:
            raise PhaseMixError(
                f"all-{expect} phase saw {moved} {cache} cache {wrong}")
    right = "misses" if expect == "miss" else "hits"
    looked_up = (getattr(after["signatures"], right)
                 - getattr(before["signatures"], right))
    if looked_up != queries:
        raise PhaseMixError(
            f"all-{expect} phase made {looked_up} signature {right} "
            f"for {queries} queries")


#: A query: the index of its source image in the collection, and the
#: image sent.
Query = tuple[int, Image]


def pick_queries(database: WalrusDatabase, images: list[Image],
                 count: int) -> list[Query]:
    """Mirror images of ``count`` of the database's images at evenly
    spaced region-count ranks, lightest first.  ``images[i]`` is the
    image the database holds under id ``i``."""
    weights = {image_id: len(record.regions)
               for image_id, record in database.images.items()}
    return [(image_id, fixtures.query_image(images[image_id]))
            for image_id in fixtures.spread_by_region_count(weights, count)]


def cold_lap(round_: Round, database: WalrusDatabase,
             queries: list[Query], source: str | None) -> None:
    """Query every image once on a database that has seen none of
    them: all cache misses.  ``source`` names the directory whose
    catalog the oracle checks the answers against."""
    round_.enter("cold")
    stats = database.cache_stats()
    reads = database.index.counters.snapshot()
    pairs = 0
    for image_index, image in queries:
        with round_.timed("cold_query"):
            result = database.query(image, QUERY_PARAMS)
        answer = render_answer(result)
        pairs += len(answer["pairs"])
        round_.answers.setdefault("cold", []).append(
            dict(answer, db=source, image=image_index))
    assert_phase(stats, database.cache_stats(), "miss", len(queries))
    delta = database.index.counters.delta(reads)
    add_counts(round_, {"cold_node_reads": delta["node_reads"],
                        "cold_probes": delta["probes"],
                        "cold_pairs": pairs})
    round_.phase = ""


def warm_lap(round_: Round, database: WalrusDatabase,
             queries: list[Query], laps: int) -> None:
    """Prime the caches with ``queries`` (untimed), then run them
    ``laps`` times over: all cache hits."""
    primed = [render_answer(database.query(image, QUERY_PARAMS))
              for _, image in queries]
    round_.enter("warm")
    stats = database.cache_stats()
    for _ in range(laps):
        for (_, image), expected in zip(queries, primed):
            with round_.timed("warm_query"):
                result = database.query(image, QUERY_PARAMS)
            if render_answer(result) != expected:
                round_.failed += 1
    after = database.cache_stats()
    assert_phase(stats, after, "hit", laps * len(queries))
    for cache in ("signatures", "probes"):
        hits = after[cache].hits - stats[cache].hits
        misses = after[cache].misses - stats[cache].misses
        round_.extras[f"warm_{cache[:-1]}_hit_ratio"] = (
            hits / (hits + misses))
    round_.phase = ""


def filler_lap(job: Job, round_: Round) -> list[Image]:
    """The small bulk-ingest lap every workload but ``bulk_ingest``
    runs before its own work: the contract wants every end-to-end
    metric from every workload, and a name means one call everywhere,
    so ``ingest_images_per_s`` is ``add_images(bulk=True)`` here too
    and not whatever write the workload happens to make.  Returns the
    collection."""
    images = fixtures.read_images(job.path("images"))
    ingest_lap(round_, os.path.join(job.scratch(), "filler"),
               images[:job.sizes.filler], job.sizes, prefix="filler_")
    return images


def fixture_laps(job: Job, round_: Round) -> list[Image]:
    """What ``cold_query`` and ``serve`` do before their own work: the
    filler lap, then the readonly opens of the fixture database."""
    images = filler_lap(job, round_)
    open_lap(round_, job.path("db"), job.sizes.opens)
    add_counts(round_, directory_counts(job.path("db")))
    return images


# ----------------------------------------------------------------------
# Scripts
# ----------------------------------------------------------------------
def build(job: Job, round_: Round) -> None:
    """Set-up of ``cold_query``, ``serve`` and ``churn``: the fixture
    database every round of the workload starts from, bulk-loaded and
    then grown image by image to the same number of regions for every
    seed.  Image ``i`` of the pool gets id ``i``."""
    sizes = job.sizes
    images = fixtures.read_images(job.path("images"))
    database = WalrusDatabase.create(job.path("db"), params=WORKLOAD_PARAMS)
    database.add_images(images[:sizes.images], bulk=True, workers=1)
    for image in images[sizes.images:]:
        if database.region_count >= sizes.regions:
            break
        database.add_image(image)
    round_.counts["images"] = len(database)
    round_.counts["regions"] = database.region_count
    round_.counts["index_pages"] = len(database.index.store)
    database.close()


def bulk_ingest(job: Job, round_: Round) -> None:
    sizes = job.sizes
    images = fixtures.read_images(job.path("images"))
    shards = ingest_lap(round_, job.scratch(), images, sizes)
    for number, directory in enumerate(shards):
        with WalrusDatabase.open(directory, readonly=True) as database:
            first = number * sizes.shard
            queries = [(first + image_id, image)
                       for image_id, image in pick_queries(
                           database, images[first:first + sizes.shard],
                           sizes.cold)]
            cold_lap(round_, database, queries, directory)
            warm_lap(round_, database, queries[:sizes.warm_images],
                     sizes.warm_laps)
    if job.recorder is not None:
        tracing.workers2_speedup(job.recorder, round_.extras, images)


def cold_query(job: Job, round_: Round) -> None:
    sizes = job.sizes
    directory = job.path("db")
    images = fixture_laps(job, round_)
    with WalrusDatabase.open(directory, readonly=True) as database:
        queries = pick_queries(database, images, sizes.cold)
        cold_lap(round_, database, queries, directory)
        warm_lap(round_, database, queries[:sizes.warm_images],
                 sizes.warm_laps)
        if job.recorder is not None:
            cold = [image for _, image in queries]
            tracing.probe_baselines(job.recorder, round_.extras,
                                    database, cold)
            tracing.tracing_overhead(job.recorder, round_.extras,
                                     directory, cold[-4:])


def churn(job: Job, round_: Round) -> None:
    sizes = job.sizes
    directory = os.path.join(job.scratch(), "db")
    shutil.copytree(job.path("db"), directory)
    images = filler_lap(job, round_)
    arrivals = fixtures.read_images(job.path("arrivals"))
    writer = WalrusDatabase.open(directory)
    reader = ReaderSession(directory)
    queries = pick_queries(writer, images,
                           sizes.steps * sizes.cold_per_step)
    live = sorted(writer.images)
    for step in range(sizes.steps):
        round_.enter("")
        for image in arrivals[step * sizes.adds_per_step:
                              (step + 1) * sizes.adds_per_step]:
            with round_.timed("insert"):
                writer.add_image(image)
        for _ in range(sizes.removes_per_step):
            oldest = live.pop(0)
            with round_.timed("remove"):
                writer.remove_image(oldest)
        round_.enter("")
        with round_.timed("checkpoint"):
            writer.checkpoint()
        with round_.timed("refresh"):
            stale = reader.stale()
            reader.refresh()
        if not stale:
            raise LedgerError("reader session missed a commit")
        # Interleaved, so every step sees light and heavy queries; the
        # oracle replays the steps against a dict model of the images.
        cold_lap(round_, reader.database, queries[step::sizes.steps], None)
    # Append-only space amplification, before compaction reclaims it.
    add_counts(round_, directory_counts(directory))
    round_.counts["images"] = len(writer)
    round_.counts["regions"] = writer.region_count

    warm_lap(round_, reader.database, queries[:sizes.warm_images],
             sizes.warm_laps)
    reader.close()
    with round_.timed("compact"):
        writer.index.store.compact()
    writer.close()
    add_counts(round_, directory_counts(directory), "compacted_")
    open_lap(round_, directory, sizes.opens)
    report = fsck_database(directory)
    if report["issues"]:
        raise LedgerError(f"fsck after compact(): {report['issues']}")
    with WalrusDatabase.open(directory, readonly=True) as database:
        round_.answers["final_images"] = sorted(database.images)


# -- serve -------------------------------------------------------------
def peak_rss_kb(pid: int | str = "self") -> int:
    """``VmHWM`` of a process.  Not ``ru_maxrss``: that one survives
    ``exec``, so a worker would report its parent's size when the
    parent is the larger."""
    with open(f"/proc/{pid}/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise LedgerError(f"process {pid} has no VmHWM")


class Daemon:
    """``walrus serve`` as a subprocess, the way an operator runs it
    (``run_server_load.ServerProcess``: ``--degrade-at 99``, so load
    cannot region-cap a timing-dependent subset of the requests — a
    capped answer is a different answer).  Retries are off on the
    client side, so a shed request is a failed operation, not a slow
    one."""

    def __init__(self, directory: str) -> None:
        started = time.perf_counter()
        self.server = ServerProcess(directory, sessions=SESSIONS,
                                    faults=False)
        self.url = self.server.url
        self.start_seconds = time.perf_counter() - started

    def peak_rss_kb(self) -> int:
        return peak_rss_kb(self.server.process.pid)

    def stop(self) -> None:
        """SIGTERM; the daemon must drain and exit 0."""
        returncode, output = self.server.drain()
        if returncode != 0 or "drained" not in output:
            raise LedgerError(
                f"unclean drain (exit {returncode}): {output[-500:]}")


class InProcessServer:
    """The same server inside the worker, for the traced round: the
    layer wrappers can only see calls made in this process."""

    def __init__(self, directory: str) -> None:
        started = time.perf_counter()
        enable_metrics()
        self.server = WalrusServer(directory, port=0, sessions=SESSIONS,
                                   degrade_at=99.0).start()
        self.url = self.server.url("")
        self.start_seconds = time.perf_counter() - started

    def peak_rss_kb(self) -> int:
        return peak_rss_kb()

    def stop(self) -> None:
        self.server.stop()


def cache_counters(url: str) -> dict[str, int]:
    """The daemon's process-wide cache counters, from ``/metrics``."""
    with urllib.request.urlopen(url + "/metrics", timeout=10) as response:
        text = response.read().decode("utf-8")
    counters = {f"{cache}_{event}": 0 for cache in ("signatures", "probes")
                for event in ("hits", "misses")}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        key = name.removeprefix("walrus_cache_")
        if key in counters:
            counters[key] = int(float(value))
    return counters


def assert_http_phase(before: dict[str, int], after: dict[str, int],
                      expect: str) -> None:
    """R3 over HTTP, from two :func:`cache_counters` scrapes."""
    wrong = "hits" if expect == "miss" else "misses"
    for cache in ("signatures", "probes"):
        moved = after[f"{cache}_{wrong}"] - before[f"{cache}_{wrong}"]
        if moved:
            raise PhaseMixError(
                f"all-{expect} phase saw {moved} {cache} cache {wrong}")


Reply = tuple[float, dict[str, Any] | None]


def closed_loop(url: str, bodies: list[dict[str, Any]]) -> list[Reply]:
    """One client sends ``bodies`` in order and blocks on every reply
    (a closed loop).  Returns ``(seconds, payload)`` per request,
    ``payload=None`` for a request that failed."""
    client = WalrusClient(url, timeout_seconds=30.0,
                          retry=RetryPolicy(attempts=1))
    done: list[Reply] = []
    for body in bodies:
        started = time.perf_counter()
        try:
            payload: dict[str, Any] | None = client.query_body(body)
        except ServerError:
            payload = None
        done.append((time.perf_counter() - started, payload))
    return done


def http_ranking(round_: Round, reply: dict[str, Any] | None
                 ) -> list[list[Any]] | None:
    """A reply's ranking; a failed or degraded reply is a failed op."""
    if reply is None or reply.get("degraded"):
        round_.failed += 1
        return None
    return [[match["image_id"], match["similarity"]]
            for match in reply["matches"]]


def serve(job: Job, round_: Round) -> None:
    sizes = job.sizes
    directory = job.path("db")
    images = fixture_laps(job, round_)
    with WalrusDatabase.open(directory, readonly=True) as database:
        queries = pick_queries(database, images, sizes.cold)
    bodies = []
    for image_index, image in queries:
        path = os.path.join(job.scratch(), f"{image_index:04d}.ppm")
        write_image(image, path)
        bodies.append(WalrusClient.encode_image(path))

    server = (InProcessServer(directory) if job.recorder is not None
              else Daemon(directory))
    try:
        round_.extras["server_start_s"] = server.start_seconds

        # Cold: never-repeated images, all cache misses.
        round_.enter("cold")
        counters = cache_counters(server.url)
        cold = closed_loop(server.url, bodies)
        assert_http_phase(counters, cache_counters(server.url), "miss")
        rankings = []
        for (image_index, _), (seconds, reply) in zip(queries, cold):
            rankings.append(http_ranking(round_, reply))
            round_.ops.setdefault("cold_query", []).append(seconds)
            round_.answers.setdefault("cold", []).append(
                {"db": directory, "image": image_index,
                 "ranked": rankings[-1]})

        # Hot: the lightest images over and over.  The pool hands a
        # lone client the session it just gave back, so one pass warms
        # what serves it.
        hot = [number % sizes.warm_images
               for number in range(sizes.hot_requests)]
        closed_loop(server.url, bodies[:sizes.warm_images])
        round_.enter("warm")
        counters = cache_counters(server.url)
        replies = closed_loop(server.url, [bodies[number] for number in hot])
        after = cache_counters(server.url)
        assert_http_phase(counters, after, "hit")
        for number, (seconds, reply) in zip(hot, replies):
            round_.ops.setdefault("warm_query", []).append(seconds)
            if http_ranking(round_, reply) != rankings[number]:
                round_.failed += 1
        for cache in ("signatures", "probes"):
            hits = after[f"{cache}_hits"] - counters[f"{cache}_hits"]
            misses = after[f"{cache}_misses"] - counters[f"{cache}_misses"]
            round_.extras[f"warm_{cache[:-1]}_hit_ratio"] = (
                hits / (hits + misses))
        round_.phase = ""
        round_.extras["daemon_rss_kb"] = server.peak_rss_kb()
    finally:
        server.stop()


SCRIPTS: dict[str, Callable[[Job, Round], None]] = {
    "build": build,
    "bulk_ingest": bulk_ingest,
    "cold_query": cold_query,
    "serve": serve,
    "churn": churn,
}
