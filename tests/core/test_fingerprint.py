"""The signature-cache key: an image's domain, color space and shape,
then a SHA-1 of its 8-bit samples when it keeps them, else of its
float64 pixels."""

from __future__ import annotations

import hashlib
import types

import numpy as np
import pytest

import repro.imaging.image
from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.datasets import DatasetSpec, generate_dataset
from repro.imaging.codecs import read_pnm, write_pnm
from repro.imaging.image import Image
from repro.imaging.transforms import flip_horizontal
from tests import oracle

fingerprint = WalrusDatabase._image_fingerprint


@pytest.fixture(scope="module")
def images():
    return generate_dataset(DatasetSpec(images_per_class=2, seed=44)).images


@pytest.fixture(scope="module")
def database(images):
    params = ExtractionParameters(
        window_min=16, window_max=32, stride=8, cluster_threshold=0.05)
    database = WalrusDatabase(params)
    database.add_images(images[:12], bulk=True)
    return database


def decode(image: Image, directory) -> Image:
    path = directory / f"{image.name or 'image'}.ppm"
    write_pnm(image, path)
    return read_pnm(path)


class HashSpy:
    """Stands in for the ``hashlib`` module: ``sha1`` objects that
    count the bytes they are given."""

    def __init__(self) -> None:
        self.bytes = 0
        self.calls = 0

    def sha1(self, data: bytes = b"") -> "HashSpy._Digest":
        self.calls += 1
        return HashSpy._Digest(self, data)

    class _Digest:
        def __init__(self, spy: "HashSpy", data) -> None:
            self._spy = spy
            self._digest = hashlib.sha1()
            self.update(data)

        def update(self, data) -> None:
            self._spy.bytes += memoryview(data).nbytes
            self._digest.update(data)

        def digest(self) -> bytes:
            return self._digest.digest()


class TestKeys:
    def test_samples_are_hashed_when_kept(self, images, tmp_path):
        decoded = decode(images[0], tmp_path)
        twin = Image(decoded.pixels.copy(), decoded.color_space)
        assert twin == decoded and twin._samples is None
        # Same pixels, different domains: never one key for both ...
        assert fingerprint(decoded) != fingerprint(twin)
        # ... and each key is a function of the content alone.
        assert fingerprint(decoded.with_name("x")) == fingerprint(decoded)
        assert fingerprint(decode(images[0], tmp_path)) \
            == fingerprint(decoded)
        assert fingerprint(Image(twin.pixels.copy())) == fingerprint(twin)

    def test_different_samples_different_keys(self, images, tmp_path):
        decoded = decode(images[0], tmp_path)
        mirrored = flip_horizontal(decoded)
        assert mirrored._samples is not None
        assert fingerprint(mirrored) != fingerprint(decoded)
        samples = decoded._samples.copy()
        samples[0, 0, 0] ^= 1
        assert fingerprint(Image(samples)) != fingerprint(decoded)

    def test_shape_and_color_space_are_keyed(self):
        flat = np.zeros((4, 6, 1), dtype=np.uint8)
        assert fingerprint(Image(flat, "gray")) \
            != fingerprint(Image(flat.reshape(6, 4, 1), "gray"))
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        assert fingerprint(Image(rgb, "rgb")) \
            != fingerprint(Image(rgb, "ycc"))


class TestQueries:
    @pytest.mark.parametrize("matching", ["quick", "greedy"])
    def test_decoded_and_float_twin_match_the_oracle(
            self, database, images, tmp_path, matching):
        catalog = {image_id: record.regions
                   for image_id, record in database.images.items()}
        qp = QueryParameters(epsilon=0.3, matching=matching)
        for source in (images[-1], images[3]):
            decoded = decode(source, tmp_path)
            twin = Image(decoded.pixels.copy(), decoded.color_space)
            regions, _ = database._query_regions(decoded)
            expected = oracle.answer(catalog, regions, qp)
            assert expected["ranked"]
            for image in (decoded, twin, decoded):
                ranked = [(match.image_id, match.similarity)
                          for match in database.query(image, qp).matches]
                assert ranked == expected["ranked"]

    def test_warm_query_hashes_the_samples(self, database, images, tmp_path,
                                           monkeypatch):
        path = tmp_path / "mirrored.ppm"
        write_pnm(flip_horizontal(decode(images[5], tmp_path)), path)
        decoded = read_pnm(path)
        twin = Image(decoded.pixels.copy(), decoded.color_space)
        for image in (decoded, twin):
            database.query(image)  # prime the caches
        spy = HashSpy()
        monkeypatch.setattr(repro.imaging.image, "hashlib",
                            types.SimpleNamespace(sha1=spy.sha1))
        hits = database.cache_stats()["signatures"].hits
        # The same object again: its key is kept, nothing is hashed.
        database.query(decoded)
        assert database.cache_stats()["signatures"].hits == hits + 1
        assert (spy.calls, spy.bytes) == (0, 0)
        # A fresh decode of the file hashes its samples, once.
        fresh = read_pnm(path)
        for _ in range(3):
            database.query(fresh)
        assert database.cache_stats()["signatures"].hits == hits + 4
        assert spy.calls == 1
        assert 0 < spy.bytes <= fresh.height * fresh.width * fresh.channels
        # A fresh float twin hashes its pixels, once.
        spy.calls = spy.bytes = 0
        fresh_twin = Image(twin.pixels.copy(), twin.color_space)
        for _ in range(3):
            database.query(fresh_twin)
        assert database.cache_stats()["signatures"].hits == hits + 7
        assert spy.calls == 1
        assert spy.bytes >= fresh_twin.pixels.nbytes
