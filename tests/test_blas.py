import threading

import numpy as np
import pytest
import scipy.linalg

import sitetransport.multisite as multisite
from sitetransport import TargetSpec, TransportConfig, transport_all
from sitetransport import blas
from sitetransport.blas import single_threaded_blas

from conftest import random_site


def thread_counts():
    """The current thread count of each bundled OpenBLAS, read by setting it
    to what it returns."""
    counts = []
    for setter in blas._thread_setters():
        count = setter(1)
        setter(count)
        counts.append(count)
    return counts


needs_openblas = pytest.mark.skipif(
    not blas._thread_setters(), reason="numpy and scipy bundle no OpenBLAS here"
)


@needs_openblas
class TestSingleThreadedBlas:
    def test_caps_inside_and_restores_after(self):
        before = thread_counts()
        with single_threaded_blas():
            assert thread_counts() == [1] * len(before)
        assert thread_counts() == before

    def test_restores_when_the_block_raises(self):
        before = thread_counts()
        with pytest.raises(RuntimeError):
            with single_threaded_blas():
                raise RuntimeError("boom")
        assert thread_counts() == before

    def test_nested_blocks_restore_only_at_the_outermost_exit(self):
        before = thread_counts()
        with single_threaded_blas():
            with single_threaded_blas():
                pass
            assert thread_counts() == [1] * len(before)
        assert thread_counts() == before

    def test_overlapping_blocks_in_two_threads_restore_the_entry_counts(self):
        before = thread_counts()
        entered, release = threading.Event(), threading.Event()

        def hold():
            with single_threaded_blas():
                entered.set()
                release.wait(10)

        worker = threading.Thread(target=hold)
        worker.start()
        assert entered.wait(10)
        with single_threaded_blas():
            pass
        assert thread_counts() == [1] * len(before)  # the worker's block is still open
        release.set()
        worker.join(10)
        assert not worker.is_alive()
        assert thread_counts() == before

    def test_transport_all_runs_its_sites_under_the_cap(self, rng, monkeypatch):
        seen = []
        inner = multisite._transport_site

        def spy(*args):
            seen.append(thread_counts())
            return inner(*args)

        monkeypatch.setattr(multisite, "_transport_site", spy)
        sites = [random_site(rng, n=120, d=2, site_id=f"s{j}") for j in range(2)]
        transport_all(sites, TargetSpec.pooled(sites), TransportConfig(estimators=("naive",)))
        assert seen == [[1] * len(blas._thread_setters())] * 2


def test_no_bundled_openblas_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "_thread_setters", lambda: ())
    with single_threaded_blas():
        factor = scipy.linalg.cholesky(4.0 * np.eye(2))
        product = factor @ factor
    np.testing.assert_array_equal(product, 4.0 * np.eye(2))
