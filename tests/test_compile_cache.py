"""Differential tests for the content-addressed compilation cache.

A cache that returns stale or mismatched artifacts is worse than no
cache, so every property is checked differentially against a fresh
pipeline run:

* over a grid of filters x backends x devices, cached compiles are
  byte-identical to uncached ones (device code, host code, selected
  block, resource estimates);
* the key changes exactly when the compiled content changes — kernel IR,
  codegen options, device, backend, boundary mode — and does NOT change
  for non-baked (``Uniform``) parameter values;
* keys are stable across processes (no ``id()``/``hash()``
  randomization leaks), verified under different ``PYTHONHASHSEED``;
* the on-disk store round-trips across cache instances and shrugs off
  corrupt entries.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import CompilationCache, compile_kernel
from repro.dsl.boundary import Boundary
from repro.filters.gaussian import make_gaussian
from repro.filters.laplacian import make_laplacian
from repro.filters.sobel import make_sobel

from .helpers import AddScalar, AddUniform, CopyKernel, accessor_for, \
    build_convolution, build_image_pair, random_image
from repro.dsl import IterationSpace

GRID_FILTERS = {
    "gaussian": lambda: make_gaussian(32, 32, size=5,
                                      data=random_image(32, 32))[0],
    "sobel": lambda: make_sobel(32, 32, axis="x",
                                data=random_image(32, 32))[0],
    "laplacian": lambda: make_laplacian(32, 32, connectivity=8,
                                        data=random_image(32, 32))[0],
}
#: (backend, device) pairs — CUDA only exists on the NVIDIA cards
GRID_TARGETS = [
    ("cuda", "Tesla C2050"),
    ("opencl", "Tesla C2050"),
    ("opencl", "Radeon HD 5870"),
]


def _artifact(compiled):
    """Everything a cache hit must reproduce byte-for-byte."""
    return {
        "device_code": compiled.source.device_code,
        "host_code": compiled.source.host_code,
        "entry": compiled.source.entry,
        "backend": compiled.source.backend,
        "block": compiled.options.block,
        "options": compiled.options,
        "resources": compiled.resources,
        "occupancy": compiled.selected_occupancy,
    }


def _add_scalar(value):
    src, dst = build_image_pair(16, 16, random_image())
    return AddScalar(IterationSpace(dst), accessor_for(src), value)


def _add_uniform(value):
    src, dst = build_image_pair(16, 16, random_image())
    return AddUniform(IterationSpace(dst), accessor_for(src), value)


class TestDifferentialGrid:
    @pytest.mark.parametrize("backend,device", GRID_TARGETS)
    @pytest.mark.parametrize("filter_name", sorted(GRID_FILTERS))
    def test_cached_equals_fresh(self, filter_name, backend, device):
        cache = CompilationCache()
        fresh = compile_kernel(GRID_FILTERS[filter_name](),
                               backend=backend, device=device)
        cold = compile_kernel(GRID_FILTERS[filter_name](),
                              backend=backend, device=device, cache=cache)
        warm = compile_kernel(GRID_FILTERS[filter_name](),
                              backend=backend, device=device, cache=cache)
        assert not fresh.from_cache and not cold.from_cache
        assert warm.from_cache
        assert warm.cache_key == cold.cache_key
        assert cache.stats.hits + cache.stats.disk_hits == 1
        assert _artifact(fresh) == _artifact(cold) == _artifact(warm)

    def test_keys_distinct_across_grid(self):
        cache = CompilationCache()
        keys = set()
        for filter_name, build in sorted(GRID_FILTERS.items()):
            for backend, device in GRID_TARGETS:
                compiled = compile_kernel(build(), backend=backend,
                                          device=device, cache=cache)
                keys.add(compiled.cache_key)
        assert len(keys) == len(GRID_FILTERS) * len(GRID_TARGETS)

    def test_warm_hit_executes_like_fresh(self):
        import numpy as np
        cache = CompilationCache()
        data = random_image(32, 32, seed=3)
        k1, _, out1 = make_gaussian(32, 32, size=3, data=data)
        compile_kernel(k1, backend="cuda", device="Tesla C2050",
                       cache=cache).execute()
        k2, _, out2 = make_gaussian(32, 32, size=3, data=data)
        warm = compile_kernel(k2, backend="cuda", device="Tesla C2050",
                              cache=cache)
        assert warm.from_cache
        warm.execute()
        np.testing.assert_array_equal(out1.get_data(), out2.get_data())


class TestKeySensitivity:
    def _key(self, kernel, cache=None, **kw):
        cache = cache or CompilationCache()
        return compile_kernel(kernel, backend=kw.pop("backend", "cuda"),
                              device=kw.pop("device", "Tesla C2050"),
                              cache=cache, **kw).cache_key

    def test_equal_content_equal_key(self):
        assert self._key(build_convolution()) == \
            self._key(build_convolution())

    def test_ir_change_changes_key(self):
        base = self._key(build_convolution())
        assert self._key(build_convolution(mask_size=5)) != base
        assert self._key(build_convolution(coefficient_scale=2.0)) != base

    def test_baked_scalar_changes_key_and_code(self):
        cache = CompilationCache()
        a = compile_kernel(_add_scalar(1.5), cache=cache)
        b = compile_kernel(_add_scalar(2.5), cache=cache)
        assert a.cache_key != b.cache_key
        assert a.source.device_code != b.source.device_code
        assert cache.stats.hits == 0

    def test_uniform_value_does_not_change_key(self):
        # runtime (non-baked) parameters are kernel arguments, never code
        # bytes — different values must share one cached artifact
        cache = CompilationCache()
        a = compile_kernel(_add_uniform(1.5), cache=cache)
        b = compile_kernel(_add_uniform(2.5), cache=cache)
        assert a.cache_key == b.cache_key
        assert b.from_cache
        assert a.source.device_code == b.source.device_code

    def test_output_pixel_type_changes_key(self):
        # differential for the fingerprint memo: the output pixel type is
        # the one thing the parser reads off iteration_space, so two
        # kernels identical in every other fingerprinted attribute must
        # not share a frontend memo entry (or the second would be served
        # code generated for the wrong type)
        from repro import Image

        def build(pixel_type):
            src, _ = build_image_pair(16, 16, random_image())
            dst = Image(16, 16, pixel_type)
            return CopyKernel(IterationSpace(dst), accessor_for(src))

        cache = CompilationCache()
        a = compile_kernel(build("float32"), cache=cache)
        b = compile_kernel(build("float64"), cache=cache)
        assert not b.from_cache
        assert a.cache_key != b.cache_key
        assert a.source.device_code != b.source.device_code
        assert a.ir.pixel_type.name == "float"
        assert b.ir.pixel_type.name == "double"

    def test_boundary_changes_key(self):
        assert self._key(build_convolution(boundary=Boundary.CLAMP)) != \
            self._key(build_convolution(boundary=Boundary.MIRROR))

    def test_device_and_backend_change_key(self):
        base = self._key(build_convolution())
        assert self._key(build_convolution(),
                         device="Quadro FX 5800") != base
        assert self._key(build_convolution(), backend="opencl") != base

    def test_options_change_key(self):
        base = self._key(build_convolution())
        assert self._key(build_convolution(), block=(32, 4)) != base
        assert self._key(build_convolution(), fast_math=True) != base
        assert self._key(build_convolution(), pixels_per_thread=2) != base
        assert self._key(build_convolution(), unroll=True) != base
        # vectorization targets the OpenCL backend only
        assert self._key(build_convolution(), backend="opencl",
                         vectorize=4) != \
            self._key(build_convolution(), backend="opencl")


class TestCrossProcessStability:
    def test_key_stable_under_hash_randomization(self, tmp_path):
        script = tmp_path / "emit_key.py"
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script.write_text(
            "import sys\n"
            f"sys.path.insert(0, {os.path.join(root, 'src')!r})\n"
            f"sys.path.insert(0, {root!r})\n"
            "from tests.helpers import build_convolution\n"
            "from repro import CompilationCache, compile_kernel\n"
            "c = compile_kernel(build_convolution(), backend='cuda',\n"
            "                   device='Tesla C2050',\n"
            "                   cache=CompilationCache())\n"
            "print(c.cache_key)\n")
        keys = []
        for hashseed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            out = subprocess.run([sys.executable, str(script)],
                                 capture_output=True, text=True, env=env,
                                 timeout=120)
            assert out.returncode == 0, out.stderr
            keys.append(out.stdout.strip())
        in_process = compile_kernel(build_convolution(), backend="cuda",
                                    device="Tesla C2050",
                                    cache=CompilationCache()).cache_key
        assert keys[0] == keys[1] == in_process


class TestDiskStore:
    def test_roundtrip_across_instances(self, tmp_path):
        first = CompilationCache(directory=str(tmp_path))
        cold = compile_kernel(build_convolution(), backend="cuda",
                              device="Tesla C2050", cache=first)
        assert first.stats.disk_writes == 1

        second = CompilationCache(directory=str(tmp_path))
        warm = compile_kernel(build_convolution(), backend="cuda",
                              device="Tesla C2050", cache=second)
        assert warm.from_cache
        assert second.stats.disk_hits == 1
        assert _artifact(cold) == _artifact(warm)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        first = CompilationCache(directory=str(tmp_path))
        cold = compile_kernel(build_convolution(), backend="cuda",
                              device="Tesla C2050", cache=first)
        [entry] = list(tmp_path.rglob("*.json"))
        entry.write_text("{definitely not json")

        second = CompilationCache(directory=str(tmp_path))
        again = compile_kernel(build_convolution(), backend="cuda",
                               device="Tesla C2050", cache=second)
        assert not again.from_cache
        assert second.stats.misses == 1
        assert _artifact(cold) == _artifact(again)
        # the recompile healed the corrupt file in place
        assert second.stats.disk_writes == 1
        third = CompilationCache(directory=str(tmp_path))
        assert compile_kernel(build_convolution(), backend="cuda",
                              device="Tesla C2050",
                              cache=third).from_cache

    def test_undecodable_entry_is_a_miss(self, tmp_path):
        # an entry under the current key whose body this build cannot
        # decode (e.g. hand-edited) must fall through to a recompile and
        # be replaced, never crash compile_kernel
        first = CompilationCache(directory=str(tmp_path))
        cold = compile_kernel(build_convolution(), backend="cuda",
                              device="Tesla C2050", cache=first)
        [entry] = list(tmp_path.rglob("*.json"))
        data = json.loads(entry.read_text())
        data["format"] = 999
        entry.write_text(json.dumps(data))

        second = CompilationCache(directory=str(tmp_path))
        again = compile_kernel(build_convolution(), backend="cuda",
                               device="Tesla C2050", cache=second)
        assert not again.from_cache
        assert _artifact(cold) == _artifact(again)
        assert json.loads(entry.read_text())["format"] != 999
        third = CompilationCache(directory=str(tmp_path))
        assert compile_kernel(build_convolution(), backend="cuda",
                              device="Tesla C2050",
                              cache=third).from_cache

    def test_entry_format_is_part_of_the_key(self, monkeypatch, tmp_path):
        # a future ENTRY_FORMAT bump must orphan old entries, not decode
        # them: same compile under a patched format lands on another key
        import repro.cache.key as key_mod
        cache = CompilationCache(directory=str(tmp_path))
        current = compile_kernel(build_convolution(), backend="cuda",
                                 device="Tesla C2050", cache=cache)
        monkeypatch.setattr(key_mod, "ENTRY_FORMAT",
                            key_mod.ENTRY_FORMAT + 1)
        bumped = compile_kernel(build_convolution(), backend="cuda",
                                device="Tesla C2050",
                                cache=CompilationCache(
                                    directory=str(tmp_path)))
        assert bumped.cache_key != current.cache_key
        assert not bumped.from_cache

    def test_clear(self, tmp_path):
        cache = CompilationCache(directory=str(tmp_path))
        compile_kernel(build_convolution(), backend="cuda",
                       device="Tesla C2050", cache=cache)
        assert len(list(tmp_path.rglob("*.json"))) == 1
        cache.clear(disk=True)
        assert len(cache) == 0
        assert list(tmp_path.rglob("*.json")) == []


class TestEviction:
    def test_lru_bounds_memory(self):
        cache = CompilationCache(capacity=2)
        for mask_size in (3, 5, 7):
            compile_kernel(build_convolution(mask_size=mask_size),
                           backend="cuda", device="Tesla C2050",
                           cache=cache)
        assert len(cache) == 2
        assert cache.stats.evictions >= 1

    def test_restore_after_eviction_not_counted_or_rewritten(self,
                                                             tmp_path):
        # an entry LRU-evicted from memory but still on disk is not a new
        # store: re-putting it must leave stores/disk_writes untouched
        cache = CompilationCache(capacity=1, directory=str(tmp_path))
        key_a, key_b = "aa" + "0" * 62, "bb" + "0" * 62
        cache.put(key_a, {"payload": "a"})
        cache.put(key_b, {"payload": "b"})      # evicts key_a from memory
        assert cache.stats.evictions == 1
        assert cache.stats.stores == 2
        assert cache.stats.disk_writes == 2

        cache.put(key_a, {"payload": "a"})      # still on disk
        assert cache.stats.stores == 2
        assert cache.stats.disk_writes == 2
        assert cache.get(key_a) == {"payload": "a"}


class TestHitRates:
    """`ir_hit_rate` vs `frontend_hit_rate` (previously one conflated
    `hit_rate`/`total` that silently mixed both counter families)."""

    def _compile(self, cache, backend="cuda"):
        return compile_kernel(make_gaussian(32, 32, size=3)[0],
                              backend=backend, device="Tesla C2050",
                              cache=cache)

    def test_rates_track_their_own_counter_families(self):
        cache = CompilationCache()
        assert not self._compile(cache).from_cache
        assert self._compile(cache).from_cache
        s = cache.stats
        assert (s.hits + s.disk_hits, s.misses) == (1, 1)
        assert s.ir_hit_rate == 0.5
        assert (s.frontend_hits, s.frontend_misses) == (1, 1)
        assert s.frontend_hit_rate == 0.5

    def test_frontend_traffic_does_not_skew_ir_rate(self):
        # same kernel for two backends: the frontend memo hits while
        # the artifact store misses — exactly the shape the old single
        # hit_rate misreported
        cache = CompilationCache()
        self._compile(cache, backend="cuda")
        self._compile(cache, backend="opencl")
        s = cache.stats
        assert (s.hits, s.misses) == (0, 2)
        assert s.ir_hit_rate == 0.0
        assert (s.frontend_hits, s.frontend_misses) == (1, 1)
        assert s.frontend_hit_rate == 0.5

    def test_dict_and_summary_expose_both_rates(self):
        from repro.cache.store import CacheStats

        s = CacheStats(hits=3, misses=1, frontend_hits=5)
        assert s.ir_hit_rate == 0.75
        assert not hasattr(s, "hit_rate")     # no conflated single rate
        assert s.frontend_hit_rate == 1.0
        d = s.as_dict()
        assert d["ir_hit_rate"] == 0.75
        assert d["frontend_hit_rate"] == 1.0
        assert "ir_hit_rate=75.0%" in s.summary()
        assert "frontend_hit_rate=100.0%" in s.summary()

    def test_zero_lookup_rates_are_zero(self):
        from repro.cache.store import CacheStats

        s = CacheStats()
        assert s.ir_hit_rate == 0.0
        assert s.frontend_hit_rate == 0.0
        assert s.lookups == 0 and s.frontend_lookups == 0

    def test_metrics_namespace(self):
        from repro.cache.store import CacheStats

        s = CacheStats(hits=2, misses=2, frontend_hits=1,
                       frontend_misses=1)
        m = s.metrics()
        assert m["cache.ir.hit_rate"] == 0.5
        assert m["cache.frontend.hit_rate"] == 0.5
        assert all(k.startswith("cache.") for k in m)


class TestSingleFlight:
    """Shared-instance concurrency: the serve workers hammer one cache."""

    def test_concurrent_same_key_compiles_exactly_once(self):
        """N threads racing on one key must produce ONE fresh compile:
        the winner pays codegen, every racer blocks in locked() and then
        reads the stored entry as a hit (no cache stampede)."""
        import threading

        from repro.backends import base as backends_base
        from repro.runtime import compile as compile_mod

        cache = CompilationCache()
        n_threads = 12
        generate_calls = []
        gen_lock = threading.Lock()
        real_generate = backends_base.generate

        def counting_generate(*args, **kwargs):
            with gen_lock:
                generate_calls.append(threading.get_ident())
            return real_generate(*args, **kwargs)

        results = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def worker(i):
            barrier.wait()     # maximise the race window
            kernel = GRID_FILTERS["gaussian"]()
            results[i] = compile_kernel(kernel, backend="cuda",
                                        device="Tesla C2050",
                                        cache=cache)

        # compile_mod resolved `generate` at import time
        saved = compile_mod.generate
        compile_mod.generate = counting_generate
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            compile_mod.generate = saved

        # one fresh compile = provisional + final codegen, nothing more
        assert len(generate_calls) == 2
        assert cache.stats.stores == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == n_threads - 1
        fresh = [r for r in results if not r.from_cache]
        assert len(fresh) == 1
        baseline = _artifact(fresh[0])
        for r in results:
            assert _artifact(r) == baseline

    def test_distinct_keys_do_not_serialise(self):
        """locked() is per key: two different kernels can hold their
        flights simultaneously (a coarse global lock would deadlock this
        ordering)."""
        cache = CompilationCache()
        with cache.locked("a" * 64):
            with cache.locked("b" * 64):
                pass
        # both entries were refcounted away
        assert cache._key_locks == {}

    def test_locked_releases_on_error(self):
        cache = CompilationCache()
        with pytest.raises(RuntimeError):
            with cache.locked("c" * 64):
                raise RuntimeError("boom")
        assert cache._key_locks == {}
        # the key is free again
        with cache.locked("c" * 64):
            pass
