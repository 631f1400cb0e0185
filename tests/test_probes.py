"""Every name the benchmark's tracer wraps still exists in gbengine, and
each wrapped call is charged to the class it was wrapped on.

perfbench/probes.py is loaded by path and only read; a missing probed name
would otherwise surface only as a failed traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import gbengine  # noqa: F401  (the tracer resolves names in sys.modules)
from gbengine.spairqueue import MinHeap, PairTriangle
from gbengine.termqueue import Heap

PROBES_PY = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def _probes():
    spec = importlib.util.spec_from_file_location("_gbengine_probes",
                                                  PROBES_PY)
    probes = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = probes
    try:
        spec.loader.exec_module(probes)
    finally:
        del sys.modules[spec.name]
    return probes


def test_tracer_resolves_every_probe():
    probes = _probes()
    found = probes.Tracer().resolve()
    assert len(found) == len(probes.PROBES) == 38


def test_minheap_probes_count_koszul_heap_calls_only():
    # MinHeap inherits push, pop and peek from the term queue's Heap, which
    # also backs the pair fronts: wrapping them on MinHeap must leave those
    # heaps uncounted
    with _probes().Tracer() as tr:
        Heap().push((1, 0, 0))
        front = PairTriangle(lambda i, j: 5, front="heap")
        front.add_column(1, [(0, 5)])
        assert front.pop_min() == (0, 1)
        q = MinHeap()
        q.push(3)
        q.push(1)
        assert q.pop() == 1
    minheap = {k: n for k, n in tr.calls.items()
               if k.startswith("spairqueue.MinHeap.")}
    assert minheap == {"spairqueue.MinHeap.push": 2,
                       "spairqueue.MinHeap.pop": 1}
    assert "push" not in MinHeap.__dict__
