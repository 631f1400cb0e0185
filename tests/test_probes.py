"""Every name the benchmark's tracer wraps still exists in gbengine.

perfbench/probes.py is loaded by path and only read; a missing probed name
would otherwise surface only as a failed traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import gbengine  # noqa: F401  (the tracer resolves names in sys.modules)

PROBES_PY = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def test_tracer_resolves_every_probe():
    spec = importlib.util.spec_from_file_location("_gbengine_probes",
                                                  PROBES_PY)
    probes = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = probes
    try:
        spec.loader.exec_module(probes)
        found = probes.Tracer().resolve()
    finally:
        del sys.modules[spec.name]
    assert len(found) == len(probes.PROBES) == 38
