"""The benchmark's tracer wraps named entry points of every layer; each one
must still exist, or a traced benchmark run breaks."""

import importlib.util
import os

WORKER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "worker.py")


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    targets = worker.trace_targets()
    assert len(targets) > 30
    missing = [span for span, owner, attr, _ in targets if not callable(getattr(owner, attr, None))]
    assert missing == []
