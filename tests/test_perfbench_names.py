"""Every program name the benchmark reaches still exists.

``perfbench/tracing.py`` wraps the names in its ``TARGETS`` table plus
``CountDistribution.tail`` and ``orderstat._base_distribution``, and reads
``pmf`` of every distribution it sees built; ``perfbench/run.py`` calls
``cli.main``, clears the caches and hands ``dist.binomial_cdf_beta`` to its
checker.  A deletion that drops one of them would make ``--trace 1`` stop
with ``MissingTargets``, or a metric read 0, without any other test failing.
"""

import importlib
import importlib.util
from pathlib import Path

import maxrand.cli
import maxrand.dist
import maxrand.orderstat
from maxrand.dist import CountDistribution, binomial_distribution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    missing = [f"maxrand.{module}.{attribute}" for module, attribute, _ in load_tracing().TARGETS
               if not hasattr(importlib.import_module(f"maxrand.{module}"), attribute)]
    assert missing == []


def test_the_methods_and_caches_the_tracer_reads_exist():
    # The tracer patches tail on the class itself, so it must be defined there.
    assert callable(vars(CountDistribution)["tail"])
    assert binomial_distribution(10, 0.5).pmf.size == 11
    assert callable(maxrand.orderstat._base_distribution.cache_info)
    assert callable(maxrand.orderstat._base_distribution.cache_clear)


def test_the_names_run_py_calls_exist():
    assert callable(maxrand.cli.main)
    assert callable(maxrand.dist.binomial_cdf_beta)
