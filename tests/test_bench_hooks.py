"""The benchmark's tracer must find every dx name it wraps.

``bench/tracing.py`` replaces functions at the names their callers look up;
a refactor that renames or drops one of them breaks traced benchmark runs.
Installing and uninstalling the tracer here makes such a refactor fail the
test suite instead.
"""

import importlib
import sys
from pathlib import Path

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def _bench_module(name):
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH)


def _attrs(mods):
    """Every attribute of the modules and of the classes they define."""
    out = {}
    for name, mod in mods.items():
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member, inner in vars(value).items():
                    out[(name, f"{attr}.{member}")] = inner
    return out


def test_install_and_uninstall_dx_tracing():
    tracing = _bench_module("tracing")
    # the namespace bench/run.py's import_dx builds, without re-importing dx
    mods = {m: importlib.import_module(f"dx.{m}") for m in _bench_module("run").DX_MODULES}
    before = _attrs(mods)
    tracer = tracing.Tracer()
    try:
        tracing.install_dx_tracing(tracer, mods)
        wrapped = [key for key, value in _attrs(mods).items() if value is not before[key]]
        assert wrapped, "the tracer wrapped nothing"
    finally:
        tracer.uninstall()
    after = _attrs(mods)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
