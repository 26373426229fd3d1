"""The benchmark's tracer wraps limprof names in the namespaces that call
them (``perfbench/tracing.py``). A refactor that drops or renames one of
those names would only break ``perfbench/run.py --trace 1``; this test makes
it fail the suite instead. It imports the tracer and never installs it."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    missing = []
    for target, attr, _ in tracing.CALL_SITES + tracing.COUNTED_SEQUENCES:
        owner = tracing._resolve(target)
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{target}.{attr}")
    assert missing == []
