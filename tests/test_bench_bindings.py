"""The names the benchmark under perfbench/ patches and reads must exist,
and its workloads must build their inputs.

perfbench traces pwncg by replacing module bindings (for example
``pwncg.fitting._log_i0_unchecked``) and reads a few settings
(``fitting.DEFAULT_OPTIMIZER.restarts``); each workload's set-up calls
the library (``spectral.stft_power``, ``sampling.sample_power``, ...). A
renamed or dropped binding, or a changed return type, otherwise shows only
when the benchmark runs.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers  # noqa: F401  (reads fitting's settings at import)
    import tracing
    import workloads  # noqa: F401  (binds the pwncg names the workloads call)

    targets = tracing.trace_targets(tracing.Tracer())
    originals = [getattr(obj, attr) for obj, attr, _ in targets]
    with tracing.patched(targets):
        for obj, attr, wrapper in targets:
            assert getattr(obj, attr) is wrapper, attr
    for (obj, attr, _), original in zip(targets, originals):
        assert getattr(obj, attr) is original, attr


def test_every_workload_sets_up(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload(1, workdir)  # raises if the library calls of its set-up fail
