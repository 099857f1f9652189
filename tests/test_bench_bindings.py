"""The names the benchmark under perfbench/ patches and reads must exist,
and its workloads must build their inputs.

perfbench traces pwncg by replacing module bindings (for example
``pwncg.fitting._log_i0_unchecked``) and reads a few settings
(``fitting.DEFAULT_OPTIMIZER.restarts``); each workload's set-up calls
the library (``spectral.stft_power``, ``sampling.sample_power``, ...). A
renamed or dropped binding, or a changed return type, otherwise shows only
when the benchmark runs. The untraced passes, which the benchmark times,
chunk a pass with a SpeedProbe wrapped around other bindings
(``spectral.fit_model``, ``fitting.log_laguerre_neg``); one pass of each
fitting workload runs that way here.
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


def test_untraced_fitting_passes_run_with_a_speed_probe(monkeypatch, tmp_path):
    # As perfbench/run.py times a pass, over a reference that does nothing:
    # the probe wraps spectral.fit_model in speech_patches and
    # fitting.log_laguerre_neg in noncentral_batches, which no traced table
    # holds. Smaller inputs keep it short: 0.1 s of the clip (43 patches)
    # and the two batches of lowest lambda.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import speed
    import workloads

    monkeypatch.setattr(workloads.SpeechPatches, "CLIP_S", 0.1)
    for name in ("speech_patches", "noncentral_batches"):
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workloads.WORKLOADS[name](1, workdir)
        if name == "noncentral_batches":
            workload.batches = workload.batches[:2]
        probe = speed.SpeedProbe(lambda: None)
        probe.start()
        out = workload.run(None, probe)
        probe.stop()
        outcome = workload.check(out)
        assert outcome.attempted > 0 and outcome.failed == 0, (name, outcome.problems)
