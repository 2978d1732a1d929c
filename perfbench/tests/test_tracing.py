"""Self-time arithmetic and the wrapping of every import site."""

import pytest

from tracing import Tracer, self_times


def test_self_times_on_nested_spans():
    # root [0, 10) holds a [1, 4) and b [5, 9); a holds c [2, 3); b holds d [6, 7) and e [7, 8.5)
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.5]
    parents = [-1, 0, 1, 0, 3, 3]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(self_times(starts, ends, parents)) == pytest.approx(10.0)


def test_tracer_patches_import_sites_and_restores():
    import marcox.cli
    import marcox.inference
    import marcox.intensity
    import marcox.marginal

    originals = (marcox.marginal.alpha_integral, marcox.inference.marginal_loglik, marcox.cli.marginal_loglik)
    tracer = Tracer()
    tracer.install()
    try:
        assert marcox.marginal.alpha_integral is marcox.intensity.alpha_integral
        assert marcox.marginal.alpha_integral is not originals[0]
        assert marcox.inference.marginal_loglik is marcox.marginal.marginal_loglik is marcox.cli.marginal_loglik
        assert marcox.cli.marginal_loglik is not originals[2]
        gamma = marcox.PolyIntensity((1.0, 0.1))
        params = marcox.ModelParams(1.0, 0.5, gamma)
        x = marcox.paths.CountPath(T=3.0, jumps=[0.5, 1.0, 2.5])
        marcox.cli.marginal_loglik(x, params)
    finally:
        tracer.uninstall()
    assert (marcox.marginal.alpha_integral, marcox.inference.marginal_loglik, marcox.cli.marginal_loglik) == originals
    s = tracer.summary()
    assert s["marginal.marginal_loglik"]["calls"] == 1
    assert s["intensity.alpha_integral"]["calls"] == 4  # three events plus the lambda integral
    assert s["intensity.is_nonneg"]["calls"] == 1
    total_self = sum(row["self_s"] for row in s.values())
    assert total_self == pytest.approx(tracer.root_seconds())
    assert tracer.root_seconds() == pytest.approx(s["marginal.marginal_loglik"]["incl_s"])
