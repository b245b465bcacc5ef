"""Span arithmetic, and that tracing leaves no trace behind."""

import subprocess
import sys
import time

from benchmarks.spine.common import ROOT
from benchmarks.spine.trace import SITES, Tracer, _resolve


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.keep("inner")

    def leaf():
        time.sleep(0.02)

    inner = tracer.wrap("inner", leaf)

    def parent():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", parent)
    with tracer.span("root"):
        outer()
        time.sleep(0.005)

    assert dict(tracer.calls) == {"inner": 2, "outer": 1, "root": 1}
    inner_s, outer_s, root_s = (tracer.self_s[n] for n in ("inner", "outer", "root"))
    assert 0.04 <= inner_s < 0.06
    assert 0.01 <= outer_s < 0.025  # its own sleep, not the children's
    assert 0.005 <= root_s < 0.02
    # Nothing is counted twice: self times add up to the root's duration.
    root_span = next(span for span in tracer.spans if span[2] == "root")
    assert abs(tracer.total_self_s() - (root_span[4] - root_span[3])) < 1e-6
    assert len(tracer.durations["inner"]) == 2
    # Raw spans name their parent: inner -> outer -> root -> none.
    by_id = {span[0]: span for span in tracer.spans}
    first_inner = next(span for span in tracer.spans if span[2] == "inner")
    assert by_id[first_inner[1]][2] == "outer"
    assert by_id[by_id[first_inner[1]][1]][2] == "root"
    assert root_span[1] == 0


def test_a_raising_boundary_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    with tracer.span("root"):
        try:
            wrapped()
        except ValueError:
            pass
    assert tracer.calls["boom"] == 1
    assert tracer._local.stack == []


def test_every_site_resolves_and_install_is_undone():
    originals = {
        (module, dotted): _resolve(module, dotted)[0].__dict__[dotted.rsplit(".", 1)[-1]]
        for sites in SITES.values()
        for module, dotted in sites
    }
    tracer = Tracer()
    tracer.install(SITES)
    try:
        collected = tracer.collect_instances("repro.ledger.mempool", "Mempool")
        from repro.ledger.mempool import Mempool

        pool = Mempool()
        assert collected == [pool]
        for (module, dotted), original in originals.items():
            owner, leaf = _resolve(module, dotted)
            assert owner.__dict__[leaf] is not original
            assert owner.__dict__[leaf].__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, dotted), original in originals.items():
        owner, leaf = _resolve(module, dotted)
        assert owner.__dict__[leaf] is original
    from repro.ledger.mempool import Mempool

    assert not hasattr(Mempool.__init__, "__wrapped__")


def test_untraced_run_never_imports_trace():
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT)!r}, {str(ROOT / 'src')!r}]\n"
        "from benchmarks.spine import runner\n"
        "record = runner.run_workload('store_explore', 1, 2.0, trace=False, quick=True)\n"
        "assert record['correct'], record['checks']\n"
        "assert 'benchmarks.spine.trace' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)
