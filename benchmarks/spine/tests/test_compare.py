"""``compare`` applies each bound in its direction and insists on equal inputs."""

import copy
import json

from benchmarks.spine import compare, stats


def _set(rates, digest="d0", head="h0"):
    """A set with ``len(rates)`` untraced sim_n40 runs."""
    records = []
    for rate in rates:
        records.append(
            {
                "workload": "sim_n40",
                "trace": False,
                "inputs_digest": digest,
                "digests": {"sim.head_digest": head},
                "metrics": {
                    "sim_blocks_per_s": stats.metric("blocks/s", "higher", [rate]),
                    "setup_s": stats.metric("s", "lower", [0.5]),
                    "peak_rss_mb": stats.metric("MB", "lower", [300.0]),
                    "failed_share": stats.metric("ratio", "lower", [0.0]),
                },
            }
        )
    return {"seed": 1, "records": records}


def _status(rows, metric):
    return next(row.status for row in rows if row.metric == metric)


def test_fifteen_percent_slower_is_a_regression_and_three_is_not(tmp_path):
    base = _set([400.0, 402.0, 398.0])
    rows, errors = compare.compare_sets(base, _set([340.0, 341.0, 339.0]))
    assert not errors
    assert _status(rows, "sim_blocks_per_s") == "regression"
    rows, errors = compare.compare_sets(base, _set([388.0, 389.0, 387.0]))
    assert not errors
    assert {row.status for row in rows} == {"ok"}
    # Faster is never a regression, whatever the size.
    rows, _ = compare.compare_sets(base, _set([800.0, 801.0, 799.0]))
    assert _status(rows, "sim_blocks_per_s") == "ok"

    slow, same = tmp_path / "slow.json", tmp_path / "same.json"
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(base))
    slow.write_text(json.dumps(_set([340.0, 341.0, 339.0])))
    same.write_text(json.dumps(_set([388.0, 389.0, 387.0])))
    assert compare.main(base_path, slow) == 1
    assert compare.main(base_path, same) == 0


def test_row_carries_ratio_and_its_base():
    rows, _ = compare.compare_sets(_set([400.0]), _set([380.0]))
    row = next(row for row in rows if row.metric == "sim_blocks_per_s")
    assert (row.base, row.new) == (400.0, 380.0)
    assert abs(row.ratio - 0.95) < 1e-12 and abs(row.worse_by - 0.05) < 1e-12


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = _set([330.0, 400.0, 470.0])
    rows, _ = compare.compare_sets(noisy, _set([335.0, 395.0, 465.0]))
    assert _status(rows, "sim_blocks_per_s") == "unresolved"
    # ... unless every run of B beats every run of A.
    rows, _ = compare.compare_sets(noisy, _set([500.0, 600.0, 700.0]))
    assert _status(rows, "sim_blocks_per_s") == "ok"


def test_any_increase_of_failed_share_is_a_regression():
    worse = _set([400.0])
    worse["records"][0]["metrics"]["failed_share"] = stats.metric("ratio", "lower", [0.2])
    rows, _ = compare.compare_sets(_set([400.0]), worse)
    assert _status(rows, "failed_share") == "regression"


def test_setup_may_worsen_by_half_a_second_whatever_the_share():
    slower = _set([400.0])
    slower["records"][0]["metrics"]["setup_s"] = stats.metric("s", "lower", [0.9])
    rows, _ = compare.compare_sets(_set([400.0]), slower)
    assert _status(rows, "setup_s") == "ok"  # +80 %, but only +0.4 s
    slower["records"][0]["metrics"]["setup_s"] = stats.metric("s", "lower", [1.2])
    rows, _ = compare.compare_sets(_set([400.0]), slower)
    assert _status(rows, "setup_s") == "regression"


def test_mismatched_digests_are_rejected(tmp_path):
    base = _set([400.0])
    for other in (_set([400.0], digest="d1"), _set([400.0], head="h1")):
        rows, errors = compare.compare_sets(base, other)
        assert errors
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(other))
        assert compare.main(a, b) == 1
    _, errors = compare.compare_sets(base, copy.deepcopy(base))
    assert not errors
