"""The open loop charges a stall to every request it delays."""

import asyncio
import time
from types import SimpleNamespace

from benchmarks.spine.live_workloads import LiveSpec, LoadState, _generate

RATE = 100.0
STALL_AT = 20
STALL_S = 0.2


class StallingNode:
    """Accepts transactions; the ``STALL_AT``-th one blocks the loop."""

    def __init__(self) -> None:
        self.seen = 0
        self.ctx = SimpleNamespace(members=[b"m"])

    def submit_transaction(self, tx) -> None:
        if self.seen == STALL_AT:
            time.sleep(STALL_S)
        self.seen += 1


def test_latency_runs_from_the_due_time_not_the_send_time():
    spec = LiveSpec(signed=False, i0=1.0, rate=RATE, targets=1, stop_at=None, rebuild_at=None)
    node = StallingNode()
    txs = [SimpleNamespace(tx_id=bytes([i])) for i in range(60)]
    load = LoadState()
    asyncio.run(
        _generate(spec, [SimpleNamespace(node=node)], txs, len(txs), load, None, lambda: None)
    )
    assert node.seen == len(txs) and load.generator_done
    # Due times stay on the schedule fixed at the start: the stall moves none.
    gaps = [b - a for a, b in zip(load.due, load.due[1:], strict=False)]
    assert all(abs(gap - 1.0 / RATE) < 1e-9 for gap in gaps)
    # Requests before the stall ran on time; those behind it pay for it.
    assert max(load.late[:STALL_AT]) < 0.05
    assert load.late[STALL_AT + 1] > 0.15
    assert load.late[STALL_AT + 5] > 0.10
    assert load.late[-1] < 0.05  # and the generator catches up
