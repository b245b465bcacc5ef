"""repro — a from-scratch reproduction of Themis (ICDCS 2022).

Themis: An Equal, Unpredictable, and Scalable Consensus for Consortium
Blockchain (Jia, Wang, Wang, Yu, Li, Sun — ICDCS 2022).

Subpackages
-----------

``repro.crypto``
    SHA-256 PoW puzzle math, secp256k1 ECDSA, Merkle trees.
``repro.chain``
    Transactions, blocks, the block tree, longest-chain and GHOST rules.
``repro.ledger``
    Account state, execution, the §IV-C NodeSetContract, mempool.
``repro.net``
    Deterministic discrete-event simulator, link model, topologies, gossip.
``repro.mining``
    Computing-power profiles (Fig. 3), the mining oracle, a real miner.
``repro.core``
    The paper's contribution: self-adaptive difficulty (§IV), GEOST (§V),
    equality metrics (§II).
``repro.consensus``
    Full node implementations: Themis / Themis-Lite / PoW-H and PBFT.
``repro.node``
    The deployment-shaped full node (ledger + governance + consensus).
``repro.sim``
    Experiment runner, workloads, metrics, attacks, canned scenarios.
``repro.analysis``
    Fork-rate model, Prop. 1/2 checks, overhead accounting, Table I.

Quickstart
----------

>>> from repro.sim.runner import ExperimentConfig, run_experiment
>>> result = run_experiment(ExperimentConfig(algorithm="themis", n=10, epochs=3))
>>> result.equality[-1] < result.equality[0]  # Equality improves with epochs
True
"""

__version__ = "1.0.0"
