"""Chain substrate: transactions, blocks, block tree, fork-choice baselines.

:mod:`repro.chain.audit` replays a chain against the §IV difficulty rules, so
it sits above :mod:`repro.core`.
"""
