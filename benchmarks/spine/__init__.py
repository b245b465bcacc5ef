"""The benchmark spine: five workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory for the catalogue and
``python -m benchmarks.spine --help`` for the commands.  Nothing here is
imported by ``src/repro`` or the tier-1 tests; the layers are measured from
outside, through their public functions.
"""
