"""Block-explorer read tier: JSON API over durable chain storage.

See :mod:`repro.explorer.service` for the endpoint table and
:mod:`repro.explorer.http` for the server and ``repro explorer`` CLI.
"""

# The spine benchmark (benchmarks/spine/store_workload.py, kept byte-stable
# so its runs compare across commits) imports the server from here.
from repro.explorer.http import start_explorer  # noqa: F401
