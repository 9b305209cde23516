"""Set-up probe: a fresh interpreter imports the package and finishes the
smallest call of one workload.  ``run.py`` times this script end to end.

    python3 perfbench/setup_probe.py <workload> <work directory>
"""

import sys

import workloads

name, workdir = sys.argv[1], sys.argv[2]
workloads.WORKLOADS[name].call(workloads.GOLDEN_SEED, workloads.TINY_TRIALS[name], workdir)
