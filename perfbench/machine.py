"""Print the facts of the machine and build the benchmark ran on, as JSON.

Run with the same interpreter and environment as the measured commands.
"""

import json
import os
import platform
import sys

import numpy
import yaml


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas():
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    info = deps.get("blas", {})
    return {"name": info.get("name"), "version": info.get("version"),
            "config": info.get("openblas configuration")}


print(json.dumps({
    "nproc": os.cpu_count(),
    "affinity": len(os.sched_getaffinity(0)),
    "cpu": cpu_model(),
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": blas(),
    "libyaml": bool(yaml.__with_libyaml__),
    "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
}))
