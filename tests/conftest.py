"""Session header: the versions and thread settings a run ran under.

The fits are meant not to depend on the number of BLAS threads, and
``test_pipeline_does_not_depend_on_blas_threads`` checks that they do not;
recording the setting in every test log lets a result that moves anyway be
traced.  The header only reads; it sets nothing.
"""

import os
import platform

import numpy as np
import scipy

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def pytest_report_header(config):
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}"
                       for name in _THREAD_VARIABLES)
    return [
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, BLAS {_blas_name()}",
        f"{threads}, CPUs available {len(os.sched_getaffinity(0))}",
    ]
