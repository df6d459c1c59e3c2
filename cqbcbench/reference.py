"""Reference tasks that gauge the machine's speed next to each timed
operation, so that the end-to-end timings are given at one fixed speed.

The benchmark shares its machine with other work, and the machine's speed
drifts by 10-30 % over tens of seconds to minutes. A run's raw times follow
that drift as much as they follow the program. So every timed operation is
preceded by a reference task that never touches cqbc, and the operation's
time t is reported as t * NOMINAL / r, where r is the reference's time just
before it: the time the operation would have taken with the machine at the
speed where the reference takes its nominal time. A change to cqbc does not
move r, so it moves the scaled time as it moves the raw one. Raw times are
printed next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# A fresh interpreter that loads a fixed set of standard-library modules,
# some with shared libraries: process start and module loading, which is
# what most of a cold cqbc command is. Gauges cli_cold and set-up.
PROCESS_CODE = "import " + ", ".join((
    "argparse", "ast", "asyncio", "concurrent.futures", "csv", "dataclasses",
    "decimal", "difflib", "email.mime.multipart", "fractions", "http.client",
    "inspect", "json", "logging", "multiprocessing", "pydoc", "sqlite3",
    "ssl", "statistics", "tarfile", "tomllib", "typing", "unittest",
    "xml.dom.minidom", "zipfile",
))
PROCESS_NOMINAL_S = 0.2

# In-process numpy work on arrays and Python work on small objects, as
# mc_large's operations do, in pieces small enough that the reference adds
# nothing to the workload's peak memory. Gauges mc_large.
IN_PROCESS_NOMINAL_S = 0.05


def in_process_seconds() -> float:
    start = perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.random(50_000)
        int((x < 0.5).sum())
        np.sort(x[:10_000])
        table = {i: (i * 0.5, str(i)) for i in range(5_000)}
        sorted(table.values())
    return perf_counter() - start


def scale(seconds: float, reference_s: float, nominal_s: float) -> float:
    """`seconds` at the machine speed where the reference takes nominal_s."""
    return seconds * nominal_s / reference_s
