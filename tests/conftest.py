"""Test-process setup.

OpenBLAS runs on one thread, as in the CLI: this is set before anything
imports numpy, so the test process has one thread and the null model may
fork its workers here (a caller's value is kept).

Hypothesis profiles. Under CI (the CI variable set) the "ci" profile
derandomizes every property test, so a run's examples depend only on the
test code, and prints the blob that reproduces a failing example."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
