"""Hypothesis profiles. Under CI (the CI variable set) the "ci" profile
derandomizes every property test, so a run's examples depend only on the
test code, and prints the blob that reproduces a failing example."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
