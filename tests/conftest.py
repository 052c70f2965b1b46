"""Hypothesis profiles.  Local runs keep the default profile, which
draws new examples each run.  CI passes --hypothesis-profile=ci, whose
examples are fixed, so a failure on a hosted runner replays anywhere;
print_blob prints the blob that reproduces it with @reproduce_failure."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
