"""Benchmark for the bergefree verifier; see run.py."""
