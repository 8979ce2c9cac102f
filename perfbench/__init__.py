"""Benchmark of the risbeam CLI flows; see README.md and run.py."""
