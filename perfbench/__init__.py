"""Benchmark of the bregblock solver: see README.md and run.py."""
