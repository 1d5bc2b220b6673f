"""Benchmark of the sqlcalib command chain; see run.py."""
