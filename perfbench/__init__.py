"""Benchmark of the rfva CLI; see run.py."""
