"""Benchmark of the metarel package; entry point ``perfbench/run.py``."""
