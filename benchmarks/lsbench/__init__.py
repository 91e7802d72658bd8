"""Harness of the latentservo benchmark; the entry point is ``benchmarks/run.py``."""
