"""Benchmark for faultsched: four workloads, end-to-end and per-layer metrics."""
