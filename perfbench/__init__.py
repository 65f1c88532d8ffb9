"""Benchmark harness for rmdp; see README.md in this directory."""
