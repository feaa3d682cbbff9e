"""Benchmark harness for qnf1d; see NOTES.md."""
