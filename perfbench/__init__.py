"""End-to-end benchmark: workloads, tracing and the run command."""
