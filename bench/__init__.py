"""The repo benchmark: see bench/README.md and BENCHMARK.json."""
