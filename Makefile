# Convenience targets for the SPEX reproduction.

.PHONY: install test bench figures examples experiments clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

# tier-1 (ROADMAP.md)
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q

# the repository's one benchmark (BENCHMARK.json, benchmarks/e2e/README.md)
bench:
	python3 benchmarks/e2e/run.py

# the 13 paper-figure scripts (docs/benchmarking.md, EXPERIMENTS.md)
figures:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest benchmarks/ --benchmark-only --ignore=benchmarks/e2e $(PYTEST_ARGS)

examples:
	@for f in examples/*.py; do echo "== $$f =="; python $$f || exit 1; done

experiments:
	python -m repro.bench all

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
