# Convenience targets for the repro project.

PYTHON ?= python

.PHONY: install test bench examples report check all

install:
	# Offline-friendly editable install (pip install -e . needs network
	# for build isolation; setup.py develop does not).
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

report:
	$(PYTHON) -m repro report

# Static gates: the whole-program checker (determinism, syscall
# discipline and lock order, against the committed baseline) and one
# race-free sanitized run.
check:
	$(PYTHON) -m repro check --baseline staticcheck.baseline.json
	$(PYTHON) -m repro sanitize --scenario chaos --variant lock-better --seeds 1

all: install test bench
