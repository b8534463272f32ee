# Local development targets; see docs/DEVELOPING.md.

.PHONY: lint typecheck test coverage check

lint:
	python -m tools.lint src/ tools/ benchmarks/ scripts/

typecheck:
	MYPYPATH=src python -m mypy src/repro tools

test:
	PYTHONPATH=src python -m pytest -x -q

coverage:
	@if python -c "import pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src python -m pytest -q --cov=repro \
			--cov-report=term-missing:skip-covered --cov-fail-under=75; \
	else \
		echo "pytest-cov is not installed (pip install pytest-cov);"; \
		echo "falling back to 'make test' without coverage."; \
		PYTHONPATH=src python -m pytest -x -q; \
	fi

check:
	sh scripts/check.sh
