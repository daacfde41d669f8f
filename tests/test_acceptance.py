"""Full-scale acceptance suite: every criterion of `harness.CRITERIA`, run at
the size it is pinned at. Each test prints a PASS line with its headline
numbers; run with `pytest -s tests/test_acceptance.py` to see them.

Seeds, sizes, bands and tolerances live with the criteria: Monte Carlo
comparisons use 3 standard errors, quadrature comparisons use the analytic
error budget reported alongside the value, and integer identities are
asserted exactly. `pseudochaos selfcheck` runs the same table at reduced size.
"""
from pseudochaos.harness import CRITERIA


def _acceptance_test(criterion):
    def test():
        result = criterion(lambda full: full)
        assert result.passed, result.detail
        print(f"PASS {result.name}: {result.detail}")

    test.__name__ = test.__qualname__ = f"test_{criterion.__name__}"
    return test


# one test per criterion, named after it, so `-k criterion_5` selects one
for _criterion in CRITERIA:
    globals()[f"test_{_criterion.__name__}"] = _acceptance_test(_criterion)
