"""Acceptance gate: every quantitative reproduction target, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion, or ``relwave verify`` for the same checks from the CLI.  Criterion
10a is a permanent expected failure (see the module docstring of
relwave.acceptance); its companion 10a' verifies the limit in its regime.
"""

import pytest

from relwave import specfun
from relwave.acceptance import _CRITERIA, CriterionResult

# points each criterion sends to the mpmath fallback of D_nu: criterion 11's
# D0 and D1 identities at z = 2 and its recurrence and cross-relation at
# z = 3 + 3i, on rays where the march is unstable; none elsewhere
MPMATH_POINTS = {"11": 9}


@pytest.mark.parametrize("cid,name,fn,known_failure",
                         _CRITERIA, ids=[c[0] for c in _CRITERIA])
def test_criterion(cid, name, fn, known_failure, monkeypatch):
    served = []
    pcfd = specfun._mpmath_pcfd

    def record(nu, z, derivative=False):
        served.extend(z)
        return pcfd(nu, z, derivative)

    monkeypatch.setattr(specfun, "_mpmath_pcfd", record)
    passed, detail = fn()
    assert len(served) == MPMATH_POINTS.get(cid, 0), cid
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {cid}: {name} -- {detail}")
    if known_failure:
        if passed:
            pytest.fail(f"criterion {cid} unexpectedly passed: {detail}")
        pytest.xfail(f"documented known failure: {detail}")
    assert passed, f"criterion {cid} ({name}): {detail}"
