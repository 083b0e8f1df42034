"""Calls the optimizer's inner loop makes into numpy and the interpreter.

At the optimizer's sizes (m = 16 and 32) a Newton step's time is nearly all
per-call overhead, so the number of calls is the cost model, and, unlike
wall time, it does not depend on the machine.  ``_dispatches`` counts,
under ``sys.setprofile``, the built-in functions and methods that package
code calls (``c_call`` events from frames of ``src/permutons``, such as
``np.add.reduce`` or ``float``) plus the Python functions outside the
package that it calls (``np.einsum``, ``np.linalg.inv``, and each step of a
generator numpy resumes for it).  Ufunc calls and operators on arrays make
no profile event and are not counted.  Each bound is the count this code
makes on CPython 3.11 with numpy 2; a change that adds calls to these
paths fails here and names the new count.
"""

import os
import sys

import numpy as np

import permutons
from permutons import ConstraintSet, maximize_entropy, rebalance_marginals
from permutons.optimizer import _NewtonSystem
from permutons.patterns import PatternSpec

PACKAGE = os.path.dirname(permutons.__file__) + os.sep


def _in_package(frame) -> bool:
    return frame.f_code.co_filename.startswith(PACKAGE)


def _dispatches(call) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call":
            count += _in_package(frame)
        elif event == "call" and frame.f_back is not None:
            count += _in_package(frame.f_back) and not _in_package(frame)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def _system(m: int) -> _NewtonSystem:
    rng = np.random.default_rng(m)
    w = rebalance_marginals(np.exp(0.5 * rng.standard_normal((m, m))))
    taus = (PatternSpec.parse("12"), PatternSpec.parse("123"))
    return _NewtonSystem(w, taus, np.array([0.7, -1.3]), 10_000)


def test_one_hessian_product_and_one_preconditioner_call():
    system = _system(16)
    v = np.random.default_rng(1).standard_normal((16, 16))
    assert _dispatches(lambda: system.hessian(v)) <= 22
    assert _dispatches(lambda: system.precondition(v)) <= 2


def test_one_maximize_entropy_run():
    cons = ConstraintSet.of(("12", 0.3))
    maximize_entropy(cons, 16)      # imports and first-call caches
    assert _dispatches(lambda: maximize_entropy(cons, 16)) <= 1445
