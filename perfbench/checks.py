"""Answer checks on the ``RunRecord`` list of one pass.

Every sweep must finish without an error and produce a finite best error.
At a seed stored in ``reference.json`` each sweep must also reproduce its
stored ``(best_k, best_error, steps, breakdown)``: ``best_k``, ``steps`` and
the breakdown exactly, ``best_error`` to ``BEST_ERROR_RTOL`` relative, the
inner-tolerance bound of acceptance criterion 6.  At ``L = I`` each hybrid
method must reproduce its plain Krylov method step by step to
``IDENTITY_RTOL`` (acceptance criterion 4).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

BEST_ERROR_RTOL = 1e-4
IDENTITY_RTOL = 1e-8

_FLOAT = re.compile(r"[-+]?\d+\.\d+e[-+]\d+")


def sweep_key(rec) -> str:
    return f"{rec.problem}/n={rec.size}/eps={rec.epsilon:g}/{rec.method}"


def breakdown_signature(text: str | None) -> str | None:
    """The breakdown message without its floating-point values, which can
    differ in the last digits between BLAS builds."""
    return None if text is None else _FLOAT.sub("<x>", text)


def answer(rec) -> dict:
    return {
        "best_k": rec.best_k,
        "best_error": rec.best_error,
        "steps": len(rec.rows),
        "breakdown": breakdown_signature(rec.breakdown),
    }


def load_reference(workload: str, seed: int) -> dict | None:
    """Stored answers of ``workload`` at ``seed``, or None when the seed has none."""
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return data["seeds"].get(str(seed), {}).get(workload)


def _sanity(rec) -> str | None:
    if rec.error:
        return f"raised {rec.error}"
    if not rec.rows:
        return "no outer steps"
    if rec.best_error is None or not math.isfinite(rec.best_error):
        return f"best error {rec.best_error}"
    return None


def _against_reference(rec, expected: dict | None) -> str | None:
    if expected is None:
        return "no reference answer for this sweep"
    got = answer(rec)
    for field in ("best_k", "steps", "breakdown"):
        if got[field] != expected[field]:
            return f"{field} {got[field]!r} != reference {expected[field]!r}"
    ref = expected["best_error"]
    if abs(got["best_error"] - ref) > BEST_ERROR_RTOL * abs(ref):
        return f"best_error {got['best_error']!r} differs from reference {ref!r} by more than {BEST_ERROR_RTOL:g} relative"
    return None


def _identity_collapse(hyb, plain) -> str | None:
    if plain is None:
        return "plain method missing"
    if len(hyb.rows) != len(plain.rows):
        return f"{len(hyb.rows)} steps, plain method has {len(plain.rows)}"
    for h, p in zip(hyb.rows, plain.rows):
        if h.k != p.k or abs(h.rel_error - p.rel_error) > IDENTITY_RTOL * abs(p.rel_error):
            return f"k={h.k}: error {h.rel_error!r} vs plain {p.rel_error!r}"
    return None


def check_pass(records, reference: dict | None, identity: bool) -> dict[str, str]:
    """Failures of one pass as sweep key -> reason; empty when all pass.

    ``reference`` is the stored answer set for this seed (None skips the
    comparison); ``identity`` turns on the hybrid-equals-plain check.
    """
    failures: dict[str, str] = {}
    by_key = {sweep_key(rec): rec for rec in records}
    for key, rec in by_key.items():
        reason = _sanity(rec)
        if reason is None and reference is not None:
            reason = _against_reference(rec, reference.get(key))
        if reason is None and identity and rec.method.startswith("hyb_"):
            plain_key = key[: -len(rec.method)] + rec.method[len("hyb_"):]
            reason = _identity_collapse(rec, by_key.get(plain_key))
        if reason is not None:
            failures[key] = reason
    if reference is not None:
        for key in reference.keys() - by_key.keys():
            failures[key] = "sweep missing"
    return failures
