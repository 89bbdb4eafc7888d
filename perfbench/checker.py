"""Judge each CLI call's stdout mathematically, one verdict per operation.

An operation is one bound report (plus the det_ratio agreement of a
detbounds call), one suite or explore trial, one mle trial, or one limit
mode.  Each gets one of three verdicts:

* ``ok``     -- the output is complete and the numbers satisfy the check;
* ``failed`` -- the program itself reported the failure (VIOLATED, a
  finding, a non-converged trial, an error exit);
* ``wrong``  -- the program reported success but the numbers disagree, or
  the output is malformed.

``failed`` and ``wrong`` both count as failed operations; only ``wrong``
makes a run incorrect.  Exit codes are checked for consistency but never
trusted on their own.
"""

from __future__ import annotations

import math
import re

import numpy as np

from workloads import DET_REPORTS

OK, FAILED, WRONG = "ok", "failed", "wrong"

_REPORT = re.compile(
    r"^(\w+): lhs=(\S+) rhs=(\S+) slack=(\S+) (holds|VIOLATED)( \[vacuous\])?$")
_INAPPLICABLE = re.compile(r"^(\w+): inapplicable \(.*\)$")


def _fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _line(lines, prefix):
    return next((l for l in lines if l.startswith(prefix)), None)


def _holds(lhs: float, rhs: float) -> bool:
    # Same comparison as the program's BoundReport: tol = 1e-9 * max(1, |rhs|).
    return lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def check_verify(out: str, rc: int, trials: int) -> list:
    """``violations=0`` and exit 0; each listed VIOLATED trial fails once."""
    lines = out.splitlines()
    head, summary = _line(lines, "suite="), _line(lines, "reports=")
    if rc not in (0, 1):
        return [FAILED] * trials
    if head is None or summary is None or _fields(head).get("trials") != str(trials):
        return [WRONG] * trials
    bad = {int(_fields(l)["trial"]) for l in lines if l.startswith("VIOLATED ")}
    if int(_fields(summary)["violations"]) != sum(l.startswith("VIOLATED ") for l in lines) \
            or (rc == 1) != bool(bad):
        return [WRONG] * trials
    return [FAILED if t in bad else OK for t in range(trials)]


def check_explore(out: str, rc: int, trials: int) -> list:
    """``violations=0`` and exit 0; every finding counts as a failed trial."""
    lines = out.splitlines()
    head, summary = _line(lines, "conjecture="), _line(lines, "min_slack=")
    if rc != 0:
        return [FAILED] * trials
    if head is None or summary is None or _fields(head).get("trials") != str(trials):
        return [WRONG] * trials
    found = int(_fields(summary)["violations"])
    if not 0 <= found <= trials:
        return [WRONG] * trials
    return [FAILED] * found + [OK] * (trials - found)


def check_mle(out: str, rc: int, trials: int) -> list:
    """``converged == trials`` and ``result: ok``; one verdict per trial."""
    lines = out.splitlines()
    counts, result = _line(lines, "converged="), _line(lines, "result: ")
    if rc not in (0, 1):
        return [FAILED] * trials
    if counts is None or result is None:
        return [WRONG] * trials
    f = _fields(counts)
    converged, within = int(f["converged"]), int(f["within_bound"])
    ok = result == "result: ok"
    if not 0 <= within <= converged <= trials or ok != (rc == 0) \
            or (ok and converged < trials):
        return [WRONG] * trials
    # A converged trial outside the consistency bound is what turns the
    # result to FAIL; count it with the non-converged ones.
    bad = trials - within if not ok else 0
    if not ok and bad == 0:
        return [WRONG] * trials
    return [FAILED] * bad + [OK] * (trials - bad)


def check_detbounds(out: str, rc: int, balanced: bool) -> list:
    """Every expected report applicable, holding, with a finite lhs (a
    vacuous report may carry lhs=-inf); det_ratio equal to det_ratio_lu to
    1e-8 relative.  Returns verdicts in report order, agreement last."""
    names = DET_REPORTS[balanced]
    if rc not in (0, 1):
        return [FAILED] * (len(names) + 1)
    lines = out.splitlines()
    verdicts = []
    any_violated = False
    for name in names:
        line = next((l for l in lines if l.startswith(name + ":")), None)
        m = _REPORT.match(line) if line else None
        if m is None:
            verdicts.append(FAILED if line and _INAPPLICABLE.match(line) else WRONG)
            continue
        lhs, rhs = float(m.group(2)), float(m.group(3))
        vacuous = m.group(6) is not None
        if m.group(5) == "VIOLATED":
            any_violated = True
            verdicts.append(FAILED)
        elif math.isnan(lhs) or not math.isfinite(rhs) or not _holds(lhs, rhs) \
                or (not vacuous and not math.isfinite(lhs)):
            verdicts.append(WRONG)
        else:
            verdicts.append(OK)
    ratio, ratio_lu = _line(lines, "det_ratio="), _line(lines, "det_ratio_lu=")
    try:
        a, b = float(ratio.split("=")[1]), float(ratio_lu.split("=")[1])
        agree = math.isfinite(a) and math.isfinite(b) and abs(a - b) <= 1e-8 * abs(b)
    except (AttributeError, IndexError, ValueError):
        agree = False
    verdicts.append(OK if agree else WRONG)
    if (rc == 1) != any_violated:
        verdicts = [WRONG if v == OK else v for v in verdicts]
    return verdicts


def _limit_output(out: str, n: int):
    """(matrix, inf_norm, limit_inf_norm) printed by one ``limit`` call."""
    lines = out.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("mode: ")) + 1
    X = np.array(" ".join(lines[start:start + n]).split(), dtype=float).reshape(n, n)
    tail = dict(l.split("=", 1) for l in lines[start + n:] if "=" in l)
    return X, float(tail["inf_norm"]), float(tail["limit_inf_norm"])


def signless_laplacian(n: int, edges) -> np.ndarray:
    """P = D + A of a 1-based edge list; a self-loop adds 2 to P_vv."""
    P = np.zeros((n, n))
    for i, j in edges:
        if i == j:
            P[i - 1, i - 1] += 2.0
        else:
            P[i - 1, j - 1] = P[j - 1, i - 1] = 1.0
            P[i - 1, i - 1] += 1.0
            P[j - 1, j - 1] += 1.0
    return P


def check_limit(outs: dict, rcs: dict, info: dict) -> dict:
    """Verdicts for the three modes of one graph, keyed by mode.

    * closed-form: N P = 0 (the limit lies in the null space of P) and its
      inf-norm equals the printed ``limit_inf_norm`` to 1e-9 relative;
    * u-route: equals the closed form entrywise to 1e-9 * max|N|, and the
      same inf-norm check;
    * numeric (finite t): (S + tP) X = I up to the rounding of 12 printed
      digits, and |X - N|_max within the proved O(1/t) rate below.
    """
    n, alpha, ell = info["sform"]
    t = info["t"]
    P = signless_laplacian(n, info["edges"])
    verdicts = {}
    parsed = {}
    for mode, out in outs.items():
        if rcs[mode] != 0:
            verdicts[mode] = FAILED
            continue
        try:
            X, norm, limit_norm = _limit_output(out, n)
        except (StopIteration, KeyError, ValueError, IndexError):
            verdicts[mode] = WRONG
            continue
        row_norm = float(np.abs(X).sum(axis=1).max())
        sound = bool(np.isfinite(X).all()) and abs(row_norm - norm) <= 1e-9 * norm
        if mode != "numeric":
            sound = sound and abs(norm - limit_norm) <= 1e-9 * limit_norm
        parsed[mode] = X
        verdicts[mode] = OK if sound else WRONG
    N = parsed.get("closed-form")
    if N is not None and verdicts["closed-form"] == OK:
        scale = float(np.abs(N).max())
        if float(np.abs(P @ N).max()) > 1e-9 * np.abs(P).sum(axis=1).max() * scale:
            verdicts["closed-form"] = WRONG
    for mode in ("u-route", "numeric"):
        if verdicts.get(mode) != OK:
            continue
        X = parsed[mode]
        if N is None:
            verdicts[mode] = WRONG
            continue
        scale = float(np.abs(N).max())
        if mode == "u-route":
            close = float(np.abs(X - N).max()) <= 1e-9 * scale
        else:
            A = alpha * np.eye(n) + ell + t * P
            # Rounding X to 12 significant digits moves each entry of A X
            # by at most ~1e-12 * |A|_inf * max|X|; allow 100x that.
            resid = float(np.abs(A @ X - np.eye(n)).max())
            close = resid <= 1e-10 * np.abs(A).sum(axis=1).max() * np.abs(X).max() \
                and float(np.abs(X - N).max()) <= rate_bound(P, alpha, ell, t,
                                                            info["bipartite"])
        verdicts[mode] = OK if close else WRONG
    return verdicts


def rate_bound(P: np.ndarray, alpha: float, ell: float, t: float, r: int) -> float:
    """Proved bound on |(S + tP)^{-1} - N|_2 for S = alpha I + ell 11'.

    In an orthonormal basis split into null(P) (dimension r, one per
    bipartite component) and its complement, S + tP has blocks [[A, B],
    [B', C + tD]] with D >= mu I, mu the smallest positive eigenvalue of P.
    Every Schur complement of a matrix >= alpha I is >= alpha I, and
    |B| <= |S|_2 = alpha + ell n =: kappa alpha, so the three block
    differences from N = [[A^{-1}, 0], [0, 0]] sum to at most
    ((1 + kappa)^2 + kappa^2 alpha / (t mu)) / (t mu).  The finite-t
    inverse approaches the limit only at this O(1/(t mu)) rate: at t = 1e8
    on the workload's long path and cycle the gap is ~1e-1 of max|N|, so a
    fixed small relative tolerance would fail correct output.
    """
    n = P.shape[0]
    mu = float(np.linalg.eigvalsh(P)[r])
    kappa = (alpha + ell * n) / alpha
    return ((1.0 + kappa) ** 2 + kappa ** 2 * alpha / (t * mu)) / (t * mu)


def check_pass(calls, results) -> list:
    """Verdict lists, one per call, for one pass.

    ``results`` holds ``(stdout, rc)`` per call, in call order.
    """
    verdicts = [None] * len(calls)
    limit = {}
    for k, (call, (out, rc)) in enumerate(zip(calls, results)):
        if call.kind == "verify":
            verdicts[k] = check_verify(out, rc, call.ops)
        elif call.kind == "explore":
            verdicts[k] = check_explore(out, rc, call.ops)
        elif call.kind == "mle":
            verdicts[k] = check_mle(out, rc, call.ops)
        elif call.kind == "detbounds":
            verdicts[k] = check_detbounds(out, rc, call.info["balanced"])
        elif call.kind == "limit":
            limit[call.info["mode"]] = k
        else:
            raise ValueError(f"no checker for call kind {call.kind!r}")
    if limit:
        info = calls[next(iter(limit.values()))].info
        by_mode = check_limit({m: results[k][0] for m, k in limit.items()},
                              {m: results[k][1] for m, k in limit.items()}, info)
        for mode, k in limit.items():
            verdicts[k] = [by_mode[mode]]
    return verdicts
