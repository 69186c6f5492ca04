"""Correctness checks for the benchmark, written apart from the program.

Every checker returns a list of error strings (empty means accepted).
Nothing here calls into groupoidlab: SNF answers are verified with this
file's own integer arithmetic, graph K-theory against determinantal
divisors (gcds of minors), and battery reports against the values the
mathematics fixes.  ``self_test`` feeds each checker a corrupted answer
and fails loudly if the checker accepts it.

Run ``python3 bench/checks.py`` to run the self-test on its own.
"""

from __future__ import annotations

import copy
import itertools
import json
from math import gcd, prod

# Mersenne primes for modular checks of products whose exact form is too
# large to multiply out cheaply.
PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)
EXACT_BITS = 4096

# ---------------------------------------------------------------------------
# integer matrix arithmetic
# ---------------------------------------------------------------------------


def mat_mul(a, b, mod=None):
    cols = list(zip(*b))
    out = []
    for row in a:
        if mod is None:
            out.append([sum(x * y for x, y in zip(row, col)) for col in cols])
        else:
            out.append([sum(x * y for x, y in zip(row, col)) % mod for col in cols])
    return out


def det_exact(m) -> int:
    """Fraction-free Gaussian (Bareiss) elimination with row pivoting."""
    n = len(m)
    a = [list(r) for r in m]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_mod(m, p: int) -> int:
    n = len(m)
    a = [[x % p for x in r] for r in m]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def rank_exact(m) -> int:
    a = [list(r) for r in m]
    rows, cols = len(a), len(a[0]) if a else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            if a[i][c]:
                f, g = a[i][c], a[r][c]
                a[i] = [x * g - y * f for x, y in zip(a[i], a[r])]
                common = 0
                for x in a[i]:
                    common = gcd(common, x)
                if common > 1:
                    a[i] = [x // common for x in a[i]]
        r += 1
    return r


def max_bits(*mats) -> int:
    return max((abs(x).bit_length() for m in mats for row in m for x in row), default=0)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def check_snf(m, d, p, q) -> list[str]:
    """P*M*Q = D, |det P| = |det Q| = 1, D diagonal with a divisibility
    chain, and |det M| = prod(d_i) when M is square and nonsingular."""
    rows, cols = len(m), len(m[0])
    errors = []
    if len(d) != rows or any(len(r) != cols for r in d):
        return [f"D is not {rows}x{cols}"]
    if len(p) != rows or any(len(r) != rows for r in p):
        return [f"P is not {rows}x{rows}"]
    if len(q) != cols or any(len(r) != cols for r in q):
        return [f"Q is not {cols}x{cols}"]
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        errors.append("D has an off-diagonal entry")
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(x < 0 for x in diag):
        errors.append("D has a negative diagonal entry")
    nonzero = [x for x in diag if x]
    if diag[: len(nonzero)] != nonzero:
        errors.append("D has a zero before a nonzero diagonal entry")
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        errors.append("D breaks the divisibility chain")
    if max_bits(p, q) <= EXACT_BITS:
        if mat_mul(mat_mul(p, m), q) != d:
            errors.append("P*M*Q != D")
        if abs(det_exact(p)) != 1 or abs(det_exact(q)) != 1:
            errors.append("a transform is not unimodular")
    else:
        for mod in PRIMES:
            lhs = mat_mul(mat_mul(p, m, mod), q, mod)
            if lhs != [[x % mod for x in r] for r in d]:
                errors.append(f"P*M*Q != D modulo {mod}")
                break
            if det_mod(p, mod) not in (1, mod - 1) or det_mod(q, mod) not in (1, mod - 1):
                errors.append(f"a transform is not unimodular modulo {mod}")
                break
    if rows == cols:
        det_m = det_exact(m)
        if det_m and abs(det_m) != prod(diag):
            errors.append("|det M| != product of the invariant factors")
    if len(nonzero) != rank_exact(m):
        errors.append("the number of nonzero invariant factors is not the rank of M")
    return errors


# ---------------------------------------------------------------------------
# graph K-theory by determinantal divisors
# ---------------------------------------------------------------------------


def _small_det(m) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(
        (-1) ** j * m[0][j] * _small_det([r[:j] + r[j + 1 :] for r in m[1:]]) for j in range(n)
    )


def invariant_factors_by_minors(m) -> list[int]:
    """d_k = D_k / D_(k-1), D_k the gcd of all k x k minors."""
    rows, cols = len(m), len(m[0]) if m else 0
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rr in itertools.combinations(range(rows), k):
            for cc in itertools.combinations(range(cols), k):
                g = gcd(g, _small_det([[m[i][j] for j in cc] for i in rr]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def ktheory_oracle(counts) -> tuple[int, tuple[int, ...], int]:
    """(K0 rank, K0 torsion, K1 rank) of the graph with counts[v][w] edges
    from v to w.  A vertex is regular when it receives an edge; the
    groups are the cokernel and kernel of I - A^t on the regular columns,
    and with no regular vertex K0 is free on the vertices and K1 = 0."""
    n = len(counts)
    regular = [w for w in range(n) if any(counts[v][w] for v in range(n))]
    if not regular:
        return n, (), 0
    m = [[(v == w) - counts[w][v] for w in regular] for v in range(n)]
    inv = invariant_factors_by_minors(m)
    return n - len(inv), tuple(x for x in inv if x >= 2), len(regular) - len(inv)


def check_ktheory(expected, got) -> list[str]:
    if tuple(got) != tuple(expected):
        return [f"K-theory (K0 rank, K0 torsion, K1 rank) = {got}, oracle says {expected}"]
    return []


# ---------------------------------------------------------------------------
# battery reports
# ---------------------------------------------------------------------------

CHECK_NAMES = (
    "backends", "minimality", "freeness", "singular", "axioms",
    "contracting", "principality", "ktheory", "dimension",
)
CONTROL_FAILURES = {"freeness", "principality", "ktheory"}

# The K-theory of the model algebra is that of the X factor (the Z factor
# contributes the K-theory of a point), with the unit kept for compact X.
EXPECTED_K = {
    "point": ("Z with unit [1]", "0"),
    "finite-3": ("Z^3 with unit [1, 1, 1]", "0"),
    "circle": ("Z with unit [1]", "Z"),
    "cantor": ("free abelian of countable rank with canonical unit", "0"),
}


def _x_name(x) -> str:
    return x if isinstance(x, str) else f"{x['kind']}-{x['size']}"


def check_battery_report(cfg: dict, rc: int, text: str) -> list[str]:
    """A free config passes every gating check and exits 0; the
    finite-cyclic control exits 1 failing exactly freeness, principality
    and ktheory.  Evidence that the mathematics fixes is checked too."""
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    errors = []
    echo = rep.get("config", {})
    for key in ("z_backend", "x_backend", "seeds"):
        if echo.get(key) != cfg.get(key, echo.get(key)):
            errors.append(f"config echo {key} = {echo.get(key)!r}, expected {cfg[key]!r}")
    records = {r["name"]: r for r in rep.get("records", [])}
    if list(records) != list(CHECK_NAMES) + ["classification"]:
        errors.append(f"records are {list(records)}")
        return errors
    if not records["classification"]["informational"]:
        errors.append("classification is not informational")
    failing = {n for n in CHECK_NAMES if records[n]["verdict"] != "pass"}
    control = isinstance(cfg["z_backend"], dict)
    want_failing = CONTROL_FAILURES if control else set()
    if failing != want_failing:
        errors.append(f"failing checks {sorted(failing)}, expected {sorted(want_failing)}")
    want_rc, want_overall = (1, "fail") if control else (0, "pass")
    if rc != want_rc or rep.get("overall") != want_overall:
        errors.append(f"exit {rc} / overall {rep.get('overall')!r}, expected {want_rc} / {want_overall!r}")
    x = _x_name(echo.get("x_backend", "point"))
    if not control:
        k0, k1 = EXPECTED_K[x]
        ev = records["ktheory"]["evidence"]
        if (ev.get("K0"), ev.get("K1")) != (k0, k1):
            errors.append(f"ktheory evidence {ev}, expected K0 {k0!r}, K1 {k1!r}")
    dim_x = 1 if x == "circle" else 0
    for dz in (2, 3):
        row = records["dimension"]["evidence"].get(f"dim_z_{dz}", {})
        want = {"bound": 2 * dz + dim_x + 1, "refined": dz if x == "point" else None}
        if row != want:
            errors.append(f"dimension row dim_z_{dz} = {row}, expected {want}")
    return errors


def check_same_bytes(first: str, again: str, label: str) -> list[str]:
    if first != again:
        return [f"{label}: report bytes differ between passes"]
    return []


# ---------------------------------------------------------------------------
# principality reports
# ---------------------------------------------------------------------------


def _expected_word_pairs(labels, bound: int) -> set[tuple[int, int]]:
    """shift^n = shift^m on head.cycle^inf (canonical: minimal head,
    primitive cycle) exactly when both pass the head and n - m is a
    multiple of the cycle length."""
    h, c = len(labels.head), len(labels.cycle)
    return {(n, m) for n in range(bound + 1) for m in range(h, n) if (n - m) % c == 0}


def check_principality(rep, *, samples: int, bound: int, seed: int, control: bool) -> list[str]:
    """Model graphs: no isotropy and the exact reduction holds.  Loop
    control: isotropy is found, and each reported hit is an infinite word
    whose pairs are exactly those its head and cycle force."""
    errors = []
    if (rep.samples, rep.bound, rep.seed) != (samples, bound, seed):
        errors.append(f"report echoes {(rep.samples, rep.bound, rep.seed)}")
    if not control:
        if rep.isotropy or not rep.reductions_ok or not rep.ok:
            errors.append(f"seed {seed}: isotropy {len(rep.isotropy)} / reductions_ok {rep.reductions_ok}")
        return errors
    if rep.ok or not rep.isotropy:
        errors.append(f"seed {seed}: the loop control shows no isotropy")
    for mu, pairs in rep.isotropy:
        labels = getattr(mu, "labels", None)
        if labels is None:
            errors.append("a finite path is reported with isotropy")
        elif set(pairs) != _expected_word_pairs(labels, bound) or len(pairs) != len(set(pairs)):
            errors.append(f"isotropy pairs of {labels} are wrong")
    return errors


# ---------------------------------------------------------------------------
# self-test: every checker must reject a corrupted answer
# ---------------------------------------------------------------------------


class _Labels:
    def __init__(self, head, cycle):
        self.head, self.cycle = head, cycle

    def __repr__(self):
        return f"{self.head}|{self.cycle}"


class _Path:
    def __init__(self, head, cycle):
        self.labels = _Labels(head, cycle)


class _Rep:
    def __init__(self, isotropy=(), reductions_ok=True, samples=4, bound=6, seed=1):
        self.samples, self.bound, self.seed = samples, bound, seed
        self.isotropy, self.reductions_ok = tuple(isotropy), reductions_ok

    @property
    def ok(self):
        return not self.isotropy and self.reductions_ok


def _battery_fixture():
    cfg = {"z_backend": "odometer", "x_backend": "circle", "seeds": [5]}
    records = [
        {"name": n, "verdict": "pass", "informational": False, "evidence": {}} for n in CHECK_NAMES
    ]
    records.append({"name": "classification", "verdict": "pass", "informational": True, "evidence": {}})
    by = {r["name"]: r for r in records}
    by["ktheory"]["evidence"] = {"K0": "Z with unit [1]", "K1": "Z"}
    by["dimension"]["evidence"] = {
        "dim_z_2": {"bound": 6, "refined": None},
        "dim_z_3": {"bound": 8, "refined": None},
    }
    rep = {"config": dict(cfg, bounds={}), "records": records, "overall": "pass"}
    return cfg, rep


def self_test() -> list[str]:
    """Each case pairs a checker with an answer it must accept and a
    corrupted one it must reject.  Returns the cases that misbehaved."""
    problems = []

    def expect(name, errors, accept):
        if bool(errors) == accept:
            problems.append(f"{name}: {'rejected a correct' if accept else 'accepted a corrupted'} answer")

    # SNF of [[2, 4], [6, 8]]: hand-made factorization P*M*Q = diag(2, 4)
    m = [[2, 4], [6, 8]]
    p, q, d = [[1, 0], [3, -1]], [[1, -2], [0, 1]], [[2, 0], [0, 4]]
    expect("snf correct", check_snf(m, d, p, q), True)
    expect("snf altered D entry", check_snf(m, [[2, 0], [0, 8]], p, q), False)
    expect("snf non-unimodular P", check_snf(m, [[4, 0], [0, 8]], [[2, 0], [6, -2]], q), False)
    expect("snf broken chain", check_snf([[2, 0], [0, 3]], [[3, 0], [0, 2]], [[0, 1], [1, 0]], [[0, 1], [1, 0]]), False)
    big = [[1, 2**5000], [0, 1]]  # unimodular with entries past EXACT_BITS
    inv = [[1, -(2**5000)], [0, 1]]
    expect("snf modular correct", check_snf([[1, 0], [0, 1]], [[1, 0], [0, 1]], big, inv), True)
    expect("snf modular altered D", check_snf([[1, 0], [0, 1]], [[1, 0], [0, 2]], big, inv), False)

    # graph K-theory: two loops on one vertex give K0 = 0, K1 = 0;
    # three loops give K0 = Z/2
    expect("ktheory correct", check_ktheory(ktheory_oracle([[3]]), (0, (2,), 0)), True)
    expect("ktheory wrong torsion", check_ktheory(ktheory_oracle([[3]]), (0, (3,), 0)), False)
    expect("ktheory oracle two loops", check_ktheory(ktheory_oracle([[2]]), (0, (), 0)), True)

    # battery reports
    cfg, rep = _battery_fixture()
    text = json.dumps(rep)
    expect("battery correct", check_battery_report(cfg, 0, text), True)
    flipped = copy.deepcopy(rep)
    flipped["records"][2]["verdict"] = "fail"
    expect("battery flipped verdict", check_battery_report(cfg, 0, json.dumps(flipped)), False)
    expect("battery wrong exit", check_battery_report(cfg, 1, text), False)
    control = dict(cfg, z_backend={"kind": "finite-cyclic", "order": 3})
    expect("battery control passing", check_battery_report(control, 0, text), False)
    changed = text.replace('"pass"', '"pasS"', 1)
    expect("report byte change", check_same_bytes(text, changed, "fixture"), False)
    expect("report same bytes", check_same_bytes(text, text, "fixture"), True)

    # principality: model graph must be clean; loop control must show
    # exactly the forced isotropy pairs
    expect("principality correct", check_principality(_Rep(), samples=4, bound=6, seed=1, control=False), True)
    hit = (_Path((1,), (2,)), tuple(sorted(_expected_word_pairs(_Labels((1,), (2,)), 6))))
    expect("principality flipped verdict", check_principality(_Rep([hit]), samples=4, bound=6, seed=1, control=False), False)
    expect("control correct", check_principality(_Rep([hit]), samples=4, bound=6, seed=1, control=True), True)
    expect("control flipped verdict", check_principality(_Rep(), samples=4, bound=6, seed=1, control=True), False)
    wrong = (hit[0], hit[1][:-1] + ((6, 0),))
    expect("control wrong pair", check_principality(_Rep([wrong]), samples=4, bound=6, seed=1, control=True), False)
    return problems


if __name__ == "__main__":
    found = self_test()
    for line in found:
        print("SELF-TEST FAILED:", line)
    print("self-test:", "ok" if not found else f"{len(found)} problems")
    raise SystemExit(1 if found else 0)
