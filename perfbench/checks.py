"""Output checkers of the benchmark.

Each ``check_*`` function takes the parsed JSON a CLI call printed (plus,
where needed, a reference computed here) and returns a list of problems;
an empty list means the check passed; ``residual_is_zero`` answers with a
bool, since a failing case must show a nonzero residual.  None of them calls
the code path that produced the output it checks:

* the published r=2 table of G(3,3,3) (TABLE1, transcribed from the paper);
* the factorization residual Ktilde- LambdaTilde tr(Ktilde+) - OmegaPrime,
  multiplied out here from the printed matrices;
* Ktilde+/- block lower triangular with diagonal blocks diag(t^a);
* the first column of Ktilde- against the class-sum fake degrees
  (``gepn.fake_degrees``, which reads only the coset table);
* coset tables: both orthogonality relations, with centralizer orders
  taken from the column norms;
* coset tables against the brute-force Dixon table of
  ``oracle.BruteForceGroup``, as sets of rows.

``Checker`` applies them to the outputs of one run, computing each
reference once and giving byte-identical outputs the same verdict.
"""

from __future__ import annotations

import hashlib
import json
from itertools import permutations
from math import gcd

from greenrefl.combinatorics import GroupParams, enumerate_class_params
from greenrefl.exact_arith import CycField, TPoly, TRat
from greenrefl.gepn import fake_degrees
from greenrefl.oracle import BruteForceGroup

# -- the published table of G(3,3,3), r = 2 ------------------------------------
# Entry (i, j) of Ktilde- as (degree, coefficient) pairs.

TABLE1_LABELS = [
    "(111;;)", "(11;1;)", "(1;11;)", "(1;1;1)", "(1;1;1)'", "(1;1;1)''",
    "(21;;)", "(2;1;)", "(1;2;)", "(3;;)",
]

TABLE1 = [
    [[(9, 1)], [], [], [], [], [], [], [], [], []],
    [[(7, 2), (4, 1)], [(4, 1)], [], [], [], [], [], [], [], []],
    [[(8, 1), (5, 2)], [], [(4, 1)], [], [], [], [], [], [], []],
    [[(6, 1), (3, 1)], [(3, 1)], [], [(3, 1)], [], [], [], [], [], []],
    [[(6, 1), (3, 1)], [(3, 1)], [], [], [(3, 1)], [], [], [], [], []],
    [[(6, 1), (3, 1)], [(3, 1)], [], [], [], [(3, 1)], [], [], [], []],
    [[(6, 1), (3, 1)], [(3, 1)], [], [], [], [], [(3, 1)], [], [], []],
    [[(4, 2), (1, 1)], [(1, 1)], [(3, 1)], [(1, 1)], [(1, 1)], [(1, 1)],
     [(1, 1)], [(1, 1)], [], []],
    [[(5, 1), (2, 2)], [(2, 2)], [], [(2, 1)], [(2, 1)], [(2, 1)],
     [(2, 1)], [], [(1, 1)], []],
    [[(0, 1)], [(0, 1)], [], [(0, 1)], [(0, 1)], [(0, 1)], [(0, 1)],
     [(0, 1)], [], [(0, 1)]],
]

# the three primed characters (positions 3..5) may come in any order
TABLE1_PRIMED = [3, 4, 5]


def t_poly(e, pairs):
    """The polynomial sum c t^d over (d, c) pairs, as a TRat over Q(zeta_e)."""
    field = CycField(e)
    if not pairs:
        return TRat(TPoly(field, ()), reduce=False)
    coeffs = [field.zero] * (max(d for d, _ in pairs) + 1)
    for d, c in pairs:
        coeffs[d] = field.from_rational(c)
    return TRat(TPoly(field, coeffs))


def t_power(e, a):
    return t_poly(e, [(a, 1)])


# -- parsing ----------------------------------------------------------------------


def parse_matrix(obj):
    return [[TRat.from_json(v) for v in row] for row in obj["entries"]]


def block_index(blocks):
    out = []
    for b, size in enumerate(blocks):
        out.extend([b] * size)
    return out


def mat_mul(a, b):
    zero = a[0][0] - a[0][0]
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = zero
            for x, brow in zip(row, b):
                if not x.is_zero() and not brow[j].is_zero():
                    acc = acc + x * brow[j]
            new.append(acc)
        out.append(new)
    return out


# -- Green-suite checks ---------------------------------------------------------


def residual_is_zero(raw):
    """True when Ktilde- LambdaTilde tr(Ktilde+) equals OmegaPrime exactly."""
    km = parse_matrix(raw["ktilde_minus"])
    kp = parse_matrix(raw["ktilde_plus"])
    lam = parse_matrix(raw["lambda_tilde"])
    omega = parse_matrix(raw["omega_prime"])
    product = mat_mul(mat_mul(km, lam), [list(col) for col in zip(*kp)])
    return all(
        x == y for prow, orow in zip(product, omega) for x, y in zip(prow, orow)
    )


def check_diagonal_blocks(raw):
    """Ktilde+/- are block lower triangular over the similarity classes,
    with diagonal blocks diag(t^a) and a constant on each class."""
    e, blocks, a_values = raw["e"], raw["blocks"], raw["a_values"]
    bidx = block_index(blocks)
    problems = []
    if len(a_values) != len(bidx):
        return ["a-values and blocks disagree in length"]
    for i in range(len(bidx)):
        if a_values[i] != a_values[bidx.index(bidx[i])]:
            problems.append(f"a-value not constant on the class of row {i}")
    for key in ("ktilde_minus", "ktilde_plus"):
        mat = parse_matrix(raw[key])
        for i, row in enumerate(mat):
            for j, v in enumerate(row):
                if bidx[j] > bidx[i]:
                    want = None if v.is_zero() else "0 above the diagonal blocks"
                elif bidx[j] == bidx[i]:
                    target = t_power(e, a_values[i]) if i == j else v - v
                    want = None if v == target else f"{target} in a diagonal block"
                else:
                    continue
                if want:
                    problems.append(f"{key}[{i}][{j}] = {v}, want {want}")
    return problems


def check_fake_degrees(raw, degrees):
    """Ktilde- times the first similarity class gives the fake degrees.

    ``degrees`` maps character labels to class-sum fake degrees.  With
    Ktilde- restricted to the columns of the first class, the fake degrees
    are Ktilde- v for the v read off the first class's own rows; v must
    start with 1.  When the first class is one character this says the
    first column of Ktilde- is the fake-degree column."""
    labels = raw["ktilde_minus"]["rows"]
    if sorted(labels) != sorted(degrees):
        return ["character labels differ from the fake-degree labels"]
    km = parse_matrix(raw["ktilde_minus"])
    first = range(raw["blocks"][0])
    v = [degrees[labels[j]] / km[j][j] for j in first]
    if not v[0].is_one():
        return [f"fake degree of {labels[0]} is {degrees[labels[0]]}, not {km[0][0]}"]
    problems = []
    for i, row in enumerate(km):
        got = sum((row[j] * v[j] for j in first), row[0] - row[0])
        if got != degrees[labels[i]]:
            problems.append(
                f"row {labels[i]}: Ktilde- gives {got}, fake degree {degrees[labels[i]]}"
            )
    return problems


def check_table1(raw):
    """Ktilde- of G(3,3,3), r=2, entry for entry against the published table."""
    if raw["ktilde_minus"]["rows"] != TABLE1_LABELS:
        return ["labels differ from the published table"]
    got = parse_matrix(raw["ktilde_minus"])
    golden = [[t_poly(3, cell) for cell in row] for row in TABLE1]
    for perm in permutations(TABLE1_PRIMED):
        mapping = list(range(len(TABLE1)))
        for a, b in zip(TABLE1_PRIMED, perm):
            mapping[a] = b
        if all(
            got[mapping[i]][mapping[j]] == golden[i][j]
            for i in range(len(TABLE1))
            for j in range(len(TABLE1))
        ):
            return []
    return ["Ktilde- differs from the published table of G(3,3,3)"]


# -- coset-table checks -------------------------------------------------------------


def parse_table(raw):
    return [[TRat.from_json(v).to_cyc() for v in row] for row in raw["entries"]]


def check_orthogonality(raw):
    """Both orthogonality relations of a character table (rows characters).

    The centralizer orders are the column norms; they must be positive
    integers whose reciprocals sum to 1 (class sizes summing to |W|)."""
    table = parse_table(raw)
    k = len(table)
    if any(len(row) != k for row in table):
        return ["table is not square"]
    field = table[0][0].field
    conj = [[v.conjugate() for v in row] for row in table]
    norms = []
    problems = []
    for a in range(k):
        for b in range(a, k):
            acc = field.zero
            for z in range(k):
                acc = acc + table[z][a] * conj[z][b]
            if a == b:
                if not acc.is_rational() or acc.to_fraction() <= 0:
                    return [f"column {a} has norm {acc}"]
                norms.append(acc.to_fraction())
            elif not acc.is_zero():
                problems.append(f"columns {a} and {b} are not orthogonal")
    if sum(1 / c for c in norms) != 1:
        problems.append("class sizes do not add up to the group order")
    if any(c.denominator != 1 for c in norms):
        problems.append("a centralizer order is not an integer")
    weights = [1 / c for c in norms]
    for a in range(k):
        for b in range(a, k):
            acc = field.zero
            for x in range(k):
                acc = acc + table[a][x] * conj[b][x] * weights[x]
            if acc != (field.one if a == b else field.zero):
                problems.append(f"rows {a} and {b} are not orthonormal")
    return problems


def oracle_rows(params, col_labels):
    """The Dixon table's rows, columns ordered as ``col_labels``, in a
    common field Q(zeta_lcm); returns (lcm, list of row tuples)."""
    group = BruteForceGroup(params)
    table = group.character_table()
    by_label = {xi.label(): xi for xi in enumerate_class_params(params)}
    cols = []
    for label in col_labels:
        xi = by_label[label]
        cols.append(group.class_index_of(group.element_for_class_param(xi.beta, xi.b)))
    big = table[0][0].field.e
    lcm = big * params.e // gcd(big, params.e)
    return lcm, [tuple(row[c].embed(lcm) for c in cols) for row in table]


def check_oracle(raw, reference):
    lcm, rows = reference
    table = parse_table(raw)
    ours = [tuple(v.embed(lcm) for v in row) for row in table]
    if len(set(ours)) != len(ours):
        return ["the table has repeated rows"]
    if set(ours) != set(rows):
        return ["the rows differ from the brute-force Dixon table"]
    return []


# -- one run's verdicts ---------------------------------------------------------------


class Checker:
    """Checks the outputs of one run; a case is (e, p, n, q, r)."""

    def __init__(self):
        self._refs = {}
        self._verdicts = {}

    def _reference(self, key, build):
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]

    def verdict(self, command, case, rc, text):
        """(failed, problems) for one CLI call.

        ``failed`` means the program itself reported the operation as
        failed (nonzero exit); ``problems`` lists wrong or inconsistent
        output and makes the run incorrect."""
        key = (command, case, rc, hashlib.sha256(text.encode()).hexdigest())
        if key not in self._verdicts:
            if rc not in (0, 1) or not text:
                result = (True, [])
            elif command == "green":
                result = self._green(case, rc, json.loads(text))
            else:
                result = self._chartable(case, rc, json.loads(text))
            self._verdicts[key] = result
        return self._verdicts[key]

    def _green(self, case, rc, raw):
        e, p, n, q, r = case
        if [raw[k] for k in ("e", "p", "n", "q", "r")] != list(case):
            return False, ["output is for other parameters"]
        own_zero = residual_is_zero(raw)
        problems = []
        if raw["residual_zero"] != own_zero:
            problems.append("residual_zero disagrees with the residual multiplied out")
        if (rc == 0) != raw["residual_zero"]:
            problems.append("exit code disagrees with residual_zero")
        if rc != 0:
            return True, problems
        problems += check_diagonal_blocks(raw)
        params = GroupParams(e, p, n, q)
        degrees = self._reference(
            ("fake", case),
            lambda: {z.label(): f for z, f in fake_degrees(params, r).items()},
        )
        problems += check_fake_degrees(raw, degrees)
        if case == (3, 3, 3, 0, 2):
            problems += check_table1(raw)
        return False, problems

    def _chartable(self, case, rc, raw):
        e, p, n, q, r = case
        if rc != 0:
            return True, []
        problems = check_orthogonality(raw)
        if q == 0:
            reference = self._reference(
                ("oracle", case, tuple(raw["cols"])),
                lambda: oracle_rows(GroupParams(e, p, n, q), raw["cols"]),
            )
            problems += check_oracle(raw, reference)
        return False, problems

