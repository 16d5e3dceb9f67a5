#!/usr/bin/env python3
"""The dihedral groups G(e,e,2): Green functions and fake degrees.

For every e the similarity classes are the same three blocks (sizes
1, floor(e/2) + [e even], 1) with a-values (e, 1, 0), independently of the
symbol shift r.  The first column of the Green-function matrix is the
vector of fake degrees, computed here independently through the
coinvariant-algebra class sum.
"""

import sys

from greenrefl import GroupParams, fake_degrees, green_suite

mismatches = 0
for e in (3, 4, 5, 6):
    params = GroupParams(e, e, 2, 0)
    suite = green_suite(params, r=2)
    degs = fake_degrees(params)
    print(f"G({e},{e},2): blocks {suite.blocks}, a-values {suite.a_diag}")
    for i, z in enumerate(suite.char_params):
        col = suite.ktilde_minus.entries[i][0]
        mark = "ok" if col == degs[z] else "MISMATCH"
        mismatches += mark != "ok"
        print(f"  {z.label():<14} fake degree {str(degs[z]):<18} [{mark}]")
    print()

sys.exit(1 if mismatches else 0)
