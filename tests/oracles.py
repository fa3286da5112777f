"""Definitional predicate loops: the reference the library kernels must match.

Each function scans its quantifier domain in lexicographic order and
returns the first violating tuple, exactly as the predicates did before
they were merged into shared kernels.  Nothing here is memoized, so a
comparison never reads back a value the library cached.
"""

from __future__ import annotations

from gradedrings.ideals import graded_radical, require_graded


def is_graded_prime(gr, p):
    require_graded(gr, p, proper=True)
    homog = sorted(gr.homogeneous())
    mul = gr.ring.mul
    for x in homog:
        if x in p.elements:
            continue
        for y in homog:
            if mul(x, y) in p.elements and y not in p.elements:
                return False, (x, y)
    return True, None


def is_graded_primary(gr, q):
    require_graded(gr, q, proper=True)
    rad = graded_radical(gr, q).elements
    homog = sorted(gr.homogeneous())
    mul = gr.ring.mul
    for x in homog:
        if x in q.elements:
            continue
        for y in homog:
            if mul(x, y) in q.elements and y not in rad:
                return False, (x, y)
    return True, None


def is_graded_1abs_primary(gr, p):
    require_graded(gr, p, proper=True)
    rad = graded_radical(gr, p).elements
    nonunits = gr.nonunit_homogeneous()
    mul = gr.ring.mul
    for x in nonunits:
        for y in nonunits:
            xy = mul(x, y)
            if xy in p.elements:
                continue
            for z in nonunits:
                if mul(xy, z) in p.elements and z not in rad:
                    return False, (x, y, z)
    return True, None


def is_graded_strongly_1abs_primary(gr, p):
    require_graded(gr, p, proper=True)
    grad_zero = gr.graded_nilradical()
    nonunits = gr.nonunit_homogeneous()
    mul = gr.ring.mul
    for x in nonunits:
        for y in nonunits:
            xy = mul(x, y)
            if xy in p.elements:
                continue
            for z in nonunits:
                if mul(xy, z) in p.elements and z not in grad_zero:
                    return False, (x, y, z)
    return True, None


def is_graded_2abs_primary(gr, i):
    require_graded(gr, i, proper=True)
    rad = graded_radical(gr, i).elements
    homog = sorted(gr.homogeneous())
    mul = gr.ring.mul
    for x in homog:
        for y in homog:
            xy = mul(x, y)
            if xy in i.elements:
                continue
            for z in homog:
                if (
                    mul(xy, z) in i.elements
                    and mul(x, z) not in rad
                    and mul(y, z) not in rad
                ):
                    return False, (x, y, z)
    return True, None
