"""Chain-side fault injectors that the tests share.

Each patches one binding of the package through pytest's monkeypatch, so
the test that uses it must also empty the caches around itself (the
`fresh_caches` fixtures), or the faulty results would outlive it.
"""

from strandcontact import algebra, homology, strands


def drop_a_resolution(monkeypatch, everywhere=False):
    """The differential loses its first term.

    By default only on diagrams without horizontal strands: there every
    orbit is a single diagram, so the sum still regroups, only one term
    short.  With `everywhere`, an expansion with a dotted label loses a
    term as well, and its orbit is left partial (NotInSymmetrisedSpan).
    """
    real = strands.differential

    def differential(m):
        out = real(m)
        if out and (everywhere or all(p != q for p, q in m)):
            return out - {min(out)}
        return out

    monkeypatch.setattr(algebra, "differential", differential)


def maslov_off_on_dotted(monkeypatch):
    """The summand build grades every dotted generator 2 too high."""
    real = algebra.generator_maslov2
    monkeypatch.setattr(
        homology,
        "generator_maslov2",
        lambda d, g: real(d, g) + (2 if g.dotted else 0),
    )


def reduce_ignoring_a_pivot(monkeypatch):
    """The column reduction drops the first pivot it finds."""

    def _reduce(columns):
        pivots, kernel, ignored = {}, [], False
        for c, col in enumerate(columns):
            combo = 1 << c
            while col and (col & -col) in pivots:
                pivot_col, pivot_combo = pivots[col & -col]
                col ^= pivot_col
                combo ^= pivot_combo
            if col and not ignored:
                ignored = True
            elif col:
                pivots[col & -col] = (col, combo)
            else:
                kernel.append(combo)
        return pivots, kernel

    monkeypatch.setattr(homology, "_reduce", _reduce)
