"""Error vocabulary for the whole package.

Two families matter to callers:

* ``ParseError`` — malformed textual input (rationals, JSON map/partition
  files).  The CLI maps these to exit code 1.
* ``RefusalError`` — the requested value does not exist, is not certified by
  the arithmetic, or would exceed a stated budget.  The CLI maps these to
  exit code 2.  Refusals are honest answers, not bugs: a divergent break sum
  or a partition outside the power-of-n form *should* refuse.
"""

from __future__ import annotations


class ChameleonError(Exception):
    """Base class for all library-specific errors."""


class ParseError(ChameleonError, ValueError):
    """Malformed textual or JSON input."""


class RefusalError(ChameleonError):
    """The computation is well-posed to ask for but has no certified answer.

    ``fields`` names the structured values a refusal carries: each is set from
    the keyword of that name, or to None when the keyword is absent.
    """

    fields: tuple[str, ...] = ()

    def __init__(self, message: str, **values):
        undeclared = sorted(set(values) - set(self.fields))
        if undeclared:
            raise TypeError(
                f"{type(self).__name__} has no field {', '.join(undeclared)}"
            )
        super().__init__(message)
        for name in self.fields:
            setattr(self, name, values.get(name))


# ---------------------------------------------------------------------------
# exact arithmetic / classification

class NotAPowerRatio(RefusalError):
    """A slope ratio that should be an integral power of the base is not."""


class InconsistentResidue(RefusalError):
    """A map shifts digit-class residues inconsistently between sample points."""


# ---------------------------------------------------------------------------
# resource budgets

class BudgetExceeded(RefusalError):
    """An iteration or table-depth budget ran out before the answer was certified.

    ``limit`` is the budget that was exhausted; ``partial`` carries the best
    partial result when one makes sense (an orbit prefix, an enclosure).
    """

    fields = ("limit", "partial")


# ---------------------------------------------------------------------------
# piecewise maps

class NotInvertible(RefusalError):
    """The map is not injective (circle maps of degree at least two)."""


# ---------------------------------------------------------------------------
# interpolation

class NotInDelta(RefusalError):
    """A node is outside the zero digit-class lattice required for interpolation."""


class NotIncreasing(RefusalError):
    """Interpolation nodes are not strictly increasing."""


class NonzeroCosetShift(RefusalError):
    """Interval surgery requires a map with zero digit-class shift."""


class BadCyclicOrder(RefusalError):
    """Circle interpolation data is not in consistent counterclockwise order."""


# ---------------------------------------------------------------------------
# Markov partitions

class SlopeNotPowerOfN(RefusalError):
    """An induced interval slope is not an integral power of the base.

    ``index`` is the offending interval, ``slope`` the bad ratio.
    """

    fields = ("index", "slope")


class EndpointNotNAdic(RefusalError):
    """A partition endpoint falls outside the base-n lattice."""

    fields = ("index", "value")


class NotMarkov(RefusalError):
    """A map fails the vertex-to-vertex law required to refine a level table."""

    fields = ("index",)


class NotPowerForm(RefusalError):
    """The partition interval count is not (n-1) times a power of n."""


class ClassMismatch(RefusalError):
    """Two vertices lie over different fixed-point classes."""

    fields = ("left", "right")


# ---------------------------------------------------------------------------
# conjugators

class FixedPointsNotVertices(RefusalError):
    """The base-n lattice of the source circle is not contained in the
    conjugator's vertex grid, so exact evaluation there is impossible."""


class NotAVertex(RefusalError):
    """The queried point is not a vertex at any cached table level."""

    fields = ("point",)


class OddCount(RefusalError):
    """A pairing test needs an even number of intervals."""


class NotPL(RefusalError):
    """The conjugator is provably not piecewise linear.

    ``witness`` carries the evidence (an unequal interval pair, or two
    vertices with different iterated break sums).
    """

    fields = ("witness",)


class NeutralBranch(RefusalError):
    """A periodic-point query hit an interval fixed pointwise (slope one,
    zero shift), so the solution set is not finite."""

    fields = ("interval",)


# ---------------------------------------------------------------------------
# break calculus

class DivergentFixedPoint(RefusalError):
    """The forward orbit ends at a fixed point carrying a nonzero break."""

    fields = ("point", "break_value")


class DivergentCycle(RefusalError):
    """The forward orbit enters a cycle carrying nonzero breaks."""

    fields = ("cycle", "break_values")


class ReconstructionMismatch(RefusalError):
    """The pairing conjugator fails to intertwine the map with the model map."""


class BadLength(RefusalError):
    """A value sequence has the wrong length for prefix-block splitting."""
