"""The paper's claims, each printed with its margin.

Every ``benchmarks/<name>.py`` script regenerates one table or figure of
the paper: it prints the table, a blank line and one line per claim the
paper makes about it, and exits 1 if any claim fails::

    claim ok: appends, +staging / ext4-DAX = 1.57 > 1.5 (margin 4.661%)

A line gives the measured value, the relation and the bound; where the
bound is non-zero, also the margin as a percentage of the bound (negative
when the claim fails).  Numbers have four significant digits, so a change
that erodes a claim moves a committed line before it flips the claim; a
value that differs from its bound gets more digits when four would print
them the same.

Run one script from the repository root with
``PYTHONPATH=src python benchmarks/<name>.py``; ``tools/goldens.py``
checks all of them against ``goldens/<name>.txt``.
"""

from __future__ import annotations

import operator

RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
             ">=": operator.ge, "==": operator.eq}


def _num(x: float) -> str:
    return f"{x:.4g}"


def _value(x: float, bounds) -> str:
    """``_num(x)``, with more digits while it prints the same as a bound
    it differs from, so a holding claim never reads ``1 > 1``."""
    text = _num(x)
    digits = 4
    while digits < 17 and any(b != x and _num(b) == text for b in bounds):
        digits += 1
        text = f"{x:.{digits}g}"
    return text


def _margin(value, rel, bound):
    """How far ``value`` clears ``bound``, as a fraction of the bound."""
    if rel == "in":
        sides = [_margin(value, ">", bound[0]), _margin(value, "<", bound[1])]
        return min((m for m in sides if m is not None), default=None)
    if rel == "==" or not bound:
        return None
    room = value - bound if rel.startswith(">") else bound - value
    return room / abs(bound)


def _yes(flag) -> str:
    return "yes" if flag else "no"


class Claims:
    """One script's claims: a line each, and :meth:`finish`'s exit status."""

    def __init__(self) -> None:
        self.failed = 0

    def _print(self, ok: bool, text: str) -> None:
        self.failed += not ok
        print(f"claim {'ok' if ok else 'FAILED'}: {text}")

    def compare(self, what: str, value, rel: str, bound, where=None) -> None:
        """Claim ``value rel bound``, ``rel`` one of :data:`RELATIONS`.

        ``rel`` "in" takes a ``(low, high)`` bound, both ends exclusive.
        ``value`` may be a dict ``{where: value}`` that must hold at every
        entry: the line then shows its worst entry and where it occurs.
        """
        if isinstance(value, dict):
            worst = max if rel in ("<", "<=") else min
            where, value = worst(value.items(), key=lambda item: item[1])
        if rel == "in":
            ok = bound[0] < value < bound[1]
            shown = f"in ({_num(bound[0])}, {_num(bound[1])})"
        else:
            ok = RELATIONS[rel](value, bound)
            shown = f"{rel} {_num(bound)}"
        bounds = bound if rel == "in" else (bound,)
        text = f"{what} = {_value(value, bounds)} {shown}"
        margin = _margin(value, rel, bound)
        if margin is not None:
            text += f" (margin {_num(100 * margin)}%)"
        if where is not None:
            text += f" at {where}"
        self._print(ok, text)

    def observe(self, what: str, observed, want: bool = True) -> None:
        """Claim a yes/no observation, such as a Table 3 cell, is ``want``.

        ``observed`` may be a dict ``{where: flag}`` that must be ``want``
        at every entry: the line names the first entry that is not.
        """
        if isinstance(observed, dict):
            wrong = [where for where, flag in observed.items() if flag != want]
            ok = not wrong
            text = (f"{what} = {_yes(want)} in all {len(observed)}" if ok else
                    f"{what} = {_yes(not want)} at {wrong[0]}")
        else:
            ok = observed == want
            text = f"{what} = {_yes(observed)}"
        self._print(ok, f"{text}, want {_yes(want)}")

    def finish(self) -> int:
        """The exit status: 1 if any claim failed, else 0."""
        return 1 if self.failed else 0
