"""Correctness checks on what the timed phase produced.

Each check returns a list of problem strings; an empty list passes.
They take plain values (rows, reference values, digests, counts) so
the tests in this directory can feed them planted wrong answers.
"""

from __future__ import annotations

from collections import Counter


def result_values(rows: list[tuple]) -> list[str]:
    """Non-null projection values of a sorted-outer-union SQL result,
    as strings (the reference evaluator's string values).

    Column 0 is the ordering key; every later non-null cell is one
    projected value.
    """
    return [str(value) for row in rows for value in row[1:]
            if value is not None]


def values_match(label: str, rows: list[tuple],
                 expected: list[str]) -> list[str]:
    """SQL rows hold exactly the reference values (as a multiset)."""
    got = Counter(result_values(rows))
    want = Counter(expected)
    if got == want:
        return []
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    return [f"{label}: {missing} reference values missing, "
            f"{extra} unexpected values"]


def same_every_cycle(label: str, digests: list[str]) -> list[str]:
    """Every repetition produced the same output digest."""
    distinct = sorted(set(digests))
    if len(distinct) <= 1:
        return []
    return [f"{label}: {len(distinct)} different outputs across "
            f"{len(digests)} repetitions"]


def not_costlier(label: str, cost: float, bound: float) -> list[str]:
    """``cost`` does not exceed ``bound`` (by the program's estimate)."""
    if cost <= bound * (1 + 1e-9):
        return []
    return [f"{label}: estimated cost {cost:.3f} exceeds {bound:.3f}"]


def load_complete(label: str, complete: bool) -> list[str]:
    return [] if complete else [f"{label}: load manifest not complete"]


def same_row_totals(totals: list[dict[str, int]]) -> list[str]:
    """Every deploy stored the same rows per table."""
    problems = []
    for i, counts in enumerate(totals[1:], start=1):
        if counts != totals[0]:
            changed = sorted(name for name in set(counts) | set(totals[0])
                             if counts.get(name) != totals[0].get(name))
            problems.append(f"deploy {i}: row totals differ from deploy 0 "
                            f"in {changed}")
    return problems


def same_response(label: str, first: list[tuple],
                  rows: list[tuple]) -> list[str]:
    """A repeated query returned exactly its first response."""
    if rows == first:
        return []
    return [f"{label}: response differs from the first response "
            f"({len(rows)} rows vs {len(first)})"]
