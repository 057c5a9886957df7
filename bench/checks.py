"""Exact correctness checks on the program's outputs.

Each check returns a list of failure messages; an empty list is a pass.
None of them uses ``assert``, so they still run under ``python -O``.
"""

from __future__ import annotations


def check_verify_payload(rc: int, payload, requested: int) -> list[str]:
    """A ``verify --format json`` result must cover every requested word and
    report no mismatch; zero or too few checked words is a failure."""
    failures = []
    if rc != 0:
        failures.append(f"verify exited with {rc}")
    if not isinstance(payload, dict):
        return failures + [f"verify output is not a JSON object: {payload!r}"]
    checked = payload.get("checked")
    if checked != requested:
        failures.append(f"verify checked {checked!r} words, {requested} requested")
    mismatches = payload.get("mismatches")
    if mismatches != []:
        failures.append(f"verify reported mismatches: {mismatches!r}")
    return failures


def check_report(report, word, labels: int) -> list[str]:
    """``verify_theorem`` must return one matching verdict per label."""
    failures = []
    if report.word != word:
        failures.append(f"report is for {report.word}, not {word}")
    if len(report.verdicts) != labels:
        failures.append(f"{len(report.verdicts)} verdicts, {labels} labels expected")
    for v in report.verdicts:
        if v.formula != v.inverse:
            failures.append(f"{word.letters}: label {v.label} formula != inverse")
    return failures


def check_verdicts_match(rebuilt, verdicts) -> list[str]:
    """Verdicts rebuilt from per-layer calls, as (label, formula, inverse)
    triples, must equal the program's own verdicts and must all match."""
    program = [(v.label, v.formula, v.inverse) for v in verdicts]
    failures = []
    if list(rebuilt) != program:
        failures.append("per-layer verdicts differ from verify_theorem's verdicts")
    for label, formula, inverse in rebuilt:
        if formula != inverse:
            failures.append(f"label {label}: formula != inverse")
    return failures


def check_contains(inside: bool, outside: bool) -> list[str]:
    failures = []
    if inside is not True:
        failures.append(f"contains returned {inside!r} on a planted inside point")
    if outside is not False:
        failures.append(f"contains returned {outside!r} on a planted outside point")
    return failures


def check_coefficients(got_pairs, planted: dict) -> list[str]:
    """``decompose`` must return exactly the planted coefficients, one per
    key; ``got_pairs`` is its result as (key, coefficient) pairs."""
    got_pairs = list(got_pairs)
    got = dict(got_pairs)
    if len(got) != len(got_pairs):
        return [f"decompose returned {len(got_pairs)} labels for {len(got)} keys"]
    if got == planted:
        return []
    wrong = sorted(
        (str(key), got.get(key), planted.get(key))
        for key in set(got) | set(planted)
        if got.get(key) != planted.get(key)
    )
    return [f"decompose coefficients differ (key, got, planted): {wrong}"]


def check_chamber_sets(got: set, expected: set) -> list[str]:
    """The chamber sets of ``bfz_word(Q)`` must be those of the partial
    quivers below Q."""
    if got == expected:
        return []
    return [
        f"bfz_word chamber sets: {len(got - expected)} unexpected, "
        f"{len(expected - got)} missing"
    ]


def check_counts_repeat(previous: dict | None, current: dict) -> list[str]:
    """Exact counts of one code version and seed must repeat run to run."""
    if previous is None or previous == current:
        return []
    keys = sorted(k for k in set(previous) | set(current) if previous.get(k) != current.get(k))
    return [
        f"nondeterminism: {k} was {previous.get(k)!r}, now {current.get(k)!r}"
        for k in keys
    ]
