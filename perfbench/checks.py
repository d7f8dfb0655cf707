"""Correctness checks of the benchmark's answers.

Each check compares the answers under test with something computed apart
from them: the generator's gold labels, a reference engine, or the requests
the load generator sent.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

# Micro-F1 floors.  Scratch runs of the benchmark models scored about 0.97
# (types) and 0.95 (relations) on WikiTable corpora and 0.84 on lake
# corpora; the floors sit far enough below to hold on every seed and far
# enough above chance to catch answers that no longer follow the model.
TYPE_F1_FLOOR = {"wikitable": 0.90, "viznet-scol": 0.70}
RELATION_F1_FLOOR = 0.85
# Largest type-F1 drop of the int8 path against float32 on the same tables.
INT8_F1_DRIFT = 0.005


class CheckFailed(AssertionError):
    """An answer differs from what an independent computation says."""


def micro_f1(pairs: Iterable[Tuple[Sequence[str], Sequence[str]]]) -> float:
    """Micro-F1 over (predicted labels, gold labels) pairs."""
    tp = fp = fn = 0
    for predicted, gold in pairs:
        predicted, gold = set(predicted), set(gold)
        tp += len(predicted & gold)
        fp += len(predicted - gold)
        fn += len(gold - predicted)
    if tp == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def type_f1(answers: Sequence[Dict], gold_types: Sequence[List[List[str]]]) -> float:
    """Column-type micro-F1 of answer records against gold labels."""
    return micro_f1(
        (column["predicted_types"], gold)
        for answer, gold_columns in zip(answers, gold_types)
        for column, gold in zip(answer["columns"], gold_columns)
    )


def relation_f1(
    answers: Sequence[Dict], gold_relations: Sequence[Dict[Tuple[int, int], List[str]]]
) -> float:
    """Column-relation micro-F1; a gold pair the answer did not probe counts
    all its labels as missed."""

    def pairs():
        for answer, gold in zip(answers, gold_relations):
            probed = {
                tuple(rel["columns"]): rel["predicted_relations"]
                for rel in answer["relations"]
            }
            for pair in set(probed) | set(gold):
                yield probed.get(pair, []), gold.get(pair, [])

    return micro_f1(pairs())


def check_table_ids(answers: Sequence[Dict], table_ids: Sequence[str]) -> None:
    """One answer per table, in input order."""
    got = [answer.get("table_id") for answer in answers]
    if got != list(table_ids[: len(got)]):
        first = next(i for i, (a, b) in enumerate(zip(got, table_ids)) if a != b)
        raise CheckFailed(
            f"answer {first} is for table {got[first]!r}, expected {table_ids[first]!r}"
        )


def check_floor(name: str, value: float, floor: float) -> None:
    if not value >= floor:
        raise CheckFailed(f"{name} {value:.4f} is below its floor {floor:.4f}")


def check_int8_drift(int8_f1: float, float32_f1: float) -> None:
    if float32_f1 - int8_f1 > INT8_F1_DRIFT:
        raise CheckFailed(
            f"int8 type F1 {int8_f1:.4f} is more than {INT8_F1_DRIFT} below "
            f"float32 {float32_f1:.4f} on the same tables"
        )


def check_identical(label: str, got: Sequence[str], expected: Sequence[str]) -> None:
    """Answer lines byte-identical to the lines of an independent run."""
    if len(got) != len(expected):
        raise CheckFailed(f"{label}: {len(got)} answers, expected {len(expected)}")
    for i, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            raise CheckFailed(f"{label}: answer {i} differs\n got {a[:200]!r}\n want {b[:200]!r}")


def check_one_answer_each(sent: Sequence[object], answered: Sequence[str]) -> None:
    """Exactly one answer line per request sent, carrying its ``"id"``."""
    counts = Counter(json.loads(line).get("id") for line in answered)
    sent_ids = Counter(sent)
    if len(sent_ids) != len(sent):
        raise CheckFailed("the load generator reused a request id")
    twice = [rid for rid, n in counts.items() if n > 1]
    if twice:
        raise CheckFailed(f"{len(twice)} requests were answered more than once, e.g. id {twice[0]!r}")
    missing = [rid for rid in sent if rid not in counts]
    if missing:
        raise CheckFailed(f"{len(missing)} requests got no answer, e.g. id {missing[0]!r}")
    extra = [rid for rid in counts if rid not in sent_ids]
    if extra:
        raise CheckFailed(f"{len(extra)} answers carry an id never sent, e.g. {extra[0]!r}")


def split_errors(answered: Sequence[str]) -> Tuple[List[str], List[str]]:
    """Answer lines split into annotations and ``{"error": ...}`` answers."""
    errors = [line for line in answered if "error" in json.loads(line)]
    return [line for line in answered if "error" not in json.loads(line)], errors


def check_no_fallbacks(quant_fallbacks: int) -> None:
    if quant_fallbacks != 0:
        raise CheckFailed(f"the int8 path fell back to float32 {quant_fallbacks} times")
