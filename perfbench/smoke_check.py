"""Tests of the benchmark: its smoke mode runs, and its checks bite.

    python3 -m pytest perfbench/smoke_check.py -q

The first test runs ``run.py --smoke`` on every workload, traced and not.
The others feed each correctness check a deliberately altered answer,
built from real answers of the benchmark's WikiTable model.  The last two
check how error answers and per-table figures are counted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_mode_runs_every_workload(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         "--seed", "5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(run.WORKLOADS)
    names = run.PER_LAYER if trace else run.END_TO_END
    for result in results:
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(names)
        for name, unit in names.items():
            assert result["metrics"][name]["unit"] == unit
            if not trace:
                assert result["metrics"][name]["value"] > 0


@pytest.fixture(scope="module")
def answered():
    """Twenty held-out tables, their gold labels and the model's answer lines."""
    from repro import load_annotator
    from repro.serving import AnnotationEngine, AnnotationOptions, EngineConfig

    bundle = inputs.model_bundle(run.cache_root(), "wikitable", run.MODEL_SEED)
    exclude = inputs.training_fingerprints("wikitable", run.MODEL_SEED)
    corpus = inputs.wikitable_corpus(20, 77, run.MODEL_SEED, exclude, "x")
    engine = AnnotationEngine(load_annotator(bundle).trainer, EngineConfig())
    options = AnnotationOptions(with_embeddings=False, top_k=3)
    results = engine.annotate_batch(corpus.tables, options)
    lines = [json.dumps(r.to_dict(record_id=i)) + "\n" for i, r in enumerate(results)]
    return corpus, lines


def test_f1_floors_reject_wrong_labels(answered):
    corpus, lines = answered
    records = [json.loads(line) for line in lines]
    checks.check_floor("types", checks.type_f1(records, corpus.gold_types), checks.TYPE_F1_FLOOR["wikitable"])
    checks.check_floor("relations", checks.relation_f1(records, corpus.gold_relations), checks.RELATION_F1_FLOOR)
    for record in records:
        for column in record["columns"]:
            column["predicted_types"] = ["not.a.type"]
        for relation in record["relations"]:
            relation["predicted_relations"] = []
    with pytest.raises(checks.CheckFailed):
        checks.check_floor("types", checks.type_f1(records, corpus.gold_types), checks.TYPE_F1_FLOOR["wikitable"])
    with pytest.raises(checks.CheckFailed):
        checks.check_floor("relations", checks.relation_f1(records, corpus.gold_relations), checks.RELATION_F1_FLOOR)


def test_byte_identity_rejects_one_changed_score(answered):
    _, lines = answered
    checks.check_identical("same", lines, list(lines))
    altered = list(lines)
    altered[7] = altered[7].replace('"type_scores": {"', '"type_scores": {"x', 1)
    assert altered[7] != lines[7]
    with pytest.raises(checks.CheckFailed):
        checks.check_identical("altered", altered, lines)
    with pytest.raises(checks.CheckFailed):
        checks.check_identical("missing", lines[:-1], lines)


def test_answer_order_rejects_a_swap(answered):
    corpus, lines = answered
    records = [json.loads(line) for line in lines]
    ids = [table.table_id for table in corpus.tables]
    checks.check_table_ids(records, ids)
    records[3], records[4] = records[4], records[3]
    with pytest.raises(checks.CheckFailed):
        checks.check_table_ids(records, ids)


def test_one_answer_per_request(answered):
    _, lines = answered
    sent = list(range(len(lines)))
    checks.check_one_answer_each(sent, lines)
    with pytest.raises(checks.CheckFailed):
        checks.check_one_answer_each(sent, lines[:-1])  # one request unanswered
    with pytest.raises(checks.CheckFailed):
        checks.check_one_answer_each(sent, lines + lines[:1])  # one answered twice
    wrong_id = lines[:-1] + [lines[-1].replace(f'"id": {len(lines) - 1}}}', '"id": 999}')]
    with pytest.raises(checks.CheckFailed):
        checks.check_one_answer_each(sent, wrong_id)


def test_int8_checks():
    checks.check_no_fallbacks(0)
    with pytest.raises(checks.CheckFailed):
        checks.check_no_fallbacks(1)
    checks.check_int8_drift(0.8200, 0.8240)
    with pytest.raises(checks.CheckFailed):
        checks.check_int8_drift(0.8180, 0.8240)


def test_error_answers_are_split_off(answered):
    _, lines = answered
    error = json.dumps({"error": "bad table", "id": 99}) + "\n"
    ok, errors = checks.split_errors(lines[:3] + [error] + lines[3:])
    assert ok == lines and errors == [error]


def test_per_table_divides_only_the_totals():
    values = {"timed.tables": 4, "text.tokenize_calls": 10, "persistence.load_s": 0.5}
    assert run.per_table(values) == {
        "timed.tables": 4, "text.tokenize_calls": 2.5, "persistence.load_s": 0.5,
    }
