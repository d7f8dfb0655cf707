"""Seeded inputs of the benchmark: trained model bundles and workload corpora.

Models are trained through the public API (``DoduoTrainer`` then
``save_annotator``) from a model seed and cached on disk by that seed and
their settings, so every run after the first reuses the bundles.  Corpora
are generated from the workload seed; the same seed gives the same tables.
Gold labels stay with the benchmark: the tables handed to the program carry
cell values and headers only.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro import DoduoConfig, DoduoTrainer, save_annotator
from repro.core import Doduo
from repro.core.trainer import RELATION_TASK, TYPE_TASK
from repro.datasets import (
    Column,
    KnowledgeBase,
    Table,
    TableDataset,
    generate_viznet_dataset,
    generate_wikitable_dataset,
    split_dataset,
)
from repro.encoding.cache import table_fingerprint
from repro.io import save_dataset_jsonl
from repro.nn import TransformerConfig
from repro.text import train_wordpiece

# Model settings.  Small enough to train in seconds on one core, large
# enough to clear the F1 floors in checks.py by a wide margin.
MODEL_SETTINGS: Dict[str, Dict] = {
    # Table-wise, multi-task (types + relations), multi-label: the paper's
    # DODUO on WikiTable.
    "wikitable": dict(
        corpus="wikitable", train_tables=1000, vocab_size=1000,
        hidden_dim=32, layers=2, heads=2, max_position=128,
        tasks=(TYPE_TASK, RELATION_TASK), multi_label=True,
        single_column=False, epochs=15, max_tokens_per_column=8,
    ),
    # Single-column, single-label type model: the paper's Dosolo-SCol on
    # VizNet.
    "viznet-scol": dict(
        corpus="viznet", train_tables=1000, vocab_size=1000,
        hidden_dim=32, layers=2, heads=2, max_position=128,
        tasks=(TYPE_TASK,), multi_label=False,
        single_column=True, epochs=10, max_tokens_per_column=8,
    ),
}


def wikitable_kb(model_seed: int) -> KnowledgeBase:
    """The entity pool of the WikiTable model and of every corpus served to
    it (a table about unknown entities would test the model, not the stack)."""
    return KnowledgeBase(np.random.default_rng(model_seed + 1))


def _training_dataset(name: str, model_seed: int):
    settings = MODEL_SETTINGS[name]
    if settings["corpus"] == "wikitable":
        return generate_wikitable_dataset(
            num_tables=settings["train_tables"], seed=model_seed,
            kb=wikitable_kb(model_seed),
        )
    return generate_viznet_dataset(
        num_tables=settings["train_tables"], seed=model_seed
    )


def training_fingerprints(name: str, model_seed: int) -> set:
    """Content fingerprints of every table the model was trained from."""
    dataset = _training_dataset(name, model_seed)
    return {table_fingerprint(table) for table in dataset.tables}


def model_bundle(cache_root: Path, name: str, model_seed: int) -> Path:
    """The bundle directory of model ``name``, training it on first use.

    Cached by model seed and a hash of the settings, so a change of either
    retrains.  Training writes into a temporary directory that is renamed
    into place, so an interrupted run never leaves a half-written bundle.
    """
    settings = MODEL_SETTINGS[name]
    digest = hashlib.sha256(
        json.dumps(settings, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    bundle = cache_root / "models" / f"{name}-seed{model_seed}-{digest}"
    if (bundle / "bundle.json").exists():
        return bundle
    splits = split_dataset(_training_dataset(name, model_seed), seed=model_seed)
    tokenizer = train_wordpiece(
        splits.train.all_cell_text(), vocab_size=settings["vocab_size"]
    )
    encoder_config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        hidden_dim=settings["hidden_dim"],
        num_layers=settings["layers"],
        num_heads=settings["heads"],
        ffn_dim=2 * settings["hidden_dim"],
        max_position=settings["max_position"],
        num_segments=12,
        dropout=0.1,
    )
    config = DoduoConfig(
        tasks=settings["tasks"],
        multi_label=settings["multi_label"],
        single_column=settings["single_column"],
        max_tokens_per_column=settings["max_tokens_per_column"],
        epochs=settings["epochs"],
        batch_size=8,
        seed=model_seed,
    )
    trainer = DoduoTrainer(splits.train, tokenizer, encoder_config, config)
    trainer.train(valid_dataset=splits.valid)
    staging = bundle.with_name(f"{bundle.name}.tmp-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    save_annotator(Doduo(trainer), staging)
    try:
        os.rename(staging, bundle)
    except OSError:
        # Another run trained the same bundle first; its copy is as good.
        shutil.rmtree(staging, ignore_errors=True)
    return bundle


# ----------------------------------------------------------------------------
# Corpora
# ----------------------------------------------------------------------------


@dataclass
class Corpus:
    """Tables as the program sees them, plus their gold labels.

    ``gold_types[t][c]`` is the label set of column ``c`` of table ``t``;
    ``gold_relations[t]`` maps a column pair to its label set.
    """

    tables: List[Table]
    gold_types: List[List[List[str]]]
    gold_relations: List[Dict[Tuple[int, int], List[str]]]

    def __len__(self) -> int:
        return len(self.tables)


def _append(corpus: Corpus, table: Table, table_id: str) -> None:
    corpus.tables.append(Table(
        columns=[Column(values=list(col.values), header=col.header) for col in table.columns],
        table_id=table_id,
    ))
    corpus.gold_types.append([list(col.type_labels) for col in table.columns])
    corpus.gold_relations.append(
        {pair: list(labels) for pair, labels in table.relation_labels.items()}
    )


def wikitable_corpus(
    count: int, seed: int, model_seed: int, exclude: set, prefix: str
) -> Corpus:
    """``count`` distinct WikiTable-style tables, none of them in ``exclude``.

    Entities come from the model's knowledge base, so cells repeat heavily
    across tables while whole tables do not.
    """
    dataset = generate_wikitable_dataset(
        num_tables=count + count // 10 + 10, seed=seed, kb=wikitable_kb(model_seed)
    )
    seen = set(exclude)
    corpus = Corpus([], [], [])
    for table in dataset.tables:
        fingerprint = table_fingerprint(table)
        if fingerprint not in seen:
            seen.add(fingerprint)
            _append(corpus, table, f"{prefix}-{len(corpus)}")
            if len(corpus) == count:
                return corpus
    raise RuntimeError(f"generator produced {len(corpus)} distinct tables of {count}")


def lake_corpus(count: int, seed: int, pool_columns: int, exclude: set, prefix: str) -> Corpus:
    """``count`` lake-style tables drawn from a shared pool of VizNet columns.

    Each table takes one to four distinct columns from the pool, uniformly,
    so a column recurs in about ``count * 2.5 / pool_columns`` tables while
    whole tables rarely repeat (repeats, and training tables, are redrawn).
    """
    rng = np.random.default_rng(seed)
    # Every generated table has at least one column.
    dataset = generate_viznet_dataset(num_tables=pool_columns, seed=seed)
    pool = [column for table in dataset.tables for column in table.columns][:pool_columns]
    seen = set(exclude)
    corpus = Corpus([], [], [])
    while len(corpus) < count:
        width = int(rng.integers(1, 5))
        picks = rng.choice(pool_columns, size=width, replace=False)
        table = Table(columns=[pool[int(k)] for k in picks])
        fingerprint = table_fingerprint(table)
        if fingerprint not in seen:
            seen.add(fingerprint)
            _append(corpus, table, f"{prefix}-{len(corpus)}")
    return corpus


def write_corpus(corpus: Corpus, path: Path) -> None:
    """Write the program-facing tables as a ``repro`` dataset JSONL file."""
    save_dataset_jsonl(
        TableDataset(tables=corpus.tables, type_vocab=[], name=path.stem), path
    )
