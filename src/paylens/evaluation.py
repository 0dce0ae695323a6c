"""Class balancing, stratified k-fold plans, cross-validation and grid search.

Folds are disjoint, cover every row, and keep per-fold class counts within
one of the proportional share. Every fitted component (vocabulary, scaler,
classifier) is refit inside each fold on training rows only; configs that
share a featurization share each fold's vocabulary, scaler and matrices.
Grid search cross-validates every expanded config, picks the best mean
accuracy (first wins ties), and refits the winner on all rows.
"""

from __future__ import annotations

import itertools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import SingleClass, TooFewSamples, WorkerDied
from .labels import LabeledUser
from .models.serialize import encode
from .pipeline import (FittedPipeline, PipelineConfig, UserDataset,
                       featurization_key, fit_features, fit_model, fit_pipeline,
                       pipeline_predict, pipeline_transform)


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[tuple[int, ...], ...]
    seed: int

    @property
    def k(self) -> int:
        return len(self.folds)

    def split(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        test = np.asarray(self.folds[i], dtype=np.int64)
        train = np.asarray(
            [r for j, f in enumerate(self.folds) if j != i for r in f],
            dtype=np.int64)
        return np.sort(train), np.sort(test)


def balance_classes(labeled: Sequence[LabeledUser], seed: int = 0) -> list[LabeledUser]:
    """Downsample the majority class uniformly (seeded) to the minority size."""
    by_label: dict[str, list[int]] = {}
    for i, lu in enumerate(labeled):
        by_label.setdefault(lu.label, []).append(i)
    if len(by_label) < 2:
        raise SingleClass("balancing requires two classes")
    minority = min(len(v) for v in by_label.values())
    rng = np.random.default_rng(seed)
    keep: set[int] = set()
    for label in sorted(by_label):
        idx = by_label[label]
        if len(idx) > minority:
            chosen = rng.choice(len(idx), size=minority, replace=False)
            keep.update(idx[i] for i in sorted(chosen))
        else:
            keep.update(idx)
    return [lu for i, lu in enumerate(labeled) if i in keep]


def check_folds(k: int) -> None:
    """ValueError unless k is at least 2."""
    if k < 2:
        raise ValueError("k must be >= 2")


def stratified_kfold(labels: Sequence, k: int, seed: int = 0) -> FoldPlan:
    """Deal each class's shuffled indices round-robin into k folds."""
    check_folds(k)
    rng = np.random.default_rng(seed)
    by_class: dict = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    for label, idx in sorted(by_class.items(), key=lambda kv: str(kv[0])):
        if len(idx) < k:
            raise TooFewSamples(
                f"class {label!r} has {len(idx)} samples, fewer than k={k}")
    folds: list[list[int]] = [[] for _ in range(k)]
    for label, idx in sorted(by_class.items(), key=lambda kv: str(kv[0])):
        perm = rng.permutation(len(idx))
        start = int(rng.integers(k))  # rotate which fold takes the remainder
        for j, p in enumerate(perm):
            folds[(start + j) % k].append(idx[p])
    return FoldPlan(folds=tuple(tuple(sorted(f)) for f in folds), seed=seed)


Outcome = tuple[int, int, int, int]  # one fold's tn, fp, fn, tp


@dataclass
class CvResult:
    config: PipelineConfig
    outcomes: list[Outcome]  # one per fold

    @property
    def fold_accuracies(self) -> list[float]:
        return [(tn + tp) / n if (n := tn + fp + fn + tp) else 0.0
                for tn, fp, fn, tp in self.outcomes]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def confusion(self) -> Outcome:
        return tuple(sum(counts) for counts in zip(*self.outcomes))


def _outcome(y_true: np.ndarray, y_pred: np.ndarray) -> Outcome:
    """The count of each (true, predicted) pair: tn, fp, fn, tp."""
    return tuple(int(np.sum((y_true == t) & (y_pred == p)))
                 for t, p in ((0, 0), (0, 1), (1, 0), (1, 1)))


_pool_state: tuple = ()  # cross_validate's inputs while it runs; workers fork it


def _fold_group(i: int, members: list[int]) -> list[Outcome]:
    """Fold i's outcomes for the member configs, which share a featurization:
    the featurization and the test transform once, then a model per config,
    SVMs in ascending C, each warm-started from the last one's dual solution."""
    dataset, plan, configs = _pool_state
    train_idx, test_idx = plan.split(i)
    y_train, y_true = dataset.labels01[train_idx], dataset.labels01[test_idx]
    features, X = fit_features(dataset, train_idx, configs[members[0]])
    X_test = pipeline_transform(features, dataset, test_idx)
    outcomes: dict[int, Outcome] = {}
    warm = np.zeros(len(train_idx))
    for j in sorted(members, key=lambda j: configs[j].C):
        model = fit_model(X, y_train, configs[j], warm)
        fitted = replace(features, config=configs[j], model=model)
        outcomes[j] = _outcome(y_true, pipeline_predict(fitted, X_test))
    return [outcomes[j] for j in members]


def cross_validate(dataset: UserDataset, plan: FoldPlan,
                   configs: Sequence[PipelineConfig],
                   workers: int = 1) -> list[CvResult]:
    """Held-out accuracy per fold for each config, in input order; all fitted
    state comes from training rows.

    Each (fold, featurization) pair is one task. With more than one worker
    and a `fork` start method, the tasks run in a pool of min(workers, tasks)
    forked processes, which inherit the dataset instead of unpickling it;
    otherwise they run here, one after another. The results are the same
    either way. A task's error is raised here as it was raised in the
    worker, and a worker that dies is a WorkerDied. Tasks start longest
    first, so the pool does not end on a long one: tf-idf (slower SVMs)
    before count, wider n-gram ranges (more columns) before narrower."""
    global _pool_state
    groups: dict[tuple, list[int]] = {}
    for j, c in enumerate(configs):
        groups.setdefault(featurization_key(c), []).append(j)

    def longest_first(members: list[int]) -> tuple:
        c = configs[members[0]]
        return c.vectorizer != "tfidf", c.n_range[0] - c.n_range[1]

    tasks = [(i, members) for members in sorted(groups.values(), key=longest_first)
             for i in range(plan.k)]
    processes = min(workers, len(tasks))
    _pool_state = (dataset, plan, configs)
    try:
        if processes > 1 and "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(
                    processes, mp_context=multiprocessing.get_context("fork")) as pool:
                done = list(pool.map(_fold_group, *zip(*tasks)))
        else:
            done = [_fold_group(i, members) for i, members in tasks]
    except BrokenProcessPool as exc:  # a worker was killed, say by the OOM killer
        raise WorkerDied(f"a cross-validation worker died: {exc}") from None
    finally:
        _pool_state = ()
    outcomes: list[list[Outcome]] = [[] for _ in configs]
    for (_, members), task_outcomes in zip(tasks, done):  # fold order per config
        for j, outcome in zip(members, task_outcomes):
            outcomes[j].append(outcome)
    return [CvResult(config=c, outcomes=o) for c, o in zip(configs, outcomes)]


@dataclass(frozen=True)
class GridSpec:
    """Axes expanded in declaration order; C applies to the SVM only. The
    codec (`models.serialize.decode`) reads a grid file by these type hints."""

    vectorizers: tuple[str, ...] = ("count", "tfidf")
    n_ranges: tuple[tuple[int, int], ...] = ((1, 1), (1, 2))
    classifiers: tuple[str, ...] = ("svm", "mlp", "gbdt")
    svm_c: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    mlp_overrides: dict = field(default_factory=dict)
    gbdt_overrides: dict = field(default_factory=dict)

    def expand(self, base: PipelineConfig) -> list[PipelineConfig]:
        """One config per grid point; the grid's override keys win over base's.
        No points, or a point PipelineConfig rejects, is a ValueError."""
        mlp = {**base.mlp_overrides, **self.mlp_overrides}
        gbdt = {**base.gbdt_overrides, **self.gbdt_overrides}
        configs = [replace(base, vectorizer=vec, n_range=nr, classifier=clf,
                           C=c, mlp_overrides=mlp, gbdt_overrides=gbdt)
                   for vec, nr, clf in itertools.product(
                       self.vectorizers, self.n_ranges, self.classifiers)
                   for c in (self.svm_c if clf == "svm" else (base.C,))]
        if not configs:
            raise ValueError("empty grid")
        return configs


@dataclass
class EvalReport:
    task: str
    seed: int
    k: int
    results: list[CvResult]
    best_index: int
    best_model: FittedPipeline

    @property
    def best(self) -> CvResult:
        return self.results[self.best_index]

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "seed": self.seed,
            "folds": self.k,
            "class_names": list(self.best_model.class_names),
            "configs": [
                {
                    "config": encode(r.config),
                    "fold_accuracies": r.fold_accuracies,
                    "mean_accuracy": r.mean_accuracy,
                    "confusion": dict(zip(("tn", "fp", "fn", "tp"), r.confusion)),
                }
                for r in self.results
            ],
            "best": {
                "index": self.best_index,
                "config": encode(self.best.config),
                "mean_accuracy": self.best.mean_accuracy,
            },
        }


def grid_search(configs: Sequence[PipelineConfig], plan: FoldPlan,
                dataset: UserDataset, workers: int = 1) -> EvalReport:
    """Cross-validate every config (the points of `GridSpec.expand`) with up
    to `workers` processes, then refit the best config on all rows here."""
    results = cross_validate(dataset, plan, configs, workers)
    means = [r.mean_accuracy for r in results]
    best_index = int(np.argmax(means))  # first best wins ties
    best_model = fit_pipeline(dataset, np.arange(len(dataset)), configs[best_index])
    return EvalReport(task=dataset.task, seed=plan.seed, k=plan.k,
                      results=results, best_index=best_index,
                      best_model=best_model)
