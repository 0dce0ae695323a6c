"""Glue between corpus, labels, text features and classifiers.

A UserDataset holds the tokenized posts, raw engineered feature rows and
binary labels for the users a task kept. A FittedPipeline owns every piece
of fitted state (vocabulary, scaler, classifier); fitting only ever sees
training rows, so held-out rows cannot leak into the vocabulary or scaler.
Its feature names are derived, never stored: the vocabulary's terms, then
the engineered columns the config uses. Every fact it holds must agree with
the config: the vocabulary's n_range and min_df, the model's kind and the
widths of the scaler and model. save_pipeline and load_pipeline store it,
at PIPELINE_VERSION, with the codec of `paylens.models.serialize`; a file
of another version is refused.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence, get_type_hints

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, UserProfile
from .features import (ContentCounts, aggregate_user_features,
                       detect_content_features, engineered_feature_names)
from .labels import CLASS_B, CLASS_NAMES, LabeledUser
from .models import (GbdtConfig, MlpConfig, gbdt_predict, mlp_predict,
                     svm_predict, train_gbdt, train_linear_svm, train_mlp)
from .models.serialize import (check_header, decode, encode, fits_type,
                               read_container, write_container)
from .tokenizer import TokenizedPost, ngram_orders, tokenize_post
from .vectorizer import (ScalerStats, Vocabulary, assemble_feature_matrix,
                         count_transform, fit_vocabulary, l2_normalize_rows,
                         tfidf_transform)

PIPELINE_MAGIC = "paylens-pipeline"
PIPELINE_VERSION = 2

VECTORIZERS = ("count", "tfidf")
CLASSIFIERS = ("svm", "mlp", "gbdt")


@dataclass(frozen=True)
class PipelineConfig:
    vectorizer: str = "tfidf"
    n_range: tuple[int, int] = (1, 2)
    min_df: int = 2
    use_engineered: bool = True
    include_actor_pct: bool = False
    normalize_counts: bool = False  # ablation: L2-normalize raw count rows
    classifier: str = "svm"
    C: float = 1.0
    svm_tol: float = 1e-3
    mlp_overrides: tuple = ()   # (key, value) pairs or a dict; kept sorted
    gbdt_overrides: tuple = ()
    seed: int = 0

    def __post_init__(self):
        for key, names in (("vectorizer", VECTORIZERS), ("classifier", CLASSIFIERS)):
            if getattr(self, key) not in names:
                raise ValueError(f"unknown {key} {getattr(self, key)!r}")
        ngram_orders(self.n_range)
        object.__setattr__(self, "n_range", tuple(self.n_range))
        for key, kind in get_type_hints(PipelineConfig).items():
            value = getattr(self, key)
            if kind in (int, float, bool) and not fits_type(value, kind):
                raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")
            if kind is float:
                object.__setattr__(self, key, float(value))
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C!r}")
        for key, model_config in (("mlp_overrides", MlpConfig),
                                  ("gbdt_overrides", GbdtConfig)):
            value = getattr(self, key)
            try:
                overrides = dict(value)
            except (TypeError, ValueError):
                raise ValueError(f"{key} must map {model_config.__name__} "
                                 f"fields to values, got {value!r}") from None
            types = get_type_hints(model_config)
            for name, v in overrides.items():
                if name not in types:
                    raise ValueError(f"{key}: {name!r} is not a "
                                     f"{model_config.__name__} field")
                if not fits_type(v, types[name]):
                    raise ValueError(f"{key}: {name!r} must be "
                                     f"{types[name].__name__}, got {v!r}")
                if name != "seed" and v <= 0:  # sizes, counts and rates
                    raise ValueError(f"{key}: {name!r} must be positive, "
                                     f"got {v!r}")
            object.__setattr__(self, key, tuple(sorted(overrides.items())))

    def to_dict(self) -> dict:
        return {**asdict(self), "n_range": list(self.n_range),
                "mlp_overrides": dict(self.mlp_overrides),
                "gbdt_overrides": dict(self.gbdt_overrides)}


@dataclass
class UserDataset:
    user_ids: list[str]
    posts: list[list[TokenizedPost]]
    engineered: np.ndarray        # raw rows, one per user
    labels01: np.ndarray          # class_a -> 0, class_b -> 1
    class_names: tuple[str, str]  # (name of 0, name of 1)
    task: str

    def __len__(self) -> int:
        return len(self.user_ids)


def user_features(profile: UserProfile, include_actor_pct: bool,
                  memo: dict[str, tuple[TokenizedPost, ContentCounts]]
                  ) -> tuple[list[TokenizedPost], np.ndarray]:
    """One user's tokenized posts and engineered feature row.

    Each distinct note is tokenized and detected once per memo, which maps a
    note to its (post, counts). Every caller passes one: build_dataset's
    lasts that call, and `featurize` passes a fresh one per user.
    """
    for t, _ in profile.posts:
        if t.note not in memo:
            post = tokenize_post(t.note)
            memo[t.note] = post, detect_content_features(post)
    pairs = [memo[t.note] for t, _ in profile.posts]
    posts = [post for post, _ in pairs]
    counts = [c for _, c in pairs]
    return posts, aggregate_user_features(profile, posts, counts, include_actor_pct)


def build_dataset(corpus: Corpus, labeled: Sequence[LabeledUser],
                  include_actor_pct: bool = False) -> UserDataset:
    """Tokenize and featurize the labeled users of a corpus, label-aligned.

    Users who share a note share its TokenizedPost (and so its n-gram
    cache): the note -> (post, counts) memo lasts this call only.
    """
    task = labeled[0].task if labeled else "gender"
    memo: dict[str, tuple[TokenizedPost, ContentCounts]] = {}
    users = [user_features(corpus.users[lu.user_id], include_actor_pct, memo)
             for lu in labeled]
    engineered = (np.stack([row for _, row in users]) if users
                  else np.zeros((0, len(engineered_feature_names(include_actor_pct)))))
    names = CLASS_NAMES[task]
    return UserDataset(
        user_ids=[lu.user_id for lu in labeled], posts=[posts for posts, _ in users],
        engineered=engineered,
        labels01=np.asarray([lu.label == CLASS_B for lu in labeled], dtype=np.int64),
        class_names=(names["class_a"], names["class_b"]), task=task,
    )


@dataclass
class FittedPipeline:
    config: PipelineConfig
    vocab: Vocabulary
    scaler: ScalerStats | None
    model: object
    class_names: tuple[str, str]

    def __post_init__(self):
        config, model, vocab = self.config, self.model, self.vocab
        if model is not None and model.kind != config.classifier:
            raise ValueError(f"a {model.kind!r} model under a "
                             f"{config.classifier!r} config")
        for what, got, want in (  # each fact the vocabulary keeps of the config
                ("vocabulary n_range", tuple(vocab.n_range), config.n_range),
                ("vocabulary min_df", vocab.min_df, config.min_df)):
            if got != want:
                raise ValueError(f"{what} mismatch: {str(got)[:80]} against "
                                 f"{str(want)[:80]}")
        n_names = len(self.feature_names)
        scaled = 0 if self.scaler is None else len(self.scaler.mean)
        if (scaled != n_names - len(vocab)
                or (self.scaler is None) == config.use_engineered):
            raise ValueError(f"{n_names} feature names for {len(vocab)} "
                             f"terms, {scaled} scaler means and {scaled} stds")
        if model is not None:  # a tree reads only the columns it splits on
            width = (model.n_inputs if model.kind == "gbdt" else
                     len(model.weights if model.kind == "svm" else model.W1))
            if width > n_names or (width < n_names and model.kind != "gbdt"):
                raise ValueError(f"a model reading {width} inputs for "
                                 f"{n_names} feature names")

    @property
    def feature_names(self) -> list[str]:
        """The vocabulary's terms, then the engineered columns the config uses."""
        if not self.config.use_engineered:
            return list(self.vocab.terms)
        return self.vocab.terms + engineered_feature_names(
            self.config.include_actor_pct)


def featurization_key(config: PipelineConfig) -> tuple:
    """The fields fit_features reads: equal keys, equal matrices and names."""
    return (config.vectorizer, config.n_range, config.min_df,
            config.use_engineered, config.include_actor_pct,
            config.normalize_counts)


def _features_for(dataset: UserDataset, idx: np.ndarray, vocab: Vocabulary,
                  scaler: ScalerStats | None, config: PipelineConfig
                  ) -> tuple[sp.csr_matrix, ScalerStats | None]:
    text = count_transform([dataset.posts[i] for i in idx], vocab)
    if config.vectorizer == "tfidf":
        text = tfidf_transform(text, vocab)
    elif config.normalize_counts:
        text = l2_normalize_rows(text)
    if not config.use_engineered:
        return text, scaler
    return assemble_feature_matrix(text, dataset.engineered[idx], scaler)


def fit_features(dataset: UserDataset, train_idx: Sequence[int],
                 config: PipelineConfig) -> tuple[FittedPipeline, sp.csr_matrix]:
    """Vocabulary and scaler fit on the given training rows only, as a
    FittedPipeline with no model yet, plus the training matrix."""
    idx = np.asarray(train_idx, dtype=np.int64)
    vocab = fit_vocabulary([dataset.posts[i] for i in idx],
                           n_range=config.n_range, min_df=config.min_df)
    X, scaler = _features_for(dataset, idx, vocab, None, config)
    return FittedPipeline(config=config, vocab=vocab, scaler=scaler, model=None,
                          class_names=dataset.class_names), X


def fit_model(X: sp.csr_matrix, y01: np.ndarray, config: PipelineConfig,
              warm: np.ndarray | None = None):
    """The configured classifier trained on X, which it leaves unchanged. An
    SVM warm-starts from `warm` and leaves its dual solution there (see
    train_linear_svm); the other classifiers ignore it."""
    if config.classifier == "svm":
        return train_linear_svm(X, 2 * y01 - 1, C=config.C, tol=config.svm_tol,
                                seed=config.seed, warm=warm)
    train, model_config, overrides = (
        (train_mlp, MlpConfig, config.mlp_overrides) if config.classifier == "mlp"
        else (train_gbdt, GbdtConfig, config.gbdt_overrides))
    return train(X, y01, model_config(**{"seed": config.seed, **dict(overrides)}))


def fit_pipeline(dataset: UserDataset, train_idx: Sequence[int],
                 config: PipelineConfig) -> FittedPipeline:
    """Fit vocabulary, scaler and classifier on the given training rows only."""
    fitted, X = fit_features(dataset, train_idx, config)
    y01 = dataset.labels01[np.asarray(train_idx, dtype=np.int64)]
    fitted.model = fit_model(X, y01, config)
    return fitted


def pipeline_transform(fitted: FittedPipeline, dataset: UserDataset,
                       idx: Sequence[int]) -> sp.csr_matrix:
    """Feature rows for held-out users using only the fitted state."""
    return _features_for(dataset, np.asarray(idx, dtype=np.int64),
                         fitted.vocab, fitted.scaler, fitted.config)[0]


def pipeline_predict(fitted: FittedPipeline, X) -> np.ndarray:
    """Predicted labels in {0, 1}."""
    kind = fitted.config.classifier
    if kind == "svm":
        return ((svm_predict(fitted.model, X) + 1) // 2).astype(np.int64)
    if kind == "mlp":
        return mlp_predict(fitted.model, X)
    return gbdt_predict(fitted.model, X)


def save_pipeline(fitted: FittedPipeline, path: str) -> None:
    write_container({"magic": PIPELINE_MAGIC, "version": PIPELINE_VERSION,
                     "kind": "pipeline", "payload": encode(fitted)}, path)


def load_pipeline(path: str) -> FittedPipeline:
    container = read_container(path, "pipeline")
    check_header(container, PIPELINE_MAGIC, PIPELINE_VERSION, "pipeline")
    return decode(container.get("payload"), FittedPipeline, "pipeline payload")
