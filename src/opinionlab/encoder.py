"""Attention-pooled profile encoder over a frozen word-embedding table.

Profiles are tokenized, padded to a fixed length, embedded through a frozen
table, and pooled with a single learned context vector: each word gets a
score (dot product with the context vector), scores are softmaxed over the
real tokens, and the user representation is the resulting weighted average
of the word vectors.  Only the context vector trains.
"""

from __future__ import annotations

import re
import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import ProfileCorpus

PAD = "<pad>"
_TOKEN_RE = re.compile(r"[a-z0-9']+")

MASK_NEG = 1e9

OOV_BUCKETS = 32  # fallback rows that unknown tokens hash into
MAX_PROFILE_LEN = 25  # profiles are truncated or padded to this many tokens


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on non-word characters."""
    return _TOKEN_RE.findall(text.lower())


def tokenize_and_pad(text: str):
    """Fixed-length token list plus a 0/1 mask of real positions.

    Texts longer than MAX_PROFILE_LEN are truncated at the end; shorter ones
    are padded. Empty text gives an all-pad sequence with an all-zero mask.
    """
    tokens = tokenize(text)[:MAX_PROFILE_LEN]
    mask = np.zeros(MAX_PROFILE_LEN)
    mask[: len(tokens)] = 1.0
    return tokens + [PAD] * (MAX_PROFILE_LEN - len(tokens)), mask


class EmbeddingTable:
    """Frozen token -> vector map with a deterministic hashing fallback.

    Known tokens use their own unit-norm row; unknown ones hash into a
    fixed pool of fallback rows so they still get a stable embedding.  The
    pad token maps to the zero vector.
    """

    def __init__(self, vocabulary: dict[str, int], vectors: np.ndarray):
        self.vocabulary = dict(vocabulary)
        self.vectors = np.asarray(vectors, dtype=float)
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("non-finite embedding vectors")
        if np.any(self.vectors[0] != 0.0):
            raise ValueError("row 0 is the pad row and must be zero")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def random(cls, words, dim: int = 32, seed: int = 0) -> "EmbeddingTable":
        """Seeded random unit-norm vectors for `words` plus OOV buckets."""
        words = sorted(set(words) - {PAD})
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((1 + len(words) + OOV_BUCKETS, dim))
        rows /= np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-12)
        rows[0] = 0.0
        vocab = {w: i + 1 for i, w in enumerate(words)}
        return cls(vocab, rows)

    @classmethod
    def from_corpus(cls, corpus: ProfileCorpus, dim: int = 32, seed: int = 0) -> "EmbeddingTable":
        words = set()
        for text in corpus.descriptions.values():
            words.update(tokenize(text))
        return cls.random(words, dim=dim, seed=seed)

    def token_id(self, token: str) -> int:
        if token == PAD:
            return 0
        idx = self.vocabulary.get(token)
        if idx is not None:
            return idx
        bucket = zlib.crc32(token.encode("utf-8")) % OOV_BUCKETS
        return len(self.vocabulary) + 1 + bucket

    def embed(self, tokens: list[str]) -> np.ndarray:
        return self.vectors[[self.token_id(t) for t in tokens]]


def attention_weights(word_vectors, mask, context: Tensor) -> Tensor:
    """Softmax attention weights over token positions.

    `word_vectors` is (..., N, b) and `mask` (..., N); pads are pushed out
    of the softmax.
    """
    scores = (word_vectors * context).sum(axis=-1)
    scores = scores + (np.asarray(mask) - 1.0) * MASK_NEG
    return ad.softmax(scores, axis=-1)


def attention_pool(word_vectors, mask, context: Tensor) -> Tensor:
    """Weighted average of word vectors under attention; (..., b) output.

    All-masked input yields the zero vector (the pad rows are zero, so any
    weighting of them vanishes).
    """
    weights = attention_weights(word_vectors, mask, context)
    return (weights.reshape(*weights.shape, 1) * word_vectors).sum(axis=-2)


class CorpusEncoding:
    """Pre-embedded corpus: constant (U, N, b) stack reused every step.

    A profile id that no user has raises ValueError.  When no user has
    profile text, `empty` is set: the pooled vectors are exactly zero and
    the context vector would get a zero gradient, so `encode_all` skips
    the pooling.
    """

    def __init__(self, corpus: ProfileCorpus, num_users: int, table: EmbeddingTable):
        for u in corpus.descriptions:
            if u not in range(num_users):
                raise ValueError(f"profile id {u!r} is not a user id in [0, {num_users})")
        self.table = table
        vecs = np.zeros((num_users, MAX_PROFILE_LEN, table.dim))
        masks = np.zeros((num_users, MAX_PROFILE_LEN))
        for u in range(num_users):
            tokens, mask = tokenize_and_pad(corpus.get(u))
            vecs[u] = table.embed(tokens)
            masks[u] = mask
        self.word_vectors = vecs
        self.masks = masks
        self.empty = not masks.any()

    def encode_all(self, context: Tensor):
        """(U, b) user representations: a Tensor differentiable in the context
        vector, or, for an `empty` corpus, a constant zero ndarray."""
        if self.empty:
            return np.zeros((len(self.masks), self.table.dim))
        return attention_pool(self.word_vectors, self.masks, context)


def top_attention_words(corpus: ProfileCorpus, user_ids, table: EmbeddingTable,
                        context: Tensor, k: int):
    """Words ranked by mean attention weight across the profiles using them."""
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for u in user_ids:
        tokens, mask = tokenize_and_pad(corpus.get(u))
        if mask.sum() == 0:
            continue
        weights = attention_weights(table.embed(tokens), mask, context).data
        for token, m, w in zip(tokens, mask, weights):
            if m > 0:
                totals[token] = totals.get(token, 0.0) + float(w)
                counts[token] = counts.get(token, 0) + 1
    ranked = sorted(((totals[t] / counts[t], t) for t in totals), key=lambda p: (-p[0], p[1]))
    return [(t, score) for score, t in ranked[:k]]
