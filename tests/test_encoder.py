"""Profile tokenization, embedding lookup, and attention pooling."""

import re

import numpy as np
import pytest

from opinionlab import encoder
from opinionlab.autodiff import Tensor
from opinionlab.data import ProfileCorpus
from opinionlab.encoder import (
    MAX_PROFILE_LEN,
    PAD,
    CorpusEncoding,
    EmbeddingTable,
    attention_pool,
    attention_weights,
    tokenize,
    tokenize_and_pad,
    top_attention_words,
)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Hello, World! It's 2024.") == ["hello", "world", "it's", "2024"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("!!! ???") == []

    def test_pad_and_mask(self):
        tokens, mask = tokenize_and_pad("one two")
        assert tokens == ["one", "two"] + [PAD] * (MAX_PROFILE_LEN - 2)
        np.testing.assert_array_equal(mask, [1, 1] + [0] * (MAX_PROFILE_LEN - 2))

    def test_truncation(self):
        words = [f"w{i}" for i in range(MAX_PROFILE_LEN + 5)]
        tokens, mask = tokenize_and_pad(" ".join(words))
        assert tokens == words[:MAX_PROFILE_LEN]
        np.testing.assert_array_equal(mask, np.ones(MAX_PROFILE_LEN))

    def test_empty_text_all_pad(self):
        tokens, mask = tokenize_and_pad("")
        assert tokens == [PAD] * MAX_PROFILE_LEN
        assert mask.sum() == 0


class TestEmbeddingTable:
    def test_pad_row_is_zero(self):
        table = EmbeddingTable.random(["cat", "dog"], dim=4, seed=0)
        np.testing.assert_array_equal(table.embed([PAD])[0], np.zeros(4))

    def test_known_tokens_unit_norm(self):
        table = EmbeddingTable.random(["cat", "dog"], dim=8, seed=0)
        vec = table.embed(["cat"])[0]
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_oov_deterministic(self):
        table = EmbeddingTable.random(["cat"], dim=4, seed=0)
        a = table.embed(["zyzzyva"])[0]
        b = table.embed(["zyzzyva"])[0]
        np.testing.assert_array_equal(a, b)
        assert np.any(a != 0)

    def test_from_corpus_covers_vocabulary(self):
        corpus = ProfileCorpus({0: "loves Cats", 1: "dogs and cats"})
        table = EmbeddingTable.from_corpus(corpus, dim=4, seed=0)
        for word in ("loves", "cats", "dogs", "and"):
            assert word in table.vocabulary

    def test_rejects_nonzero_pad_row(self):
        with pytest.raises(ValueError):
            EmbeddingTable({"x": 1}, np.ones((2, 3)))


class TestAttention:
    def test_two_word_hand_softmax(self):
        """Scores 1 and 0 give weights e/(e+1) and 1/(e+1)."""
        vectors = np.array([[1.0, 0.0], [0.0, 0.0]])
        context = Tensor(np.array([1.0, 0.0]))
        w = attention_weights(vectors, np.array([1.0, 1.0]), context).data
        e = np.e
        np.testing.assert_allclose(w, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_mask_pushes_out_pads(self):
        vectors = np.array([[1.0, 0.0], [5.0, 0.0]])
        context = Tensor(np.array([1.0, 0.0]))
        w = attention_weights(vectors, np.array([1.0, 0.0]), context).data
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((7, 3))
        mask = np.array([1, 1, 1, 1, 0, 0, 0], dtype=float)
        w = attention_weights(vectors, mask, Tensor(rng.standard_normal(3))).data
        assert w.sum() == pytest.approx(1.0)

    def test_pool_in_convex_hull(self):
        """The pooled vector is a convex combination of the real word vectors,
        so each coordinate lies within their min/max."""
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((5, 4))
        mask = np.array([1, 1, 1, 0, 0], dtype=float)
        vectors[3:] = 0.0  # pad rows
        pooled = attention_pool(vectors, mask, Tensor(rng.standard_normal(4))).data
        real = vectors[:3]
        assert np.all(pooled <= real.max(axis=0) + 1e-12)
        assert np.all(pooled >= real.min(axis=0) - 1e-12)

    def test_all_masked_gives_zero(self):
        vectors = np.zeros((3, 4))
        pooled = attention_pool(vectors, np.zeros(3), Tensor(np.ones(4))).data
        np.testing.assert_array_equal(pooled, np.zeros(4))

    def test_context_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((6, 3))
        vectors[4:] = 0.0
        mask = np.array([1, 1, 1, 1, 0, 0], dtype=float)
        target = rng.standard_normal(3)
        context0 = rng.standard_normal(3)

        def loss_of(ctx):
            return (attention_pool(vectors, mask, Tensor(ctx)) * target).sum().item()

        ctx = Tensor(context0.copy(), requires_grad=True)
        (attention_pool(vectors, mask, ctx) * target).sum().backward()
        eps = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            d = np.zeros(3)
            d[i] = eps
            fd[i] = (loss_of(context0 + d) - loss_of(context0 - d)) / (2 * eps)
        np.testing.assert_allclose(ctx.grad, fd, rtol=1e-5, atol=1e-8)

    def test_permutation_equivariance(self):
        """Reordering words (with their mask entries) leaves the pool unchanged."""
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((4, 3))
        mask = np.array([1, 1, 1, 1], dtype=float)
        context = Tensor(rng.standard_normal(3))
        pooled = attention_pool(vectors, mask, context).data
        perm = np.array([2, 0, 3, 1])
        pooled_perm = attention_pool(vectors[perm], mask[perm], context).data
        np.testing.assert_allclose(pooled, pooled_perm, atol=1e-12)


class TestUserEncoding:
    def setup_method(self):
        self.corpus = ProfileCorpus({0: "climate science now", 1: "", 2: "football"})
        self.table = EmbeddingTable.from_corpus(self.corpus, dim=5, seed=0)
        self.context = Tensor(np.random.default_rng(1).standard_normal(5) * 0.1)

    def encode_one(self, user_id):
        """One user's representation, composed step by step."""
        tokens, mask = tokenize_and_pad(self.corpus.get(user_id))
        return attention_pool(self.table.embed(tokens), mask, self.context)

    def test_empty_profile_is_zero_vector(self):
        vec = self.encode_one(1)
        np.testing.assert_array_equal(vec.data, np.zeros(5))

    def test_corpus_encoding_matches_per_user(self):
        enc = CorpusEncoding(self.corpus, 3, self.table)
        all_vecs = enc.encode_all(self.context)
        for u in range(3):
            single = self.encode_one(u)
            np.testing.assert_allclose(all_vecs.data[u], single.data, atol=1e-12)

    def test_profile_id_without_user_refused(self):
        """An id outside [0, U) would never be read, so the corpus is refused
        (a 1-based profile file would otherwise train without profiles)."""
        with pytest.raises(ValueError, match=re.escape("profile id 3 is not a user id in [0, 3)")):
            CorpusEncoding(ProfileCorpus({0: "a", 3: "b", -1: "c"}), 3, self.table)

    def test_top_attention_words_ranked(self):
        words = top_attention_words(self.corpus, [0, 2], self.table, self.context, k=4)
        assert len(words) == 4
        scores = [s for _, s in words]
        assert scores == sorted(scores, reverse=True)
        assert all(0 <= s <= 1 for s in scores)
