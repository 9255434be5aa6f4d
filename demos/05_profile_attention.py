"""Encode free-text user profiles with attention pooling and inspect it.

Each user's profile is tokenized, embedded, and pooled into a fixed vector
by a learned attention over the words; the pooled vector becomes part of the
predictor's input.  This script builds the encoder on a toy corpus, shows
the pooled representations, and lists which words the (untrained) attention
already weights most — after training, these rankings shift toward the words
that predict opinion.

Run from the repository root:

    python3 demos/05_profile_attention.py
"""

import numpy as np

from opinionlab.autodiff import Tensor
from opinionlab.data import ProfileCorpus
from opinionlab.encoder import CorpusEncoding, EmbeddingTable, top_attention_words

corpus = ProfileCorpus({
    0: "climate scientist posting about carbon policy and renewables",
    1: "markets newsletter author covering energy stocks and oil futures",
    2: "local parent sharing school news and weekend hiking photos",
    3: "campaign volunteer organizing rallies for carbon tax reform",
    4: "",  # users without profile text get the zero vector
})

table = EmbeddingTable.from_corpus(corpus, dim=16, seed=0)
context = Tensor(np.random.default_rng(1).standard_normal(16) * 0.1)  # the attention's context vector
encoding = CorpusEncoding(corpus, num_users=5, table=table)
pooled = encoding.encode_all(context).data

print("pooled profile vectors (first 4 dims):")
for u in range(5):
    text = corpus.get(u) or "(no profile)"
    print(f"  user {u}: {np.round(pooled[u, :4], 3).tolist()}  <- {text[:46]}")

print(f"\nno-profile user is the zero vector: {not pooled[4].any()}")

sims = pooled[:4] @ pooled[:4].T / (
    np.linalg.norm(pooled[:4], axis=1)[:, None] * np.linalg.norm(pooled[:4], axis=1))
print("\ncosine similarity between users 0..3:")
print(np.round(sims, 2))

print("\ntop attention words across the corpus:")
for word, weight in top_attention_words(corpus, range(5), table, context, k=8):
    print(f"  {word:12s} {weight:.3f}")
