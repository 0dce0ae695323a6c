"""paylens: latent attribute prediction from sparse social-payment notes.

Pipeline: parse transaction corpora, tokenize emoji-heavy notes, build
post-wise n-gram TF-IDF matrices plus engineered socio-linguistic features,
derive gender/politics labels, and train linear SVM / MLP / GBDT classifiers
under stratified cross-validation. A mock feed server and rate-limited
harvester cover the collection side.
"""

from .corpus import (Corpus, Transaction, UserProfile, filter_min_posts,
                     group_by_user, load_transactions, note_length_histogram)
from .errors import PaylensError
from .tokenizer import Token, TokenizedPost, tokenize_post

__version__ = "0.1.0"

__all__ = [
    "Corpus", "Transaction", "UserProfile", "filter_min_posts",
    "group_by_user", "load_transactions", "note_length_histogram",
    "PaylensError",
    "Token", "TokenizedPost", "tokenize_post",
    "__version__",
]
