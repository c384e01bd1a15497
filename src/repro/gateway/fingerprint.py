"""Statement fingerprinting: normalize SQL text into a rewrite-cache key.

The gateway must decide *without parsing* whether it has already rewritten a
statement.  The key is therefore computed from the token stream alone
(lexing is an order of magnitude cheaper than a parse + the canonical
rewrite): whitespace and comments vanish, every remaining token — its type
and its text, literals included — goes into one SHA-256 digest.  Each token
is length-prefixed, so two texts share a key only if they tokenize
identically, and serving a cached rewrite for a matching key is always
sound.

Normalization is deliberately conservative: identifiers keep their original
spelling (aliases determine result column names, so case-folding them could
change what a client sees).  A statement written with different keyword
casing simply costs one extra cache miss — never a wrong result.
"""

from __future__ import annotations

import hashlib

from ..sql.lexer import tokenize


def fingerprint_statement(text: str) -> str:
    """The rewrite-cache key of SQL text: a hex digest of its token stream."""
    tokens = "\n".join(
        [f"{token.type.value} {len(token.text)} {token.text}" for token in tokenize(text)]
    )
    return hashlib.sha256(tokens.encode("utf-8")).hexdigest()
