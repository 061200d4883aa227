"""Prompt banks: domain-shared tokens, class description tokens, attention.

Two prompt paths feed the classifier. The domain-shared path holds
P_ds learnable token sequences shared by every class; the class
path holds P_cs token sequences per class initialized by tokenizing
LLM-written appearance descriptions, compressed through a single-head
self-attention adapter whose weights are shared across classes. Both
paths append the class-name token last and encode through the same
frozen encoder.

The word embedding stand-in is deterministic: each word maps to a unit
pseudorandom vector seeded by a 64-bit hash of the lowercased word
together with the bank seed, so the same text always tokenizes to the
same matrix and distinct words collide with negligible probability.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import as_matrix

__all__ = [
    "DescriptionFile",
    "AttentionParams",
    "FrozenEncoder",
    "PromptBank",
    "parse_descriptions",
    "load_description_manifest",
    "tokenize",
    "attention_forward",
    "attention_backward",
    "ClassEncoding",
    "build_prompt_bank",
    "encode_class",
    "render_description_prompt",
    "synth_description_texts",
    "DESCRIPTION_SYSTEM_PROMPT",
]

_PAD_WORD = "\x00pad"

PARAM_GROUPS = ("shared_tokens", "attention", "class_tokens")

DESCRIPTION_SYSTEM_PROMPT = """\
Given the input text indicating the category name of a certain object, your task involves the following steps:
1. Imagine a scene containing the input object.
2. Generate 4 descriptions about different key appearance features of the input object from the imagined scene, with each description having a maximum of 16 words.
3. Output a JSON object containing the following key: {"description": <list of 4 descriptions>}

Input: """


def render_description_prompt(class_name: str) -> str:
    return DESCRIPTION_SYSTEM_PROMPT + class_name + "\n"


@dataclass
class DescriptionFile:
    class_name: str
    descriptions: list[str]


def parse_descriptions(path) -> DescriptionFile:
    """Parse one per-class description JSON file.

    Expected shape: {"class_name": <text>, "description": [<text>, ...]}.
    A missing class_name falls back to the file stem. Counts other than
    4 are accepted with a warning since prompt count is configurable.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"schema violation: {path} is not valid JSON ({e})") from e
    if not isinstance(doc, dict) or "description" not in doc:
        raise ValueError(f'schema violation: {path} lacks the "description" key')
    descs = doc["description"]
    if not isinstance(descs, list) or not all(isinstance(t, str) for t in descs):
        raise ValueError(f"schema violation: {path} description must be a list of text")
    if len(descs) == 0:
        raise ValueError(f"no descriptions in {path}")
    if any(not t.strip() for t in descs):
        raise ValueError(f"schema violation: empty description text in {path}")
    if len(descs) != 4:
        warnings.warn(f"{path}: expected 4 descriptions, found {len(descs)}")
    class_name = doc.get("class_name", path.stem)
    if not isinstance(class_name, str) or not class_name:
        raise ValueError(f"schema violation: bad class_name in {path}")
    return DescriptionFile(class_name=class_name, descriptions=list(descs))


def load_description_manifest(path) -> dict[str, DescriptionFile]:
    """Load a {class: relative file path} manifest of description files."""
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict) or not all(isinstance(v, str) for v in doc.values()):
        raise ValueError(f"schema violation: {path} must map class names to paths")
    out = {}
    for cls, rel in doc.items():
        df = parse_descriptions(path.parent / rel)
        out[cls] = DescriptionFile(class_name=cls, descriptions=df.descriptions)
    return out


def _word_vector(word: str, d_tok: int, seed: int) -> np.ndarray:
    digest = hashlib.blake2b(word.lower().encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    rng = np.random.default_rng([h, seed])
    v = rng.standard_normal(d_tok)
    return v / np.linalg.norm(v)


def tokenize(text: str, d_tok: int, L: int, seed: int) -> np.ndarray:
    """Map text to an (L, d_tok) matrix of hashed word vectors.

    Whitespace tokenization, lowercased hashing, truncation past L,
    padding with a fixed pad vector below L.
    """
    words = text.lower().split()
    if not words:
        raise ValueError("empty text")
    rows = [_word_vector(w, d_tok, seed) for w in words[:L]]
    if len(rows) < L:
        pad = _word_vector(_PAD_WORD, d_tok, seed)
        rows.extend([pad] * (L - len(rows)))
    return np.array(rows)


@dataclass
class AttentionParams:
    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray

    def __post_init__(self):
        self.w_query = as_matrix(self.w_query, "w_query")
        self.w_key = as_matrix(self.w_key, "w_key")
        self.w_value = as_matrix(self.w_value, "w_value")
        if not (self.w_query.shape == self.w_key.shape == self.w_value.shape):
            raise ValueError("attention parameter shapes must match")

    @classmethod
    def seeded(cls, d_tok: int, d_k: int, seed: int) -> "AttentionParams":
        rng = np.random.default_rng([seed, 7])
        scale = 1.0 / np.sqrt(d_tok)
        return cls(
            w_query=scale * rng.standard_normal((d_tok, d_k)),
            w_key=scale * rng.standard_normal((d_tok, d_k)),
            w_value=scale * rng.standard_normal((d_tok, d_k)),
        )

    @property
    def d_k(self) -> int:
        return self.w_query.shape[1]


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def attention_forward(tokens: np.ndarray, params: AttentionParams,
                      return_weights: bool = False):
    """Single-head self-attention: softmax(Q K^T / sqrt(d_k)) V."""
    T = as_matrix(tokens, "tokens")
    if T.shape[1] != params.w_query.shape[0]:
        raise ValueError("token dimension does not match attention parameters")
    Q = T @ params.w_query
    K = T @ params.w_key
    V = T @ params.w_value
    A = _softmax_rows(Q @ K.T / np.sqrt(params.d_k))
    out = A @ V
    if return_weights:
        return out, A
    return out


def attention_backward(tokens: np.ndarray, params: AttentionParams,
                       upstream: np.ndarray):
    """Analytic gradients of attention_forward.

    Returns (grad_tokens, grad_w_query, grad_w_key, grad_w_value) for
    the scalar function <upstream, attention_forward(tokens, params)>.
    """
    T = as_matrix(tokens, "tokens")
    G = as_matrix(upstream, "upstream")
    Q = T @ params.w_query
    K = T @ params.w_key
    V = T @ params.w_value
    s = np.sqrt(params.d_k)
    A = _softmax_rows(Q @ K.T / s)

    dV = A.T @ G
    dA = G @ V.T
    dZ = A * (dA - np.sum(dA * A, axis=1, keepdims=True))
    dQ = dZ @ K / s
    dK = dZ.T @ Q / s

    grad_wq = T.T @ dQ
    grad_wk = T.T @ dK
    grad_wv = T.T @ dV
    grad_tokens = dQ @ params.w_query.T + dK @ params.w_key.T + dV @ params.w_value.T
    return grad_tokens, grad_wq, grad_wk, grad_wv


@dataclass
class FrozenEncoder:
    """Mean-pool, fixed linear map, unit normalization. Never trained."""

    projection: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.projection = as_matrix(self.projection, "projection")
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.bias.shape != (self.projection.shape[1],):
            raise ValueError("bias length must match projection output dim")

    @classmethod
    def seeded(cls, d_tok: int, d: int, seed: int) -> "FrozenEncoder":
        rng = np.random.default_rng([seed, 13])
        return cls(projection=rng.standard_normal((d_tok, d)) / np.sqrt(d_tok),
                   bias=0.01 * rng.standard_normal(d))

    def encode(self, tokens: np.ndarray) -> np.ndarray:
        T = as_matrix(tokens, "tokens")
        h = T.mean(axis=0) @ self.projection + self.bias
        norm = float(np.linalg.norm(h))
        if norm < 1e-12:
            raise ValueError("degenerate encoding: zero vector before normalization")
        return h / norm

    def encode_backward(self, tokens: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Gradient of <upstream, encode(tokens)> with respect to tokens."""
        T = as_matrix(tokens, "tokens")
        h = T.mean(axis=0) @ self.projection + self.bias
        norm = float(np.linalg.norm(h))
        if norm < 1e-12:
            raise ValueError("degenerate encoding: zero vector before normalization")
        g = h / norm
        dh = (upstream - g * float(g @ upstream)) / norm
        dmean = self.projection @ dh
        return np.tile(dmean / T.shape[0], (T.shape[0], 1))


@dataclass
class PromptBank:
    """All prompt parameters for a class list.

    shared_tokens: (P_ds, L, d_tok) learnable, shared across classes.
    class_tokens: (K, P_cs, L, d_tok) per-class description tokens.
    class_words: (K, d_tok) the class-name token appended to every prompt.
    trainable: subset of PARAM_GROUPS that receives gradient updates.
    """

    classes: list[str]
    shared_tokens: np.ndarray
    class_tokens: np.ndarray
    class_words: np.ndarray
    attention: AttentionParams
    use_attention: bool = True
    trainable: tuple[str, ...] = ("shared_tokens", "attention")

    def __post_init__(self):
        if self.shared_tokens.ndim != 3 or self.class_tokens.ndim != 4:
            raise ValueError("token tensors have wrong rank")
        K = len(self.classes)
        if self.class_tokens.shape[0] != K or self.class_words.shape[0] != K:
            raise ValueError("class token count does not match class list")
        d_tok = self.shared_tokens.shape[2]
        if self.class_tokens.shape[3] != d_tok or self.class_words.shape[1] != d_tok:
            raise ValueError("token dimension mismatch across the bank")
        if self.use_attention and self.attention.w_query.shape != (d_tok, d_tok):
            # one frozen encoder serves both paths, so attention must map
            # tokens back into token space
            raise ValueError("attention must be square (d_k == d_tok)")
        unknown = set(self.trainable) - set(PARAM_GROUPS)
        if unknown:
            raise ValueError(f"unknown trainable groups: {sorted(unknown)}")

    @property
    def d_tok(self) -> int:
        return self.shared_tokens.shape[2]

    @property
    def num_shared_prompts(self) -> int:
        return self.shared_tokens.shape[0]

    @property
    def num_class_prompts(self) -> int:
        return self.class_tokens.shape[1]

    def class_index(self, class_id: str) -> int:
        try:
            return self.classes.index(class_id)
        except ValueError:
            raise ValueError(f"unknown class: {class_id!r}") from None


def build_prompt_bank(classes, descriptions=None, *, num_shared_prompts: int = 2,
                      num_class_prompts: int = 4, context_length: int = 8,
                      token_dim: int = 32, seed: int = 0, gpt_init: bool = True,
                      use_attention: bool = True,
                      trainable: tuple[str, ...] = ("shared_tokens", "attention"),
                      ) -> PromptBank:
    """Construct a PromptBank for `classes`.

    With gpt_init, class tokens come from tokenizing the supplied
    description files (all classes must provide the same number of
    descriptions); otherwise they are seeded random unit rows of the
    same shape. Shared tokens always start random.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("no classes")
    rng = np.random.default_rng([seed, 21])
    shared = rng.standard_normal((num_shared_prompts, context_length, token_dim))
    shared /= np.linalg.norm(shared, axis=2, keepdims=True)

    class_words = np.array([_word_vector(c, token_dim, seed) for c in classes])

    if gpt_init:
        if descriptions is None:
            raise ValueError("no descriptions: gpt_init requires description files")
        counts = set()
        for c in classes:
            if c not in descriptions:
                raise ValueError(f"no descriptions for class {c!r}")
            counts.add(len(descriptions[c].descriptions))
        if len(counts) != 1:
            raise ValueError("schema violation: classes have differing description counts")
        p_cs = counts.pop()
        class_tokens = np.array([
            [tokenize(t, token_dim, context_length, seed)
             for t in descriptions[c].descriptions]
            for c in classes
        ])
    else:
        p_cs = num_class_prompts
        class_tokens = np.empty((len(classes), p_cs, context_length, token_dim))
        for ci in range(len(classes)):
            r = np.random.default_rng([seed, 22, ci])
            t = r.standard_normal((p_cs, context_length, token_dim))
            class_tokens[ci] = t / np.linalg.norm(t, axis=2, keepdims=True)

    attention = AttentionParams.seeded(token_dim, token_dim, seed)
    return PromptBank(classes=classes, shared_tokens=shared,
                      class_tokens=class_tokens, class_words=class_words,
                      attention=attention, use_attention=use_attention,
                      trainable=tuple(trainable))


@dataclass
class ClassEncoding:
    """Both prompt paths of one class, with what the backward pass needs.

    g_ds and g_cs hold unit-norm rows, one per shared and per class
    prompt. toks_ds are the shared path's encoder inputs; toks_in are the
    class path's tokens before the attention adapter and toks_out the
    encoder inputs after it (the same matrices when the adapter is off).
    Every token matrix ends in the class-word row.
    """

    g_ds: np.ndarray
    g_cs: np.ndarray
    toks_ds: list[np.ndarray]
    toks_in: list[np.ndarray]
    toks_out: list[np.ndarray]


def encode_class(bank: PromptBank, class_id: str,
                 encoder: FrozenEncoder) -> ClassEncoding:
    """Encode both prompt paths for one class.

    The shared path appends the class word and encodes directly; the
    class path appends the class word, passes through attention (when
    enabled), then encodes.
    """
    ci = bank.class_index(class_id)
    c_vec = bank.class_words[ci]
    toks_ds = [np.vstack([bank.shared_tokens[p], c_vec])
               for p in range(bank.num_shared_prompts)]
    toks_in = [np.vstack([bank.class_tokens[ci, p], c_vec])
               for p in range(bank.num_class_prompts)]
    toks_out = ([attention_forward(T, bank.attention) for T in toks_in]
                if bank.use_attention else toks_in)
    return ClassEncoding(g_ds=np.array([encoder.encode(T) for T in toks_ds]),
                         g_cs=np.array([encoder.encode(T) for T in toks_out]),
                         toks_ds=toks_ds, toks_in=toks_in, toks_out=toks_out)


_ADJECTIVES = ["fluffy", "sleek", "striped", "spotted", "glossy", "stocky",
               "slender", "rugged", "compact", "angular", "rounded", "weathered"]
_FEATURES = ["fur", "coat", "outline", "profile", "texture", "surface",
             "frame", "silhouette", "crest", "base", "edge", "body"]
_SETTINGS = ["in soft light", "against a plain wall", "on open ground",
             "near a window", "under bright sun", "in shallow focus",
             "at close range", "from a low angle"]


def synth_description_texts(classes, seed: int = 0, count: int = 4) -> dict:
    """Deterministic stand-in descriptions for classes without files."""
    result = {}
    for ci, cls in enumerate(sorted(classes)):
        texts = []
        for k in range(count):
            r = np.random.default_rng([seed, 3, ci, k])
            adj = _ADJECTIVES[int(r.integers(len(_ADJECTIVES)))]
            feat = _FEATURES[int(r.integers(len(_FEATURES)))]
            setting = _SETTINGS[int(r.integers(len(_SETTINGS)))]
            texts.append(f"a {adj} {feat} of the {cls} {setting}")
        result[cls] = DescriptionFile(class_name=cls, descriptions=texts)
    return result
