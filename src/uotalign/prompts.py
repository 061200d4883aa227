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
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import read_json_object, require_unique_classes
from .numerics import as_matrix, as_stack

__all__ = [
    "AttentionParams",
    "FrozenEncoder",
    "PromptBank",
    "parse_descriptions",
    "load_description_manifest",
    "tokenize",
    "attention_forward",
    "attention_backward",
    "build_prompt_bank",
    "encode_classes",
    "encode_classes_backward",
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


def parse_descriptions(path) -> tuple[str, list[str]]:
    """Parse one per-class description JSON file into (class_name, texts).

    Expected shape: {"class_name": <text>, "description": [<text>, ...]}.
    A missing class_name falls back to the file stem. Counts other than
    4 are accepted with a warning since prompt count is configurable.
    """
    path = Path(path)
    doc = read_json_object(path)
    if "description" not in doc:
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
    return class_name, list(descs)


def load_description_manifest(path) -> dict[str, list[str]]:
    """Load a {class: relative file path} manifest of description files
    as {class: [text, ...]}; the manifest's key names the class."""
    path = Path(path)
    doc = read_json_object(path)
    if not all(isinstance(v, str) for v in doc.values()):
        raise ValueError(f"schema violation: {path} must map class names to paths")
    return {cls: parse_descriptions(path.parent / rel)[1] for cls, rel in doc.items()}


def _word_vector(word: str, d_tok: int, seed: int) -> np.ndarray:
    digest = hashlib.blake2b(word.lower().encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    rng = np.random.default_rng([h, seed])
    v = rng.standard_normal(d_tok)
    return v / np.linalg.norm(v)


def _memo_vector(word: str, d_tok: int, seed: int, vectors: dict) -> np.ndarray:
    key = word.lower()
    if key not in vectors:
        vectors[key] = _word_vector(word, d_tok, seed)
    return vectors[key]


def tokenize(text: str, d_tok: int, L: int, seed: int, *,
             vectors: dict | None = None) -> np.ndarray:
    """Map text to an (L, d_tok) matrix of hashed word vectors.

    Whitespace tokenization, lowercased hashing, truncation past L,
    padding with a fixed pad vector below L. `vectors` memoizes word
    vectors by lowercased word for this d_tok and seed; callers that
    tokenize many texts pass one dict to compute each word once.
    """
    vectors = {} if vectors is None else vectors
    words = text.lower().split()
    if not words:
        raise ValueError("empty text")
    rows = [_memo_vector(w, d_tok, seed, vectors) for w in words[:L]]
    if len(rows) < L:
        rows.extend([_memo_vector(_PAD_WORD, d_tok, seed, vectors)] * (L - len(rows)))
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


_TOKEN_LAYOUTS = "(L, d) or (P, L, d)"


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def _attention(T: np.ndarray, params: AttentionParams):
    if T.shape[-1] != params.w_query.shape[0]:
        raise ValueError("token dimension does not match attention parameters")
    Q = T @ params.w_query
    K = T @ params.w_key
    V = T @ params.w_value
    return Q, K, V, _softmax_rows(Q @ K.swapaxes(-1, -2) / np.sqrt(params.d_k))


def attention_forward(tokens: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Single-head self-attention softmax(Q K^T / sqrt(d_k)) V, per stacked matrix."""
    _, _, V, A = _attention(as_stack(tokens, "tokens", _TOKEN_LAYOUTS), params)
    return A @ V


def attention_backward(tokens: np.ndarray, params: AttentionParams,
                       upstream: np.ndarray):
    """Analytic gradients of attention_forward.

    Returns (grad_tokens, grad_w_query, grad_w_key, grad_w_value) for
    the scalar function <upstream, attention_forward(tokens, params)>;
    on a stack the weight gradients are summed over it.
    """
    T = as_stack(tokens, "tokens", _TOKEN_LAYOUTS)
    G = as_stack(upstream, "upstream", _TOKEN_LAYOUTS)
    Q, K, V, A = _attention(T, params)
    s = np.sqrt(params.d_k)

    dV = A.swapaxes(-1, -2) @ G
    dA = G @ V.swapaxes(-1, -2)
    dZ = A * (dA - np.sum(dA * A, axis=-1, keepdims=True))
    dQ = dZ @ K / s
    dK = dZ.swapaxes(-1, -2) @ Q / s

    grad_tokens = dQ @ params.w_query.T + dK @ params.w_key.T + dV @ params.w_value.T
    # one product over the rows of every matrix sums the weight gradients
    rows = T.reshape(-1, T.shape[-1]).T
    return (grad_tokens, *(rows @ d.reshape(-1, d.shape[-1]) for d in (dQ, dK, dV)))


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

    def _project(self, tokens: np.ndarray):
        """Tokens, pre-normalization encodings h (..., d) and their norms (..., 1)."""
        T = as_stack(tokens, "tokens", _TOKEN_LAYOUTS)
        h = (T.mean(axis=-2, keepdims=True) @ self.projection)[..., 0, :] + self.bias
        norm = np.sqrt(h[..., None, :] @ h[..., :, None])[..., 0]
        if np.any(norm < 1e-12):
            raise ValueError("degenerate encoding: zero vector before normalization")
        return T, h, norm

    def encode(self, tokens: np.ndarray) -> np.ndarray:
        """Unit encoding: (d,) for one (L, d_tok) matrix, (P, d) for a stack."""
        _, h, norm = self._project(tokens)
        return h / norm

    def encode_backward(self, tokens: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Gradient of <upstream, encode(tokens)> with respect to tokens."""
        T, h, norm = self._project(tokens)
        g = h / norm
        up = np.asarray(upstream, dtype=np.float64)
        dh = (up - g * (g[..., None, :] @ up[..., :, None])[..., 0]) / norm
        dmean = dh @ self.projection.T / T.shape[-2]
        return np.repeat(dmean[..., None, :], T.shape[-2], axis=-2)


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
    use_attention: bool
    trainable: tuple[str, ...]

    def __post_init__(self):
        require_unique_classes(self.classes)
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

    def arrays(self) -> dict[str, np.ndarray]:
        """Every array by its attribute path, in checkpoint order. A name's
        group is its first dotted part; class_words is in none. These are
        the live parameters, not copies: Adam updates them in place."""
        att = self.attention
        return {"shared_tokens": self.shared_tokens, "class_tokens": self.class_tokens,
                "class_words": self.class_words, "attention.w_query": att.w_query,
                "attention.w_key": att.w_key, "attention.w_value": att.w_value}

    def trainable_arrays(self) -> dict[str, np.ndarray]:
        return {name: a for name, a in self.arrays().items()
                if name.split(".")[0] in self.trainable}


def build_prompt_bank(classes, descriptions=None, *, num_shared_prompts: int = 2,
                      num_class_prompts: int | None = None, context_length: int = 8,
                      token_dim: int = 32, seed: int = 0, gpt_init: bool = True,
                      use_attention: bool = True,
                      trainable: tuple[str, ...] = ("shared_tokens", "attention"),
                      ) -> PromptBank:
    """Construct a PromptBank for `classes`.

    With gpt_init, class tokens tokenize the given descriptions, a
    {class: [text, ...]} dict (every class the same count, which sets
    P_cs; a num_class_prompts other than that count is a schema
    violation) or, when descriptions is None,
    num_class_prompts synth_description_texts per class; without
    gpt_init they are seeded random unit rows. num_class_prompts None
    means 4 wherever it sets P_cs. Shared tokens always start random.
    train passes its bank sizes through to these defaults.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("no classes")
    p_cs = 4 if num_class_prompts is None else num_class_prompts
    for name, size in (("num_shared_prompts", num_shared_prompts),
                       ("num_class_prompts", p_cs), ("context_length", context_length),
                       ("token_dim", token_dim)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1")
    rng = np.random.default_rng([seed, 21])
    shared = rng.standard_normal((num_shared_prompts, context_length, token_dim))
    shared /= np.linalg.norm(shared, axis=2, keepdims=True)

    # one vector per distinct lowercased word, kept for this bank only
    vectors = {}
    class_words = np.array([_memo_vector(c, token_dim, seed, vectors) for c in classes])

    if gpt_init:
        if descriptions is None:
            descriptions = synth_description_texts(classes, seed=seed, count=p_cs)
        counts = set()
        for c in classes:
            if c not in descriptions:
                raise ValueError(f"no descriptions for class {c!r}")
            counts.add(len(descriptions[c]))
        if len(counts) != 1:
            raise ValueError("schema violation: classes have differing description counts")
        count = counts.pop()
        if num_class_prompts not in (None, count):
            raise ValueError(f"schema violation: num_class_prompts is {num_class_prompts}, "
                             f"but each class has {count} descriptions")
        class_tokens = np.array([
            [tokenize(t, token_dim, context_length, seed, vectors=vectors)
             for t in descriptions[c]]
            for c in classes
        ])
    else:
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


def _append_class_words(tokens: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(K, P, L, d_tok) prompts, or (P, L, d_tok) ones shared by all K
    classes, and (K, d_tok) words -> (K*P, L+1, d_tok) stack."""
    *_, P, L, d_tok = tokens.shape
    out = np.empty((len(words), P, L + 1, d_tok))
    out[:, :, :L] = tokens
    out[:, :, L] = words[:, None]
    return out.reshape(-1, L + 1, d_tok)


def _path_stacks(bank: PromptBank, tag: str):
    """One prompt path's class-major token stacks over all bank classes,
    as (the attention adapter's input or None, the encoder's input).

    Each class word is appended to each of that class's prompts. The
    shared path ("ds") feeds the encoder directly; the class path ("cs")
    passes through attention first when the adapter is on.
    """
    if tag == "ds":
        return None, _append_class_words(bank.shared_tokens, bank.class_words)
    if tag != "cs":
        raise ValueError(f"unknown prompt path: {tag!r}")
    stack = _append_class_words(bank.class_tokens, bank.class_words)
    if not bank.use_attention:
        return None, stack
    return stack, attention_forward(stack, bank.attention)


def encode_classes(bank: PromptBank, encoder: FrozenEncoder,
                   paths: tuple[str, ...] = ("cs", "ds")) -> dict[str, np.ndarray]:
    """Encode every bank class along the requested prompt paths.

    Returns {tag: (K, P, d)} unit-norm rows, one per bank class (in bank
    order) and prompt, keyed in the order of `paths`. Each path makes one
    call per layer over all classes' prompts.
    """
    shape = (len(bank.classes), -1, encoder.bias.shape[0])
    return {tag: encoder.encode(_path_stacks(bank, tag)[1]).reshape(shape)
            for tag in paths}


def encode_classes_backward(bank: PromptBank, encoder: FrozenEncoder,
                            grad_g: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Gradients of sum_tag <grad_g[tag], encode_classes(bank, encoder)[tag]>,
    keyed like bank.arrays().

    grad_g holds (K, P, d) upstreams for some of the paths; each path's
    stacks are rebuilt from the bank, so the class path with the adapter
    on runs attention_forward once more. The shared tokens' gradient
    sums over classes; class words get none. Each path makes one
    backward call per layer.
    """
    grads = {}
    for tag, upstream in grad_g.items():
        adapter_input, tokens = _path_stacks(bank, tag)
        K, P, d = upstream.shape
        rows = encoder.encode_backward(tokens, upstream.reshape(-1, d))
        if adapter_input is not None:
            rows, *dw = attention_backward(adapter_input, bank.attention, rows)
            grads.update(zip(("attention.w_query", "attention.w_key", "attention.w_value"), dw))
        # [..., :-1, :] drops the class-word row
        rows = rows.reshape(K, P, *rows.shape[1:])[..., :-1, :]
        if tag == "ds":
            grads["shared_tokens"] = rows.sum(axis=0)
        else:
            grads["class_tokens"] = rows
    return grads


_ADJECTIVES = ["fluffy", "sleek", "striped", "spotted", "glossy", "stocky",
               "slender", "rugged", "compact", "angular", "rounded", "weathered"]
_FEATURES = ["fur", "coat", "outline", "profile", "texture", "surface",
             "frame", "silhouette", "crest", "base", "edge", "body"]
_SETTINGS = ["in soft light", "against a plain wall", "on open ground",
             "near a window", "under bright sun", "in shallow focus",
             "at close range", "from a low angle"]


def synth_description_texts(classes, seed: int = 0, count: int = 4) -> dict[str, list[str]]:
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
        result[cls] = texts
    return result
