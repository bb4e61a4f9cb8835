# Frozen reference for the text layer's fast paths: the tokenizer, the
# sentence splitter and filter_pair's length/containment rules as they were
# written before the splitter scanned backward, containment became one
# substring test and the tokenizer ran its regex per whitespace chunk.
# Deliberately slow (the splitter searches from offset 0 at every boundary;
# containment compares a slice at every offset) and shares no code with the
# package, so a property test can hold the package to it.
import re
import unicodedata

_TOKEN_RE = re.compile(r"\d+(?:[.,]\d+)*|\w+(?:[-'’]\w+)*|[^\w\s]", re.UNICODE)
_SENT_END_RE = re.compile(r"[.!?]+[\"'”’)\]]*")
_TRAILING_WORD_RE = re.compile(r"[\w.]+$")
_ABBREVIATIONS = frozenset(
    {
        "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc",
        "e.g", "i.e", "cf", "fig", "al", "inc", "ltd", "co", "dept",
        "approx", "no", "vol", "pp",
    }
)


def normalize(text):
    return unicodedata.normalize("NFC", text)


def tokenize(text):
    return _TOKEN_RE.findall(normalize(text))


def word_tokens(tokens):
    return [t for t in tokens if t and (t[0].isalnum() or any(c.isalnum() for c in t))]


def split_sentences(text):
    text = normalize(text)
    boundaries = []
    for m in _SENT_END_RE.finditer(text):
        end = m.end()
        if end < len(text) and not text[end].isspace():
            continue
        if "." in m.group():
            word_m = _TRAILING_WORD_RE.search(text, 0, m.start())
            if word_m and word_m.group().lower().rstrip(".") in _ABBREVIATIONS:
                continue
        boundaries.append(end)
    spans = []
    cursor = 0
    for b in boundaries + [len(text)]:
        chunk = text[cursor:b]
        stripped = chunk.strip()
        if stripped:
            start = cursor + chunk.index(stripped[0])
            spans.append((start, start + len(stripped)))
        cursor = b
    return spans


def is_token_sublist(needle, haystack):
    if len(needle) > len(haystack):
        return False
    span = len(needle)
    return any(haystack[i : i + span] == needle for i in range(len(haystack) - span + 1))


def length_or_containment(source, target, min_words):
    """filter_pair's two word rules, in its order: "TOO_SHORT", "CONTAINMENT" or None."""
    src = [t.lower() for t in word_tokens(tokenize(source))]
    tgt = [t.lower() for t in word_tokens(tokenize(target))]
    if len(src) < min_words or len(tgt) < min_words:
        return "TOO_SHORT"
    if is_token_sublist(src, tgt) or is_token_sublist(tgt, src):
        return "CONTAINMENT"
    return None
