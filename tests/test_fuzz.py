"""Fuzz the loaders and the command line with edited copies of valid files.

A loader either returns or raises a ``CrossmodalError``. ``main`` exits 0, or
exits 1 with exactly one stderr line ``error <Name>: ...`` that names a
``CrossmodalError`` or ``OSError`` subclass, and leaves no ``--out`` behind.
Any other exception escapes ``main`` and fails the test, as it would end a
run in a traceback.
"""

import builtins
import copy
import io
import json
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from crossmodal import errors
from crossmodal.checkpoint import load_checkpoint
from crossmodal.cli import OPTIONS, main
from crossmodal.corpus import load_captions, load_image_features, load_word_embeddings
from crossmodal.text import load_vocabulary

from test_checkpoint import read_header, resign

# what an edit writes where a value or a separator was: non-finite, overflowing,
# non-numeric and non-UTF-8 values, and separators
TOKENS = [
    b"nan", b"inf", b"-inf", b"1e999", b"1e300", b"-1e300", b"5e-324", b"0", b"-1", b"1.5",
    b"99999999999999999999", b"x", b"1_0", b"", b" ", b"\t", b"\n", b"\r\n", b"\x00",
    b"\xff\xfe", b"\xc3(",
]

# values an edited checkpoint header holds in place of one of its own
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.sampled_from([10**30, 0.0, -0.0, 0.15, 1.5, 1e300, 5e-324,
                      float("nan"), float("inf"), float("-inf")])
    | st.sampled_from(["", "x", "nan", "1e999", "unigram", "bigram", "bag", "sequence",
                      "T2I", "tfidf", "8", "\udcff"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["n_test", "val_frac", "mode", "kind", "x"]), children,
                      max_size=3),
    max_leaves=6,
)

# --config lines: a value this corpus can train with, or a train key (or an
# unknown one) set to a value out of range or of the wrong type; none makes a run slow
GOOD_LINES = ["margin = 0.5", "lr = 0.01", "methodology = t2i", "weighting = tfidf", "seed = 5",
              "n_hu = 3", "visual_n_hu = 3", "textual = sse", "word_dim = 6", "kernels = 3",
              "window = 2", "epochs = 2", "val_frac = 0.4"]
BAD_KEYS = [opt.name for opt in OPTIONS] + ["momentum"]
BAD_VALUES = ["0", "-1", "1.5", "1e300", "nan", "x", ""]

LOADERS = {
    "captions": load_captions,
    "features": load_image_features,
    "vocab": load_vocabulary,
    "embeddings": load_word_embeddings,
    "checkpoint": load_checkpoint,
}


@st.composite
def edited_bytes(draw, blob: bytes) -> bytes:
    """``blob`` after one to three edits: a space- or tab-separated field
    replaced by a token, a token inserted, or a line deleted or repeated.
    Half the edits fall on the first two lines, which hold a file's header or
    the row that sets its width."""
    for _ in range(draw(st.integers(1, 3))):
        lines = blob.split(b"\n")
        i = draw(st.integers(0, 1) | st.integers(0, len(lines) - 1)) % len(lines)
        kind = draw(st.sampled_from(["field", "insert", "delete", "repeat"]))
        if kind == "field":
            parts = re.split(rb"([\t ])", lines[i])  # fields at even indices
            parts[2 * draw(st.integers(0, len(parts) // 2))] = draw(st.sampled_from(TOKENS))
            lines[i] = b"".join(parts)
        elif kind == "insert":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(TOKENS)) + lines[i][at:]
        elif kind == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        blob = b"\n".join(lines)
    return blob


@st.composite
def edited_header(draw, header: dict) -> dict:
    """A copy of ``header`` with one edit. A third of the edits fall on the
    vocabulary's term list: two terms swapped, one repeated, dropped or
    appended new, or one doc_freq set to another value in 1..n_docs. The
    rest replace or delete one node, or add a key or item to it; an item
    added to a list may repeat one of its own. That node is found by
    descending from the root, stopping or entering one child at each level."""
    root = node = copy.deepcopy(header)
    if draw(st.integers(0, 2)) == 0:
        terms, n_docs = root["vocabulary"]["terms"], root["vocabulary"]["n_docs"]
        i, j = draw(st.lists(st.integers(0, len(terms) - 1), min_size=2, max_size=2, unique=True))
        edit = draw(st.sampled_from(["swap", "repeat", "drop", "append", "doc_freq"]))
        if edit == "swap":
            terms[i], terms[j] = terms[j], terms[i]
        elif edit == "repeat":
            terms.insert(j, copy.deepcopy(terms[i]))
        elif edit == "drop":
            del terms[i]
        elif edit == "append":
            terms.append([draw(st.sampled_from(["zzz", "c9w9", "c0w1_c0w2"])),
                          draw(st.integers(1, n_docs))])
        else:  # 1..n_docs - 1 mapped onto 1..n_docs without the current value
            freq = draw(st.integers(1, n_docs - 1))
            terms[i][1] = freq if freq < terms[i][1] else freq + 1
        return root
    parent = key = None
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else [draw(st.integers(0, len(node) - 1))]
        child = draw(st.sampled_from([None, *keys]))
        if child is None:
            break
        parent, key, node = node, child, node[child]
    op = draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "add" and isinstance(node, list):
        repeat = node and draw(st.booleans())
        node.append(copy.deepcopy(draw(st.sampled_from(node))) if repeat else draw(JSON_VALUES))
    elif op == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(["n_test", "x", "mode", "seed"]))] = draw(JSON_VALUES)
    elif op == "delete" and parent is not None:
        del parent[key]
    elif parent is not None:
        parent[key] = draw(JSON_VALUES)
    else:
        return draw(JSON_VALUES)
    return root


def quietly(call, *args):
    """``call(*args)`` with warnings recorded as a run prints them, not raised;
    no edit may cause one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    assert not caught, [str(w.message) for w in caught]
    return result


def run_main(argv: list[str], out: Path | None = None) -> int:
    """``main(argv)``, checked against what a run must show."""
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        rc = quietly(main, argv)
    if rc != 0:
        assert rc == 1
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, lines
        name = re.fullmatch(r"error (\w+): .+", lines[0]).group(1)
        cls = getattr(errors, name, None) or getattr(builtins, name)
        assert issubclass(cls, (errors.CrossmodalError, OSError)), lines[0]
        assert out is None or not out.exists()
    return rc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid corpus, vocabulary, 6-d embeddings, and one bag and one
    sequence checkpoint trained on them."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus, prep = root / "corpus", root / "prep"
    with redirect_stderr(io.StringIO()):
        assert main(["synth", "--out", str(corpus), "--clusters", "3", "--images-per-cluster",
                     "4", "--feature-dim", "6", "--vocab-per-cluster", "5", "--seed", "3"]) == 0
        assert main(["preprocess", "--captions", str(corpus / "captions.tsv"),
                     "--out", str(prep)]) == 0
        terms = load_vocabulary(str(prep / "vocab.tsv")).term_to_index
        (root / "embeddings.txt").write_text(
            "".join(f"{t} 0.5 -0.25 0.001 2 0 {i}\n" for i, t in enumerate(terms))
        )
        files = {"captions": corpus / "captions.tsv", "features": corpus / "features.txt",
                 "vocab": prep / "vocab.tsv", "embeddings": root / "embeddings.txt"}
        ckpts = {}
        for kind, extra in (("bag", []), ("sse", ["--word-dim", "4", "--kernels", "5",
                                                  "--window", "3"])):
            assert main(train_args(files, root / kind, "--epochs", "1", "--textual", kind,
                                   *extra)) == 0
            ckpts[kind] = root / kind / "checkpoint.bin"
    return SimpleNamespace(root=root, files=files, ckpts=ckpts)


def train_args(files: dict, out: Path, *extra: str) -> list[str]:
    return ["train", "--captions", str(files["captions"]), "--features", str(files["features"]),
            "--vocab", str(files["vocab"]), "--n-test", "3", "--val-frac", "0.25",
            "--n-emb", "6", "--val-pairs", "20", "--out", str(out), *extra]


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loaders_return_or_raise_typed(inputs, name, data):
    """Byte edits; a checkpoint's land in its header, which is re-signed, so
    they reach the header checks instead of the checksum."""
    with tempfile.TemporaryDirectory(dir=inputs.root) as tmp:
        path = Path(tmp) / name
        if name == "checkpoint":
            blob = inputs.ckpts[data.draw(st.sampled_from(sorted(inputs.ckpts)))].read_bytes()
            header_end = 16 + int.from_bytes(blob[8:16], "little")
            resign(path, blob, header=data.draw(edited_bytes(blob[16:header_end])))
        else:
            path.write_bytes(data.draw(edited_bytes(inputs.files[name].read_bytes())))
        try:
            quietly(LOADERS[name], str(path))
        except errors.CrossmodalError:
            pass


@st.composite
def config_text(draw) -> str:
    """Up to four lines, most of them good, and perhaps one without its ``=``."""
    lines = [draw(st.sampled_from(GOOD_LINES)) if draw(st.integers(0, 3))
             else f"{draw(st.sampled_from(BAD_KEYS))} = {draw(st.sampled_from(BAD_VALUES))}"
             for _ in range(draw(st.integers(0, 4)))]
    if lines and draw(st.integers(0, 9)) == 0:
        lines[-1] = lines[-1].replace("=", "")
    return "".join(line + "\n" for line in lines)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_preprocess_and_train_on_edited_inputs(inputs, data):
    """One input file edited, or none, and a drawn --config, trained for one
    epoch: a run that exits 0 wrote every file of --out."""
    name = data.draw(st.sampled_from([None, *sorted(inputs.files)]))
    with tempfile.TemporaryDirectory(dir=inputs.root) as tmp:
        files = dict(inputs.files)
        if name is not None:
            files[name] = Path(tmp) / name
            files[name].write_bytes(data.draw(edited_bytes(inputs.files[name].read_bytes())))
        if name == "captions":
            out = Path(tmp) / "prep"
            run_main(["preprocess", "--captions", str(files[name]), "--out", str(out)], out)
        config = Path(tmp) / "run.cfg"
        config.write_text(data.draw(config_text()))
        out = Path(tmp) / "run"
        extra = ["--embeddings", str(files["embeddings"])] if data.draw(st.booleans()) else []
        if run_main(train_args(files, out, "--epochs", "1", "--config", str(config), *extra), out) == 0:
            assert sorted(p.name for p in out.iterdir()) == ["checkpoint.bin", "history.tsv",
                                                             "manifest.json"]


def vocabulary_identity(header) -> str | None:
    """An edited header's vocabulary as JSON text: its mode, n_docs and terms,
    which fix its digest; None where the edit removed one of them."""
    try:
        return json.dumps([header["vocabulary"][k] for k in ("mode", "n_docs", "terms")])
    except (KeyError, TypeError):
        return None


def header_terms(header) -> list[str]:
    """The string terms an edited header's vocabulary lists, wherever the edit fell."""
    try:
        return [row[0] for row in header["vocabulary"]["terms"] if isinstance(row[0], str)]
    except (KeyError, TypeError, IndexError):
        return []


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_evaluate_and_query_on_edited_headers(inputs, data):
    """The sentence query also holds every term of the edited vocabulary, so
    a term an edit added is looked up. ``evaluate --vocab`` checks the edited
    vocabulary against the vocab.tsv the checkpoints were trained on. Unless
    the edit left the vocabulary as it was, every command fails, since a
    header's stored digest no longer matches its vocabulary."""
    blob = inputs.ckpts[data.draw(st.sampled_from(sorted(inputs.ckpts)))].read_bytes()
    original = read_header(blob)
    header = data.draw(edited_header(original))
    sentence = " ".join(["c0w1 c1w2 c0w3", *header_terms(header)])
    captions, features = str(inputs.files["captions"]), str(inputs.files["features"])
    with tempfile.TemporaryDirectory(dir=inputs.root) as tmp:
        ckpt, out, vouched = str(Path(tmp) / "checkpoint.bin"), Path(tmp) / "eval", Path(tmp) / "vouched"
        # as bytes, so that a root replaced by null is written, not the original header
        resign(ckpt, blob, header=json.dumps(header, sort_keys=True).encode())
        codes = [
            run_main(["evaluate", "--checkpoint", ckpt, "--captions", captions,
                      "--features", features, "--out", str(out)], out),
            run_main(["evaluate", "--checkpoint", ckpt, "--captions", captions,
                      "--features", features, "--vocab", str(inputs.files["vocab"]),
                      "--out", str(vouched)], vouched),
            run_main(["query", "--checkpoint", ckpt, "--features", features,
                      "--sentence", sentence]),
            run_main(["query", "--checkpoint", ckpt, "--features", features,
                      "--captions", captions, "--image-id", "c2img001"]),
        ]
        assert codes == [1] * 4 or vocabulary_identity(header) == vocabulary_identity(original)
