"""In-memory tracing of crossmodal's layers, installed from outside the package.

The tracer replaces a fixed list of module-level functions with timing
wrappers at every place the package binds them (``crossmodal.cli`` holds its
own reference to ``load_image_features``, ``crossmodal.ranker`` its own
``forward`` and so on), and puts the originals back on ``uninstall``. Nothing
in the package source changes.

Each wrapped call pushes a frame; on return its duration is added to the
parent frame's child time, so self time is the call's duration minus the time
covered by wrapped calls it made. Coarse calls (file loads, ``train``,
``build_rankings``, CLI commands) are also kept as spans (name, start, end,
parent). Hot calls (``forward``, ``cosine_score``: millions per evaluation)
only update per-function totals, so the trace stays small.

Targets that a later version of the package no longer has are skipped, and
an observer that cannot read a call's arguments or result is ignored: the
metrics it feeds then read 0.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("corpus", "text", "nets", "ranker", "metrics", "checkpoint", "cli")
PACKAGE_MODULES = ("crossmodal",) + tuple(f"crossmodal.{name}" for name in LAYERS)
SPAN_LIMIT = 200_000

# (layer, attribute, kept as spans): the functions each layer exposes
TARGETS = (
    ("corpus", "load_captions", True),
    ("corpus", "load_image_features", True),
    ("corpus", "split_dataset", True),
    ("text", "build_vocabulary", True),
    ("text", "featurize", False),
    ("text", "encode_sequence", False),
    ("text", "normalize_tokenize", False),
    ("nets", "init_net", True),
    ("nets", "forward", False),
    ("nets", "backward", False),
    ("nets", "sgd_step", False),
    ("nets", "accumulate", False),
    ("ranker", "train", True),
    ("ranker", "train_epoch", True),
    ("ranker", "validate", True),
    ("ranker", "write_history", True),
    ("ranker", "triplet_grads", False),
    ("ranker", "cosine_score", False),
    ("ranker", "cosine_backward", False),
    ("ranker", "margin_loss", False),
    ("ranker", "sample_negative", False),
    ("metrics", "build_rankings", True),
    ("metrics", "evaluate_rankings", True),
    ("metrics", "format_report", False),
    ("metrics", "report_to_kv", False),
    ("checkpoint", "save_checkpoint", True),
    ("checkpoint", "load_checkpoint", True),
    ("cli", "main", True),
    ("cli", "cmd_evaluate", True),
    ("cli", "cmd_query", True),
    ("cli", "build_parser", False),
)
# classes whose constructor is a layer boundary
CLASS_TARGETS = (("ranker", "RetrievalDataset"),)


def _per_layer_table() -> tuple[tuple[str, str, str], ...]:
    rows = [
        ("corpus.load_image_features_s", "s", "lower"),
        ("corpus.features_mb_per_s", "MB/s", "higher"),
        ("corpus.features_bytes", "bytes", "lower"),
        ("corpus.load_captions_s", "s", "lower"),
        ("text.build_vocabulary_s", "s", "lower"),
        ("text.featurize_s", "s", "lower"),
        ("text.captions_featurized", "count", "lower"),
    ]
    for name in ("textual.forward", "visual.forward", "textual.backward", "visual.backward",
                 "sgd_step", "accumulate"):
        rows += [(f"nets.{name}_s", "s", "lower"), (f"nets.{name}.calls", "count", "lower")]
    rows += [
        ("nets.grad_bytes_per_update", "bytes", "lower"),
        ("ranker.triplet_grads_self_s", "s", "lower"),
        ("ranker.cosine_score_s", "s", "lower"),
        ("ranker.cosine_score_calls", "count", "lower"),
        ("ranker.cosine_backward_s", "s", "lower"),
        ("ranker.sample_negative_s", "s", "lower"),
        ("ranker.validate_s", "s", "lower"),
        ("ranker.update_rate", "ratio", "higher"),
        ("ranker.pairs_skipped", "count", "lower"),
        ("metrics.build_rankings_s", "s", "lower"),
        ("metrics.scores", "count", "lower"),
        ("metrics.scores_per_s", "1/s", "higher"),
        ("metrics.evaluate_rankings_s.annotation", "s", "lower"),
        ("metrics.evaluate_rankings_s.search", "s", "lower"),
        ("checkpoint.load_s", "s", "lower"),
        ("checkpoint.save_s", "s", "lower"),
        ("checkpoint.bytes", "bytes", "lower"),
        ("cli.query_self_s", "s", "lower"),
        ("cli.evaluate_self_s", "s", "lower"),
    ]
    rows += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    rows += [
        ("trace.op_untraced_ms", "ms", "lower"),
        ("trace.op_traced_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return tuple(rows)


# every per-layer metric the traced run reports: (name, unit, better)
PER_LAYER = _per_layer_table()


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: dict[str, int] = field(default_factory=dict)


def _is_or_wraps(obj, target) -> bool:
    while obj is not None:
        if obj is target:
            return True
        obj = getattr(obj, "__wrapped__", None)
    return False


def _array_bytes(value) -> int:
    """Bytes of every array reachable through dicts, lists and tuples."""
    if hasattr(value, "nbytes") and hasattr(value, "dtype"):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_array_bytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(v) for v in value)
    return 0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Wraps layer functions; records spans and per-function totals by phase."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.stats: dict[tuple[str, str], Stat] = {}
        self.spans: list[dict] = []
        self.spans_dropped = 0
        # computed counts, per phase: name -> value
        self.counts: dict[tuple[str, str], float] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._side_of: dict[int, str] = {}
        self._next_id = 0
        self._t0 = time.perf_counter_ns()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [sys.modules[name] for name in PACKAGE_MODULES if name in sys.modules]
        for layer, attr, keep_span in TARGETS:
            original = getattr(sys.modules.get(f"crossmodal.{layer}"), attr, None)
            while hasattr(original, "__wrapped__"):
                original = original.__wrapped__
            if not callable(original):
                continue
            # a site may hold another wrapper (the benchmark's skip counter): wrap that
            wrappers: dict[int, object] = {}
            for module in modules:
                bound = getattr(module, attr, None)
                if bound is not None and _is_or_wraps(bound, original):
                    if id(bound) not in wrappers:
                        wrappers[id(bound)] = self._wrap(layer, attr, bound, keep_span)
                    self._patches.append((module, attr, bound))
                    setattr(module, attr, wrappers[id(bound)])
        for layer, cls_name in CLASS_TARGETS:
            cls = getattr(sys.modules.get(f"crossmodal.{layer}"), cls_name, None)
            init = getattr(cls, "__init__", None)
            if cls is None or init is None:
                continue
            self._patches.append((cls, "__init__", init))
            setattr(cls, "__init__", self._wrap(layer, cls_name, init, True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, previous = self._patches.pop()
            setattr(owner, attr, previous)

    def _wrap(self, layer: str, attr: str, original, keep_span: bool):
        name = f"{layer}.{attr}"
        observe = getattr(self, f"_observe_{attr}", None)
        keyed = getattr(self, f"_key_{attr}", None)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            key = name
            if keyed is not None:
                try:
                    key = keyed(args)
                except Exception:
                    key = name
            span_id = None
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            frame = [key, clock(), 0, span_id]
            stack.append(frame)
            error = None
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                stat = self.stats.get((self.phase, key))
                if stat is None:
                    stat = self.stats[(self.phase, key)] = Stat()
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[2]
                if error is not None:
                    stat.errors[error] = stat.errors.get(error, 0) + 1
                if span_id is not None:
                    self._record_span(frame, end, error)
            if observe is not None:
                try:
                    observe(args, result)
                except Exception:
                    pass
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    def _record_span(self, frame: list, end: int, error: str | None) -> None:
        if len(self.spans) >= SPAN_LIMIT:
            self.spans_dropped += 1
            return
        parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
        self.spans.append(
            {
                "id": frame[3],
                "name": frame[0],
                "start_ns": frame[1] - self._t0,
                "end_ns": end - self._t0,
                "parent": parent,
                "phase": self.phase,
                "error": error,
            }
        )

    # -- per-call keys and observers ----------------------------------------

    def _count(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def _key_forward(self, args) -> str:
        side = "visual" if hasattr(args[1], "dtype") else "textual"
        self._side_of[id(args[0])] = side
        return f"nets.{side}.forward"

    def _key_backward(self, args) -> str:
        return f"nets.{self._side_of.get(id(args[0].net), 'unknown')}.backward"

    def _key_evaluate_rankings(self, args) -> str:
        return f"metrics.evaluate_rankings.{args[0].direction}"

    def _observe_sgd_step(self, args, result) -> None:
        self._count("grad_bytes", _array_bytes(args[1]))

    def _observe_triplet_grads(self, args, result) -> None:
        self._count("pairs_scored", 1)
        if result[0] > 0:
            self._count("pairs_violated", 1)

    def _observe_featurize(self, args, result) -> None:
        self._count("captions_featurized", 1)

    _observe_encode_sequence = _observe_featurize

    def _observe_load_image_features(self, args, result) -> None:
        self._count("feature_bytes", _file_size(args[0]))

    def _observe_load_checkpoint(self, args, result) -> None:
        self._count("checkpoint_bytes", _file_size(args[0]))

    def _observe_save_checkpoint(self, args, result) -> None:
        self._count("checkpoint_bytes", _file_size(args[0]))

    def _observe_build_rankings(self, args, result) -> None:
        self._count("scores", sum(len(r) for rs in result for r in rs.results.values()))

    # -- derived metrics ------------------------------------------------------

    def _phase_for(self, names: list[str]) -> str:
        ran_in_ops = any(self.stats.get(("op", n), Stat()).calls for n in names)
        return "op" if ran_in_ops else "setup"

    def layer_metrics(self, n_ops: int, n_setups: int = 1) -> dict[str, float]:
        """Per-layer metrics: totals per operation, or per set-up when the
        function (or layer) only ran during set-up."""
        divisor = {"op": max(n_ops, 1), "setup": max(n_setups, 1)}

        def stat(name: str, phase: str) -> Stat:
            return self.stats.get((phase, name), Stat())

        def seconds(name: str, own: bool = False) -> float:
            phase = self._phase_for([name])
            s = stat(name, phase)
            return (s.self_ns if own else s.total_ns) / 1e9 / divisor[phase]

        def calls(name: str) -> float:
            phase = self._phase_for([name])
            return stat(name, phase).calls / divisor[phase]

        def count(name: str, phase: str) -> float:
            return self.counts.get((phase, name), 0)

        def layer_self(layer: str) -> float:
            names = {key for _, key in self.stats if key.startswith(layer + ".")}
            phase = self._phase_for(sorted(names))
            return sum(stat(n, phase).self_ns for n in names) / 1e9 / divisor[phase]

        out: dict[str, float] = {}
        feat_phase = self._phase_for(["corpus.load_image_features"])
        feat_s = stat("corpus.load_image_features", feat_phase).total_ns / 1e9
        out["corpus.load_image_features_s"] = seconds("corpus.load_image_features")
        out["corpus.load_captions_s"] = seconds("corpus.load_captions")
        out["corpus.features_bytes"] = count("feature_bytes", feat_phase) / divisor[feat_phase]
        out["corpus.features_mb_per_s"] = (
            count("feature_bytes", feat_phase) / 1e6 / feat_s if feat_s else 0.0
        )
        out["text.build_vocabulary_s"] = seconds("text.build_vocabulary")
        out["text.featurize_s"] = seconds("text.featurize") + seconds("text.encode_sequence")
        text_phase = self._phase_for(["text.featurize", "text.encode_sequence"])
        out["text.captions_featurized"] = count("captions_featurized", text_phase) / divisor[text_phase]
        for side in ("textual", "visual"):
            for step in ("forward", "backward"):
                name = f"nets.{side}.{step}"
                out[f"{name}_s"] = seconds(name)
                out[f"{name}.calls"] = calls(name)
        for step in ("sgd_step", "accumulate"):
            out[f"nets.{step}_s"] = seconds(f"nets.{step}")
            out[f"nets.{step}.calls"] = calls(f"nets.{step}")
        sgd_phase = self._phase_for(["nets.sgd_step"])
        sgd_calls = stat("nets.sgd_step", sgd_phase).calls
        out["nets.grad_bytes_per_update"] = (
            count("grad_bytes", sgd_phase) / sgd_calls if sgd_calls else 0.0
        )
        out["ranker.triplet_grads_self_s"] = seconds("ranker.triplet_grads", own=True)
        out["ranker.cosine_score_s"] = seconds("ranker.cosine_score")
        out["ranker.cosine_score_calls"] = calls("ranker.cosine_score")
        out["ranker.cosine_backward_s"] = seconds("ranker.cosine_backward")
        out["ranker.sample_negative_s"] = seconds("ranker.sample_negative")
        out["ranker.validate_s"] = seconds("ranker.validate")
        tg_phase = self._phase_for(["ranker.triplet_grads"])
        scored = count("pairs_scored", tg_phase)
        out["ranker.update_rate"] = count("pairs_violated", tg_phase) / scored if scored else 0.0
        out["metrics.build_rankings_s"] = seconds("metrics.build_rankings")
        rank_phase = self._phase_for(["metrics.build_rankings"])
        rank_s = stat("metrics.build_rankings", rank_phase).total_ns / 1e9
        out["metrics.scores"] = count("scores", rank_phase) / divisor[rank_phase]
        out["metrics.scores_per_s"] = count("scores", rank_phase) / rank_s if rank_s else 0.0
        for direction in ("annotation", "search"):
            out[f"metrics.evaluate_rankings_s.{direction}"] = seconds(
                f"metrics.evaluate_rankings.{direction}"
            )
        out["checkpoint.load_s"] = seconds("checkpoint.load_checkpoint")
        out["checkpoint.save_s"] = seconds("checkpoint.save_checkpoint")
        ck_names = ["checkpoint.load_checkpoint", "checkpoint.save_checkpoint"]
        ck_phase = self._phase_for(ck_names)
        ck_calls = sum(stat(n, ck_phase).calls for n in ck_names)
        out["checkpoint.bytes"] = count("checkpoint_bytes", ck_phase) / ck_calls if ck_calls else 0.0
        out["cli.query_self_s"] = seconds("cli.cmd_query", own=True)
        out["cli.evaluate_self_s"] = seconds("cli.cmd_evaluate", own=True)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self(layer)
        return out

    def dump(self) -> dict:
        """Everything recorded, for the trace file."""
        functions = [
            {
                "phase": phase,
                "name": name,
                "calls": s.calls,
                "total_s": s.total_ns / 1e9,
                "self_s": s.self_ns / 1e9,
                "errors": s.errors,
            }
            for (phase, name), s in sorted(self.stats.items())
        ]
        computed = {f"{phase}.{name}": value for (phase, name), value in sorted(self.counts.items())}
        return {
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "functions": functions,
            "computed": computed,
        }


