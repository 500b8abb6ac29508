"""The benchmark's workloads, their correctness checks and their metrics.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. Inputs come from ``synth`` and depend only on
the seed. Only the operation itself is timed; making inputs and checking
outputs happen between operations.

* ``features``: one raw recording (62 channels x 240 s at 1000 Hz) per
  operation through ``prepare_recording`` and ``extract_features``. FFT-bound
  and free of autodiff.
* ``train``: one DANN step per operation at batch 256, half source subjects
  and half target subject: ``forward_batch``, a loss from public ops,
  ``backward`` and ``Adam.step``. Array-bound and backward-heavy.
* ``infer``: one batch-1 ``forward_batch(..., domain_head=False)`` per
  request with no tape active. Bound by per-op Python overhead.

The untraced run reports the end-to-end metrics named in BENCHMARK.json. The
traced run alternates untraced and traced segments, reports the per-layer
metrics from the traced ones, and the traced/untraced latency ratio as the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import math
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import synth
from tracing import FEATURE_STAGES, MODEL_STAGES, OPS, Tracer

RAW_RATE = 1000.0  # Hz, as recorded in SEED
WINDOW_S = 1.0
SUBJECTS = 6  # the last one is the target domain
POOL_RATIO = 0.5
SIGMA = 5.0  # adjacency calibration the built-in montage was scaled for
LEARNING_RATE = 1e-3
# Steps over which the reversal strength ramps up: lambda_p = 2/(1+e^(-10p)) - 1.
SCHEDULE_STEPS = 100
# A batch-1 output must match its row of the batched forward this closely.
ROW_TOLERANCE = 1e-12
DE_TOLERANCE = 1e-9
# The percentile each workload reports as its tail, fixed so that two
# commits are always compared on the same one. Each is the highest that
# leaves at least TAIL_BEYOND operations beyond it at the benchmark's run
# length. None goes past p99: beyond that, sub-millisecond requests on a
# shared 2-core machine measure interrupts and co-tenants (p99.9 spread by
# half between runs of the same code).
TAIL_PCT = {"features": 50.0, "train": 90.0, "infer": 99.0}
TAIL_BEYOND = 10
# The traced run's layer wrappers must account for at least this share of
# the time of the operations they sit in.
MIN_COVERAGE = 0.5
SEGMENTS = 6  # even, so a traced run is half traced


@dataclass(frozen=True)
class Sizes:
    """Fixed shape parameters of the workloads; tests use smaller ones."""

    record_seconds: float = 240.0
    batch: int = 256
    per_class: int = 200  # DE windows per subject and class
    infer_pool: int = 512
    check_windows: int = 4  # windows per recording checked against the reference
    replay_steps: int = 3
    setup_repeats: int = 36  # besides the first; spread over the segments


FULL = Sizes()


@dataclass
class Program:
    """An import of dagam and the state set-up builds from it."""

    features: object
    model: object
    ops: object
    optim: object
    tensor: object
    positions: np.ndarray
    adjacency: np.ndarray
    laplacian: object
    params: object
    adam: object


def _dagam_modules() -> list[str]:
    return [name for name in sys.modules if name == "dagam" or name.startswith("dagam.")]


@contextlib.contextmanager
def own_dagam_imports():
    """Let set-up import dagam afresh, and put any prior import back afterwards."""
    prior = {name: sys.modules.pop(name) for name in _dagam_modules()}
    try:
        yield
    finally:
        for name in _dagam_modules():
            del sys.modules[name]
        sys.modules.update(prior)


def init_model(model, optim, n_features: int, seed: int):
    params = model.init_params(n_features, synth.N_CLASSES, np.random.default_rng([seed, 3]))
    return params, optim.Adam(params.all_params(), lr=LEARNING_RATE)


def set_up(seed: int) -> tuple[Program, float, float]:
    """Import dagam, build the channel graph, the model and its optimizer.

    Returns the program and the seconds taken in total and by the graph.
    """
    for name in _dagam_modules():
        del sys.modules[name]
    start = time.perf_counter()
    mods = {
        name: importlib.import_module(f"dagam.{name}")
        for name in ("features", "graph", "layouts", "model", "ops", "optim", "tensor")
    }
    graph_start = time.perf_counter()
    layouts, graph = mods["layouts"], mods["graph"]
    layout = layouts.build_62_channel_layout()
    adjacency = graph.apply_global_connections(
        graph.build_adjacency(layout, SIGMA),
        list(layouts.DEFAULT_GLOBAL_PAIRS),
        layouts.DEFAULT_GLOBAL_WEIGHT,
    )
    laplacian = mods["tensor"].Tensor(graph.renormalized_laplacian(adjacency))
    graph_end = time.perf_counter()
    params, adam = init_model(mods["model"], mods["optim"], len(synth.BANDS), seed)
    end = time.perf_counter()
    prog = Program(
        features=mods["features"],
        model=mods["model"],
        ops=mods["ops"],
        optim=mods["optim"],
        tensor=mods["tensor"],
        positions=layout.positions,
        adjacency=adjacency.matrix,
        laplacian=laplacian,
        params=params,
        adam=adam,
    )
    return prog, end - start, graph_end - graph_start


def check_import_location(prog: Program, src: Path) -> None:
    """Refuse to measure a dagam imported from anywhere but ``src``."""
    found = Path(prog.model.__file__).resolve()
    if src.resolve() not in found.parents:
        raise RuntimeError(f"dagam was imported from {found}, not from {src}")


# ---------------------------------------------------------------- workloads


class Features:
    """Raw recordings through ``prepare_recording`` -> ``extract_features``."""

    def __init__(self, prog: Program, seed: int, sizes: Sizes):
        self.f = prog.features
        self.sizes = sizes
        self.items_per_op = sizes.record_seconds
        self.gen = synth.RawGenerator(
            seed, prog.positions, sizes.record_seconds, RAW_RATE, SUBJECTS
        )
        self.pick = np.random.default_rng([seed, 4])

    def next_input(self):
        samples, subject, trial, label = self.gen.next()
        return self.f.Recording(samples, self.gen.rate, subject, trial, label)

    def run(self, rec):
        prepared = self.f.prepare_recording(rec)
        return prepared, self.f.extract_features(prepared, synth.BANDS, WINDOW_S)

    def check(self, rec, out) -> str | None:
        prepared, windows = out
        width = int(round(WINDOW_S * prepared.rate))
        expected = prepared.n_samples // width
        if len(windows) != expected:
            return f"{len(windows)} windows, expected {expected}"
        if any(w.label != rec.label or w.subject != rec.subject for w in windows):
            return "window provenance differs from the recording"
        x = np.stack([w.x for w in windows])
        if not np.isfinite(x).all():
            return "non-finite DE value"
        chosen = self.pick.choice(expected, size=min(self.sizes.check_windows, expected), replace=False)
        for w in chosen:
            block = prepared.samples[:, w * width : (w + 1) * width]
            for ch in range(block.shape[0]):
                for b, (lo, hi) in enumerate(synth.BANDS):
                    isolated = self.f.band_isolate(block[ch], lo, hi, prepared.rate)
                    ref = self.f.differential_entropy(isolated)
                    if not abs(ref - x[w, ch, b]) <= DE_TOLERANCE:
                        return f"window {w} channel {ch} band {b}: {x[w, ch, b]!r} vs reference {ref!r}"
        return None

    def finish(self) -> list[str]:
        return []

    def extras(self, inp, out) -> dict:
        return {"windows": len(out[1])}


@dataclass
class Batch:
    step: int
    x: object  # Tensor (B, channels, bands)
    emotion_weight: object  # Tensor (B, classes): -B/n_source * one-hot, zero rows for target
    domain_weight: object  # Tensor (B, 2): -one-hot
    lam: float


@dataclass
class StepOut:
    loss: float
    tape: object
    forward_s: float
    backward_s: float
    adam_s: float


def reversal_strength(step: int) -> float:
    p = min(1.0, step / SCHEDULE_STEPS)
    return 2.0 / (1.0 + math.exp(-10.0 * p)) - 1.0


class Train:
    """DANN steps: emotion loss on the source half, domain loss on all rows."""

    def __init__(self, prog: Program, seed: int, sizes: Sizes):
        self.prog, self.seed, self.sizes = prog, seed, sizes
        self.items_per_op = sizes.batch
        self.data = data = synth.de_dataset(seed, prog.positions, SUBJECTS, sizes.per_class)
        target = SUBJECTS - 1
        split = np.random.default_rng([seed, 5])
        source = split.permutation(np.flatnonzero(data.subject != target))
        self.held_out = source[: sizes.batch]
        self.source = source[sizes.batch :]
        self.target = np.flatnonzero(data.subject == target)
        self.params, self.adam = prog.params, prog.adam
        self.sampler = np.random.default_rng([seed, 6])
        self.step = 0
        self.losses: dict[int, float] = {}  # by step
        self.held_out_start = self.held_out_loss()

    def make_batch(self, sampler, step: int) -> Batch:
        t = self.prog.tensor
        half = self.sizes.batch // 2
        rows = np.concatenate(
            [sampler.choice(self.source, half), sampler.choice(self.target, self.sizes.batch - half)]
        )
        emotion = np.zeros((rows.size, synth.N_CLASSES))
        emotion[np.arange(half), self.data.label[rows[:half]]] = -rows.size / half
        domain = np.zeros((rows.size, 2))
        domain[:half, 0] = -1.0
        domain[half:, 1] = -1.0
        return Batch(
            step, t.Tensor(self.data.x[rows]), t.Tensor(emotion), t.Tensor(domain), reversal_strength(step)
        )

    def next_input(self) -> Batch:
        batch = self.make_batch(self.sampler, self.step)
        self.step += 1
        return batch

    def run(self, batch: Batch) -> StepOut:
        return self.train_step(self.params, self.adam, batch)

    def train_step(self, params, adam, batch: Batch) -> StepOut:
        p = self.prog
        ops, tensor = p.ops, p.tensor
        start = time.perf_counter()
        adam.zero_grad()
        with tensor.Tape() as tape:
            emotion, domain, _ = p.model.forward_batch(
                params, batch.x, p.laplacian, p.adjacency, POOL_RATIO, batch.lam
            )
            # Mean over rows of -sum(log p * one-hot), weighted per head.
            loss = ops.add(
                ops.reduce_mean(ops.reduce_sum(ops.mul(ops.log(emotion), batch.emotion_weight), axis=-1)),
                ops.reduce_mean(ops.reduce_sum(ops.mul(ops.log(domain), batch.domain_weight), axis=-1)),
            )
        forward_end = time.perf_counter()
        tensor.backward(loss, tape)
        backward_end = time.perf_counter()
        adam.step()
        end = time.perf_counter()
        return StepOut(loss.item(), tape, forward_end - start, backward_end - forward_end, end - backward_end)

    def check(self, batch, out: StepOut) -> str | None:
        self.losses[batch.step] = out.loss
        if not math.isfinite(out.loss):
            return f"loss {out.loss}"
        for name, param in self.params.named().items():
            if param.grad is None or param.grad.shape != param.shape:
                return f"{name} has no gradient of shape {param.shape}"
            if not np.isfinite(param.grad).all():
                return f"{name} has a non-finite gradient"
        return None

    def held_out_loss(self) -> float:
        p = self.prog
        rows = self.held_out
        emotion, _, _ = p.model.forward_batch(
            self.params, p.tensor.Tensor(self.data.x[rows]), p.laplacian, p.adjacency,
            POOL_RATIO, domain_head=False,
        )
        return float(-np.log(emotion.data[np.arange(rows.size), self.data.label[rows]]).mean())

    def finish(self) -> list[str]:
        problems = []
        end = self.held_out_loss()
        if not end < self.held_out_start:
            problems.append(f"held-out emotion loss did not fall: {self.held_out_start!r} -> {end!r}")
        # Replay the first steps from a fresh model with the same seed.
        params, adam = init_model(self.prog.model, self.prog.optim, len(synth.BANDS), self.seed)
        sampler = np.random.default_rng([self.seed, 6])
        for step in range(min(self.sizes.replay_steps, self.step)):
            got = self.train_step(params, adam, self.make_batch(sampler, step)).loss
            if got != self.losses.get(step):
                problems.append(f"replayed step {step} loss {got!r} differs from {self.losses.get(step)!r}")
                break
        return problems

    def extras(self, batch, out: StepOut) -> dict:
        grads = {}
        for entry in out.tape.entries:
            for t in (*entry.inputs, entry.output):
                if t.grad is not None:
                    grads[id(t)] = t.grad.nbytes
        return {
            "forward_s": out.forward_s,
            "backward_s": out.backward_s,
            "adam_s": out.adam_s,
            "tape_entries": len(out.tape),
            "grad_bytes": sum(grads.values()),
        }


class Infer:
    """Batch-1 requests on the emotion head, checked against one batched pass."""

    def __init__(self, prog: Program, seed: int, sizes: Sizes):
        self.prog = prog
        self.items_per_op = 1
        data = synth.de_dataset(seed, prog.positions, SUBJECTS, sizes.per_class)
        rows = np.random.default_rng([seed, 7]).choice(data.x.shape[0], sizes.infer_pool, replace=False)
        pool = data.x[rows]
        self.requests = [prog.tensor.Tensor(x[None]) for x in pool]
        self.reference = self.forward(prog.tensor.Tensor(pool))
        self.count = 0

    def forward(self, x) -> np.ndarray:
        p = self.prog
        emotion, _, _ = p.model.forward_batch(
            p.params, x, p.laplacian, p.adjacency, POOL_RATIO, domain_head=False
        )
        return emotion.data

    def next_input(self) -> int:
        i = self.count % len(self.requests)
        self.count += 1
        return i

    def run(self, i: int) -> np.ndarray:
        return self.forward(self.requests[i])

    def check(self, i: int, out: np.ndarray) -> str | None:
        if out.shape != (1, synth.N_CLASSES):
            return f"output shape {out.shape}"
        if not abs(out.sum() - 1.0) <= ROW_TOLERANCE:
            return f"probabilities sum to {out.sum()!r}"
        if not np.abs(out[0] - self.reference[i]).max() <= ROW_TOLERANCE:
            return f"request {i} differs from its batched row by {np.abs(out[0] - self.reference[i]).max()!r}"
        return None

    def finish(self) -> list[str]:
        return []

    def extras(self, i, out) -> dict:
        return {}


WORKLOAD_CLASSES = {"features": Features, "train": Train, "infer": Infer}
WORKLOADS = tuple(WORKLOAD_CLASSES)


# ----------------------------------------------------------------- measuring


@dataclass
class Phase:
    """Outcome of one timed stretch of a workload."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: list = field(default_factory=list)  # per-operation tracer Counts
    extras: list[dict] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(why)


def measure(work, seconds: float, phase: Phase, tracer: Tracer | None = None) -> None:
    """Run operations back to back into ``phase`` until ``seconds`` have passed."""
    clock = time.perf_counter
    deadline = clock() + seconds
    attempted = phase.attempted
    while clock() < deadline or phase.attempted == attempted:
        inp = work.next_input()
        phase.attempted += 1
        if tracer is not None:
            tracer.take()  # nothing counted while making the input belongs to the operation
        start = clock()
        try:
            out = work.run(inp)
        except Exception:  # the program failed this operation; keep measuring
            phase.fail(traceback.format_exc(limit=-3))
            continue
        phase.times.append(clock() - start)
        counts = tracer.take() if tracer is not None else None
        problem = work.check(inp, out)
        if problem is not None:
            phase.fail(problem)
        elif tracer is not None:
            phase.counts.append(counts)
            phase.extras.append(work.extras(inp, out))
            tracer.take()  # drop what the check itself called


def thin_tail(name: str, times: list[float]) -> list[str]:
    """A problem if too few operations lie beyond the workload's tail percentile."""
    pct = TAIL_PCT[name]
    beyond = len(times) * (100.0 - pct) / 100.0
    if beyond >= TAIL_BEYOND:
        return []
    return [f"only {beyond:.1f} of {len(times)} operations lie beyond p{pct:g}; its tail needs {TAIL_BEYOND}"]


def module_state(prog: Program) -> dict[str, object]:
    """Every attribute and function default of the modules the tracer wraps."""
    state = {}
    for mod in (prog.features, prog.model, prog.ops, prog.tensor):
        for name, value in vars(mod).items():
            state[f"{mod.__name__}.{name}"] = value
            if hasattr(value, "__defaults__"):
                state[f"{mod.__name__}.{name}.__defaults__"] = value.__defaults__
    return state


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def environment(root: Path) -> dict:
    """Where a result came from: commit, interpreter, BLAS, pins and CPU."""
    commit = "unknown"
    head = root / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (root / ".git" / ref[5:]).read_text().strip()
        commit = ref
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # private to numpy; only describes the machine
        __cpu_features__ = {}
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "cpu_features": ",".join(k for k, on in __cpu_features__.items() if on),
        "nproc": os.cpu_count(),
    }


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def end_to_end(
    name: str, work, phase: Phase, failed: int, setup_s: list[float]
) -> tuple[dict, list[str]]:
    p50 = _median(phase.times) * 1e3
    pct = TAIL_PCT[name]
    tail_s = float(np.percentile(phase.times, pct))
    done = len(phase.times)
    per_s = work.items_per_op * done / sum(phase.times)
    # The median is printed but not part of the result: on a shared machine
    # whose speed flips between two levels every few seconds it jumps with
    # the share of time spent at each, and for infer spread by 30% between
    # runs of the same code. The mean (in items_per_s) and the tail do not.
    metrics = {
        "setup_s": (_median(setup_s), "s"),
        # 1 when every check passed; a single failure halves it. Never 0.
        "ok_score": (1.0 / (1.0 + failed), "score"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "items_per_s": (per_s, "1/s"),
    }
    beyond = done * (1.0 - pct / 100.0)
    where = f"(p{pct:g} of {done} operations, {beyond:.1f} beyond it)"
    lines = {
        "features": [
            f"feat_s_per_eeg_hour {3600.0 / per_s:.4f} s/EEG-hour",
            f"feat_rec_ms_p50 {p50:.3f} ms",
            f"feat_rec_ms_tail {tail_s * 1e3:.3f} ms {where}",
        ],
        "train": [
            f"train_samples_per_s {per_s:.2f} 1/s",
            f"train_step_ms_p50 {p50:.3f} ms",
            f"train_step_ms_tail {tail_s * 1e3:.3f} ms {where}",
        ],
        "infer": [
            f"infer_req_per_s {per_s:.2f} 1/s",
            f"infer_ms_p50 {p50:.4f} ms",
            f"infer_ms_tail {tail_s * 1e3:.4f} ms {where}",
        ],
    }[name]
    lines += [
        f"setup_s {metrics['setup_s'][0]:.5f} s (median of {len(setup_s)} set-ups)",
        f"failed_frac {failed / phase.attempted:.4f} ({failed} of {phase.attempted})",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    return metrics, lines


def per_layer(
    name: str, traced: Phase, untraced: Phase, graph_s: list[float]
) -> tuple[dict, list[str]]:
    def med(get) -> float:
        return _median([get(c) for c in traced.counts])

    def med_extra(key: str) -> float:
        return _median([e[key] for e in traced.extras if key in e])

    metrics: dict[str, tuple[float, str]] = {}
    for op in OPS:
        metrics[f"ops.{op}.fwd_ms"] = (med(lambda c: c.fwd[op]) * 1e3, "ms")
        metrics[f"ops.{op}.bwd_ms"] = (med(lambda c: c.bwd[op]) * 1e3, "ms")
        metrics[f"ops.{op}.calls"] = (med(lambda c: c.calls[op]), "count")
    metrics["ops.matmul.fwd_gflop"] = (med(lambda c: c.fwd_flop) / 1e9, "GFLOP")
    metrics["ops.matmul.bwd_gflop"] = (med(lambda c: c.bwd_flop) / 1e9, "GFLOP")

    backward = [e["backward_s"] for e in traced.extras if "backward_s" in e]
    closures = [sum(c.bwd.values()) for c in traced.counts]
    forward = med_extra("forward_s")
    metrics["tensor.backward_ms"] = (_median(backward) * 1e3, "ms")
    metrics["tensor.backward_self_ms"] = (
        _median([b - c for b, c in zip(backward, closures)]) * 1e3, "ms"
    )
    metrics["tensor.tape_entries"] = (med_extra("tape_entries"), "count")
    metrics["tensor.grad_bytes"] = (med_extra("grad_bytes"), "B")
    metrics["tensor.bwd_over_fwd"] = (_median(backward) / forward if forward else 0.0, "ratio")

    for stage in MODEL_STAGES:
        metrics[f"model.{stage}_ms"] = (med(lambda c: c.stage[stage]) * 1e3, "ms")
    scores = sum(c.scores for c in traced.counts)
    saturated = sum(c.saturated for c in traced.counts)
    metrics["model.attention_saturated_frac"] = (saturated / scores if scores else 0.0, "ratio")
    for stage in FEATURE_STAGES:
        metrics[f"features.{stage}_ms"] = (med(lambda c: c.stage[stage]) * 1e3, "ms")
    metrics["features.windows"] = (med_extra("windows"), "count")
    metrics["graph.build_ms"] = (_median(graph_s) * 1e3, "ms")
    metrics["optim.adam_step_ms"] = (med_extra("adam_s") * 1e3, "ms")

    # Share of each operation's time the layer wrappers account for.
    covered = []
    for counts, extra, total in zip(traced.counts, traced.extras, traced.times):
        if name == "features":
            covered.append(sum(counts.stage[s] for s in FEATURE_STAGES) / total)
        else:
            span = extra["forward_s"] + extra["backward_s"] if name == "train" else total
            covered.append((sum(counts.fwd.values()) + sum(counts.bwd.values())) / span)
    metrics["trace.coverage"] = (_median(covered), "ratio")
    metrics["trace.overhead"] = (_median(traced.times) / _median(untraced.times), "ratio")

    lines = [f"{key} {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    if forward:
        lines.append(f"(bwd_over_fwd base: forward incl. loss {forward * 1e3:.3f} ms per step)")
    return metrics, lines


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    lines: list[str]

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def run(name: str, seed: int, seconds: float, trace: bool, src: Path, sizes: Sizes = FULL) -> Result:
    """Set up, measure one workload, check it and gather its metrics.

    The run is cut into segments with set-up repeats between them, so the
    set-up median samples the whole run, not one moment of it. A traced run
    alternates untraced and traced segments, so both see the same machine.
    """
    setup_s: list[float] = []
    graph_s: list[float] = []
    problems: list[str] = []
    phases = {False: Phase(), True: Phase()}

    def set_up_timed() -> Program:
        prog, total, graph = set_up(seed)
        setup_s.append(total)
        graph_s.append(graph)
        return prog

    with own_dagam_imports():
        prog = set_up_timed()
        check_import_location(prog, src)
        work = WORKLOAD_CLASSES[name](prog, seed, sizes)
        for segment in range(SEGMENTS):
            for _ in range(sizes.setup_repeats // SEGMENTS):
                set_up_timed()  # the program under measurement stays the first one
            gc.collect()  # free the repeats' modules now, not inside a timed operation
            traced = trace and segment % 2 == 1
            if not traced:
                measure(work, seconds / SEGMENTS, phases[False])
                continue
            before = module_state(prog)
            tracer = Tracer(prog.ops, prog.model, prog.features)
            tracer.install()
            try:
                measure(work, seconds / SEGMENTS, phases[True], tracer)
            finally:
                tracer.restore()
            after = module_state(prog)
            changed = sorted(k for k in before.keys() | after.keys() if before.get(k) is not after.get(k))
            if changed:
                problems.append(f"tracer left wrappers in place: {', '.join(changed)}")
        problems += work.finish()
    if not all(phase.times for phase in phases.values() if phase.attempted):
        raise RuntimeError(f"{name}: no operation completed: {[p.problems for p in phases.values()]}")

    if trace:
        traced_phase = phases[True]
        for counts in traced_phase.counts:
            unmatched = counts.unmatched_ops()
            if unmatched:
                problems.append(f"op calls the tracer missed (wrapped, recorded): {unmatched}")
                break
        metrics, lines = per_layer(name, traced_phase, phases[False], graph_s)
        if not traced_phase.counts:
            problems.append("no traced operation passed its check")
        elif metrics["trace.coverage"][0] < MIN_COVERAGE:
            problems.append(f"layer wrappers cover only {metrics['trace.coverage'][0]:.2f} of the traced time")
    else:
        problems += thin_tail(name, phases[False].times)
    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values()) + len(problems)
    if not trace:
        metrics, lines = end_to_end(name, work, phases[False], failed, setup_s)
    problems = [why for p in phases.values() for why in p.problems] + problems
    lines = [f"{name} {line}" for line in lines] + [f"{name} problem: {why}" for why in problems]
    return Result(failed == 0, attempted, failed, metrics, lines)
