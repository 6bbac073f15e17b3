"""The traced run: per-layer costs of one workload's configuration.

Spans go around calls into each layer's public functions; nothing inside
timecaps is changed.  Where a layer is reached only from inside
``model_forward`` (routing, convolutions, the six stages), the benchmark
swaps the name ``timecaps.model`` looks up for a wrapper and restores it
afterwards.

Per example, each stage is run alone on inputs captured from a full
forward (fresh leaves that require grad), and its backward is run from the
stage output with a fixed cotangent.  The per-stage sum is set against the
untraced forward+backward of the whole model, and the traced pass (stage
spans on) against the untraced one gives the tracing overhead.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

import timecaps.model as tm
from timecaps import tensor as T
from timecaps.capsules import capsule_length, dynamic_routing, routing_oracle
from timecaps.model import ForwardOutput, ModelParams, model_forward
from timecaps.optim import AdamState, adam_step
from timecaps.tensor import Tensor, no_grad
from timecaps.training import TrainConfig, evaluate, load_checkpoint, save_checkpoint, total_loss

from harness import Budget, Tracer
from workloads import BATCH_SIZE, Checks, Setup

STAGES = ("front_conv", "cell_a", "cell_b", "concat", "classification", "decoder")
STAGE_FUNCS = {"front_conv": "front_conv", "cell_a": "cell_a_forward", "cell_b": "cell_b_forward",
               "concat": "concat_weighted", "classification": "classification_forward",
               "decoder": "decoder_forward"}
ROUTING_SITES = ("cell_a", "cell_b", "class")  # call order inside model_forward
CONV_FUNCS = ("conv1d", "conv2d", "deconv1d")
ORACLE_TOL = 1e-10


@contextmanager
def patched(replacements: dict):
    """Point the given ``timecaps.model`` names at replacements, then restore."""
    originals = {name: getattr(tm, name) for name in replacements}
    try:
        for name, fn in replacements.items():
            setattr(tm, name, fn)
        yield
    finally:
        for name, fn in originals.items():
            setattr(tm, name, fn)


def tape_ops(root: Tensor) -> int:
    """Graph nodes reachable from ``root`` that carry a backward closure."""
    seen: set[int] = set()
    stack = [root]
    ops = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops += node._backward is not None
        stack.extend(node._parents)
    return ops


def leaf(t: Tensor) -> Tensor:
    return Tensor(t.data, requires_grad=True)


def cotangent(shape) -> Tensor:
    """The fixed cotangent for an output of this shape."""
    return Tensor(np.random.default_rng(0).standard_normal(shape))


def backward_from(out: Tensor, cot: Tensor):
    """Backward from a non-scalar output: d<out, cot>."""
    T.sum_over(T.mul(out, cot)).backward()


class LayerRun:
    """Collects spans for one workload's configuration and turns them into
    per-layer metrics."""

    def __init__(self, s: Setup, workdir: Path, tracer: Tracer, checks: Checks):
        self.s = s
        self.workdir = workdir
        self.cfg = s.cfg
        self.params: ModelParams = s.params
        self.tracer = tracer
        self.checks = checks
        self.tcfg = TrainConfig()
        rows = s.test_set if s.workload.kind == "eval" else s.train_set
        self.rows = rows.signals
        self.tape = 0
        self._cotangents: dict[tuple, Tensor] = {}

    def cot(self, out: Tensor) -> Tensor:
        if out.shape not in self._cotangents:
            self._cotangents[out.shape] = cotangent(out.shape)
        return self._cotangents[out.shape]

    # -- one example ------------------------------------------------------

    def untraced(self, x: Tensor, label: int) -> ForwardOutput:
        span = self.tracer.span
        self.params.zero_grad()
        with span("e2e.fwd"):
            fwd = model_forward(x, self.params, self.cfg, mask_class=label)
            loss = total_loss(fwd, x, label, self.tcfg)
        if not self.tape:
            self.tape = tape_ops(loss)
        with span("e2e.bwd"):
            loss.backward()
        self.checks.count(1, bool(np.isfinite(loss.data).all()), "non-finite loss in traced run")
        return fwd

    def traced(self, x: Tensor, label: int):
        """Forward+backward with a span around every stage call and routing
        and convolution inputs captured; returns the captured calls."""
        span = self.tracer.span
        calls: dict[str, list] = {name: [] for name in ("dynamic_routing",) + CONV_FUNCS}

        def capture(name):
            fn = getattr(tm, name)

            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[name].append((args, kwargs, out))
                return out
            return wrapper

        def timed(stage, name):
            fn = getattr(tm, name)

            def wrapper(*args, **kwargs):
                with span(f"traced.{stage}"):
                    return fn(*args, **kwargs)
            return wrapper

        replacements = {name: capture(name) for name in calls}
        replacements.update({name: timed(stage, name) for stage, name in STAGE_FUNCS.items()})
        self.params.zero_grad()
        with patched(replacements):
            with span("traced.fwd"):
                fwd = model_forward(x, self.params, self.cfg, mask_class=label)
                loss = total_loss(fwd, x, label, self.tcfg)
        with span("traced.bwd"):
            loss.backward()
        return calls

    def stages(self, x: Tensor, label: int, fwd: ForwardOutput):
        span = self.tracer.span
        p, cfg = self.params, self.cfg
        inter = fwd.intermediates
        phi = leaf(inter["phi"])
        runs = {
            "front_conv": lambda: tm.front_conv(x, p, cfg),
            "cell_a": lambda: tm.cell_a_forward(phi, p, cfg),
            "cell_b": lambda: tm.cell_b_forward(phi, p, cfg),
            "concat": lambda: tm.concat_weighted(leaf(inter["omega_a"]), leaf(inter["omega_b"]),
                                                 p["alpha"], p["beta"]),
            "classification": lambda: tm.classification_forward(leaf(inter["omega_cc"]), p, cfg),
            "decoder": lambda: tm.decoder_forward(leaf(fwd.class_capsules), label, p, cfg),
        }
        p.zero_grad()
        for stage in STAGES:
            with span(f"model.{stage}.fwd"):
                out = runs[stage]()
            cot = self.cot(out)
            with span(f"model.{stage}.bwd"):
                backward_from(out, cot)
        caps, recon = leaf(fwd.class_capsules), leaf(fwd.reconstruction)
        with span("capsules.loss.fwd"):
            lengths = capsule_length(caps, axis=-1)
            loss = total_loss(ForwardOutput(caps, lengths, recon, label), x, label, self.tcfg)
        with span("capsules.loss.bwd"):
            loss.backward()
        with no_grad():
            with span("nograd.forward"):
                out = model_forward(x, p, cfg)
            with span("nograd.loss"):
                total_loss(out, x, label, self.tcfg)
            with span("nograd.decoder"):
                tm.decoder_forward(out.class_capsules, out.mask_class, p, cfg)

    def routing(self, calls, check: bool):
        span = self.tracer.span
        sites = calls["dynamic_routing"]
        self.checks.count(1, len(sites) == len(ROUTING_SITES), f"{len(sites)} routing calls, want 3")
        for site, (args, _kwargs, out) in zip(ROUTING_SITES, sites):
            votes, iters = args
            if check:
                err = float(np.max(np.abs(routing_oracle(votes.data, iters) - out.data)))
                self.checks.count(1, err < ORACLE_TOL, f"{site} routing off the oracle by {err:.2e}")
            v = leaf(votes)
            with span(f"capsules.dynamic_routing.{site}.fwd"):
                routed = dynamic_routing(v, iters)
            cot = self.cot(routed)
            with span(f"capsules.dynamic_routing.{site}.bwd"):
                backward_from(routed, cot)

    def convs(self, calls):
        for name in CONV_FUNCS:
            fn = getattr(tm, name)
            with self.tracer.span(f"conv.{name}"):
                for args, kwargs, _out in calls[name]:
                    x, kernels = args[0], args[1]
                    out = fn(Tensor(x.data, requires_grad=x.requires_grad), kernels, *args[2:], **kwargs)
                    backward_from(out, self.cot(out))

    # -- whole run --------------------------------------------------------

    def run(self, seconds: float, quick: bool) -> dict:
        """Per-example loop for most of ``seconds``, then the Adam step,
        evaluate() and checkpoint I/O.  Returns name -> (value, unit)."""
        budget = Budget(0.75 * seconds)
        n = 0
        while n < (2 if quick else 20) or budget.left():
            sig = self.rows[n % len(self.rows)]
            x = Tensor(sig.samples)
            if n % 2:  # alternate so neither pass always runs on a warmer cache
                calls = self.traced(x, sig.label)
                fwd = self.untraced(x, sig.label)
            else:
                fwd = self.untraced(x, sig.label)
                calls = self.traced(x, sig.label)
            self.stages(x, sig.label, fwd)
            self.routing(calls, check=n < 2)
            self.convs(calls)
            n += 1
        self.adam(0.1 * seconds, 2 if quick else 10)
        self.evaluate(0.1 * seconds, 1 if quick else 3)
        self.checkpoint(2 if quick else 5)
        return self.metrics(n)

    def adam(self, seconds: float, min_reps: int):
        p = self.params
        p.zero_grad()
        for sig in self.rows[:BATCH_SIZE]:
            x = Tensor(sig.samples)
            total_loss(model_forward(x, p, self.cfg, mask_class=sig.label), x, sig.label,
                       self.tcfg).backward()
        batch = min(BATCH_SIZE, len(self.rows))
        grads = {name: (t.grad / batch if t.grad is not None else np.zeros_like(t.data))
                 for name, t in p.items()}
        state = AdamState.for_params(p.tensors(), lr=self.tcfg.lr)
        budget = Budget(seconds)
        reps = 0
        while reps < min_reps or budget.left():
            with self.tracer.span("optim.adam_step"):
                adam_step(p.tensors(), grads, state)
            reps += 1

    def evaluate(self, seconds: float, min_reps: int):
        held_out = self.s.test_set
        budget = Budget(seconds)
        reps = 0
        while reps < min_reps or budget.left():
            with self.tracer.span("training.evaluate"):
                evaluate(self.params, held_out)
            reps += 1

    def checkpoint(self, reps: int):
        path = self.workdir / "trace.ckpt"
        for _ in range(reps):
            with self.tracer.span("training.checkpoint_save"):
                save_checkpoint(self.params, path)
            with self.tracer.span("training.checkpoint_load"):
                load_checkpoint(path)

    def metrics(self, examples: int) -> dict:
        tr = self.tracer
        ms = tr.median_ms
        out: dict[str, tuple[float, str]] = {}
        stage_sum = 0.0
        for stage in STAGES:
            for part in ("fwd", "bwd"):
                value = ms(f"model.{stage}.{part}")
                out[f"model.{stage}.{part}_ms"] = (value, "ms")
                stage_sum += value
        for part in ("fwd", "bwd"):
            value = ms(f"capsules.loss.{part}")
            out[f"capsules.loss.{part}_ms"] = (value, "ms")
            stage_sum += value
        for site in ROUTING_SITES:
            for part in ("fwd", "bwd"):
                out[f"capsules.dynamic_routing.{site}.{part}_ms"] = (
                    ms(f"capsules.dynamic_routing.{site}.{part}"), "ms")
        for name in CONV_FUNCS:
            out[f"conv.{name}.ms"] = (ms(f"conv.{name}"), "ms")

        def per_example(*names):
            return float(np.median(np.sum([tr.durations(n) for n in names], axis=0))) * 1e3

        fwd_bwd = per_example("e2e.fwd", "e2e.bwd")
        nograd = per_example("nograd.forward", "nograd.loss")
        out["tensor.tape_ops"] = (float(self.tape), "count")
        out["tensor.backward_ms"] = (ms("e2e.bwd"), "ms")
        out["tensor.record_overhead_ms"] = (ms("e2e.fwd") - nograd, "ms")
        adam = ms("optim.adam_step")
        out["optim.adam_step_ms"] = (adam, "ms")
        out["optim.adam_share"] = (adam / (BATCH_SIZE * fwd_bwd + adam), "ratio")
        out["training.evaluate_ms"] = (ms("training.evaluate", per=len(self.s.test_set)), "ms")
        out["training.decoder_waste_share"] = (ms("nograd.decoder") / ms("nograd.forward"), "ratio")
        out["training.checkpoint_save_ms"] = (ms("training.checkpoint_save"), "ms")
        out["training.checkpoint_load_ms"] = (ms("training.checkpoint_load"), "ms")
        for step in ("synth", "save_csv", "load_csv", "normalize", "split"):
            out[f"data.{step}_ms"] = (ms(f"data.{step}"), "ms")
        out["trace.fwd_bwd_ms"] = (fwd_bwd, "ms")
        out["trace.nograd_fwd_ms"] = (nograd, "ms")
        out["trace.stage_sum_ms"] = (stage_sum, "ms")
        out["trace.stage_gap_share"] = (abs(stage_sum - fwd_bwd) / fwd_bwd, "ratio")
        out["trace.overhead_ms"] = (per_example("traced.fwd", "traced.bwd") - fwd_bwd, "ms")
        out["trace.examples"] = (float(examples), "count")
        return out
