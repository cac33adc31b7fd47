"""The benchmark's workloads: their inputs, operations and output checks.

Each workload is a closed loop with one client: an operation starts only
after the previous one has returned. Inputs derive from the benchmark's
seed; the library sees only the generated arrays and files. Every check runs
outside the timed region, with span recording off.

The library is always called through its module attributes
(`training.train`, not a local `train`), so the timing wrappers that
`tracing` binds into those modules see the benchmark's own calls too.
"""
from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from logcoral import data, gradcheck, linalg, losses, network, stats, training
from logcoral.exceptions import LogCoralError

import oracle
import reference
from tracing import time_calls

# Lowest final target accuracy accepted from a default-config run: well
# below the 0.657 to 0.872 measured over seeds 0-39 when the benchmark was
# added, well above the 0.2 of chance over 5 classes.
ACC_FLOOR = 0.5
WARMUP_STEPS = 200      # train_default: steps of a throwaway run in set-up
WARMUP_OPS = 3          # other workloads: operations before timing starts
VALUE_RTOL = 1e-6       # loss values against the numpy oracle


@dataclass
class Block:
    """The operations one block ran: per-operation start and seconds,
    measured and scaled to the reference speed, the wall time of the block's
    timed region without reference probes, and the operations and failed
    checks."""

    starts: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, start: float, seconds: float):
        self.starts.append(start)
        self.samples.append(seconds)

    def finish(self, speed: reference.Speedometer):
        speed.probe()
        self.scaled = speed.scale(self.starts, self.samples)

    def fail(self, why: str):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)


def _recording(tracer, on: bool):
    if tracer is not None:
        tracer.recording = on


class Workload:
    """What the runner reads from every workload; the defaults mean "not
    measured on this workload"."""

    name = ""
    op_span = "op"          # span that encloses one operation when traced
    useful_width = None     # covariance width that feeds a loss
    setup_failed = 0        # failed checks during set-up
    checkpoint_bytes = 0
    csv_bytes = 0
    ingest_s = ()           # seconds to load both CSV files, per set-up

    def __init__(self, kernel=reference.small_kernel):
        self.speed = reference.Speedometer(kernel)

    def run_block(self, tracer=None, budget_s: float = 0.0) -> Block:
        """Operations one after another until budget_s has passed (at least
        one), with a reference probe between them when one is due. With a
        tracer, each is recorded under a root span named "op"."""
        block = Block()
        op = tracer.wrap("op", self.op) if tracer is not None else self.op
        while block.wall < budget_s or not block.attempted:
            self.speed.maybe_probe()
            _recording(tracer, True)
            t0 = perf_counter()
            try:
                out = op()
            except LogCoralError as exc:
                out = None
                block.fail(f"operation raised {exc!r}")
            dt = perf_counter() - t0
            _recording(tracer, False)
            block.add(t0, dt)
            block.wall += dt
            block.attempted += 1
            if out is not None:
                self.check(out, block)
        block.finish(self.speed)
        return block


class TrainDefault(Workload):
    """`train()` at the default RunConfig, as `logcoral train` runs it.
    One operation is one train_step; a block is one whole train() call."""

    name = "train_default"
    op_span = "network.train_step"

    def __init__(self, seed: int, workdir: str, steps: int = None, acc_floor: float = ACC_FLOOR):
        super().__init__()
        self.config = training.RunConfig(seed=seed)
        if steps is not None:
            self.config = dataclasses.replace(self.config, steps=steps, eval_every=min(steps, 100))
        self.workdir = workdir
        self.acc_floor = acc_floor
        self.useful_width = self.config.hidden_dims[-1]  # the covariance tap
        self.final_stats = None

    def setup(self):
        self.dataset = training.default_dataset(self.config)
        warm = dataclasses.replace(self.config, steps=min(WARMUP_STEPS, self.config.steps))
        training.train(warm, self.dataset)

    def run_block(self, tracer=None, budget_s: float = 0.0) -> Block:
        block = Block()
        out = tempfile.mkdtemp(dir=self.workdir)
        metrics = os.path.join(out, "metrics.jsonl")
        ckpt = os.path.join(out, "checkpoint.npz")
        # Probes run inside train(), so a traced run records them as spans
        # of their own, out of training.train's self time.
        if tracer is not None:
            self.speed.run = tracer.wrap("bench.reference", self.speed.kernel)
        timer = time_calls("network", "train_step", block.add, before=self.speed.maybe_probe)
        try:
            _recording(tracer, True)
            probing = self.speed.spent
            t0 = perf_counter()
            try:
                state, records = training.train(self.config, self.dataset,
                                                metrics_path=metrics, checkpoint_path=ckpt)
            except LogCoralError as exc:
                state, records = None, []
                block.fail(f"train() raised {exc!r}")
            block.wall = perf_counter() - t0 - (self.speed.spent - probing)
        finally:
            _recording(tracer, False)
            timer.undo()
            self.speed.run = self.speed.kernel
        block.finish(self.speed)
        block.attempted = max(len(block.samples), 1)
        for rec in records:
            bad = [k for k, v in rec.items() if k.startswith("loss_") and not np.isfinite(v)]
            if bad:
                block.fail(f"step {rec['step']}: non-finite {bad}")
        if state is not None:
            self._check_run(state, ckpt, block)
        shutil.rmtree(out)
        return block

    def _check_run(self, state, ckpt, block):
        acc = network.evaluate(state.model, self.dataset.target)
        if acc < self.acc_floor:
            block.fail(f"final target accuracy {acc:.3f} < floor {self.acc_floor}")
        if state.step != self.config.steps:
            block.fail(f"train() stopped at step {state.step} of {self.config.steps}")
        loaded = training.load_checkpoint(ckpt)
        pairs = zip(loaded.model.weights + loaded.model.biases + loaded.velocity_w + loaded.velocity_b,
                    state.model.weights + state.model.biases + state.velocity_w + state.velocity_b)
        if (loaded.step, loaded.model.dims) != (state.step, state.model.dims) or \
                not all(np.array_equal(a, b) for a, b in pairs):
            block.fail("checkpoint does not reload to bit-identical parameters")
        self.checkpoint_bytes = os.path.getsize(ckpt)
        self.final_stats = (state.stats_source.cov, state.stats_target.cov, state.epsilon)

    def grad_accuracy(self):
        """Log-CORAL gradient error at the final smoothed tap covariances."""
        cov_s, cov_t, eps = self.final_stats
        bundle = losses.logcoral_loss(cov_s, cov_t, epsilon=eps)
        return oracle.grad_rel_err(bundle, np.asarray(cov_s.data), np.asarray(cov_t.data), eps)


def make_features(seed: int, rows: int, width: int, dead: int, classes: int = 5, latent: int = 64):
    """Labelled post-ReLU features for two domains. Both come from one
    class-structured latent code through a random layer; the target's
    pre-activations then pass through an affine map. `dead` units per domain,
    chosen separately, never fire."""
    rng = np.random.default_rng(seed)
    centers = 2.0 * rng.standard_normal((classes, latent))
    w = rng.standard_normal((latent, width)) / np.sqrt(latent)
    bias = rng.normal(0.0, 0.5, size=width)
    shift = np.eye(width) + 0.2 * rng.standard_normal((width, width)) / np.sqrt(width)
    offset = 0.5 * rng.standard_normal(width)
    domains = []
    for is_target in (False, True):
        labels = rng.integers(0, classes, size=rows)
        z = centers[labels] + rng.standard_normal((rows, latent))
        pre = z @ w + bias + 0.1 * rng.standard_normal((rows, width))
        if is_target:
            pre = pre @ shift + offset
        x = np.maximum(pre, 0.0)
        x[:, rng.choice(width, size=dead, replace=False)] = 0.0
        domains.append((x, labels))
    return domains


def write_csv(path, x, labels):
    """Rows of floats that parse back exactly, then the integer label."""
    np.savetxt(path, np.column_stack([x, labels]), delimiter=",",
               fmt=["%.17g"] * x.shape[1] + ["%d"])


class FeatureAlign(Workload):
    """The `logcoral losses` path on extracted features: both covariances,
    then CORAL, Log-CORAL (epsilon from default_epsilon) and mean losses,
    all with gradients."""

    name = "feature_align"

    def __init__(self, seed: int, workdir: str, rows: int = 2048, width: int = 256, dead: int = 16):
        super().__init__(reference.wide_kernel)
        self.seed, self.workdir = seed, workdir
        self.rows, self.width, self.dead = rows, width, dead
        self.useful_width = width
        self.ingest_s = []

    def setup(self):
        (xs, ys), (xt, yt) = make_features(self.seed, self.rows, self.width, self.dead)
        paths = [os.path.join(self.workdir, f"{n}.csv") for n in ("source", "target")]
        write_csv(paths[0], xs, ys)
        write_csv(paths[1], xt, yt)
        self.csv_bytes = sum(os.path.getsize(p) for p in paths)
        t0 = perf_counter()
        self.source = data.load_csv(paths[0], has_labels=True)
        self.target = data.load_csv(paths[1], has_labels=True)
        self.ingest_s.append(perf_counter() - t0)
        if not all(np.array_equal(a, b) for a, b in (
                (self.source.data, xs), (self.source.labels, ys),
                (self.target.data, xt), (self.target.labels, yt))):
            self.setup_failed += 1
        self.expected = oracle.losses(xs, xt)
        for _ in range(WARMUP_OPS):
            self.op()

    def op(self):
        cov_s = stats.batch_covariance(self.source)
        cov_t = stats.batch_covariance(self.target)
        eps = max(linalg.default_epsilon(cov_s), linalg.default_epsilon(cov_t))
        return (cov_s, cov_t, eps,
                {"coral": losses.coral_loss(cov_s, cov_t),
                 "logcoral": losses.logcoral_loss(cov_s, cov_t, epsilon=eps),
                 "mean": losses.mean_loss(stats.batch_mean(self.source), stats.batch_mean(self.target))})

    def check(self, out, block):
        _, _, eps, bundles = out
        if not np.isclose(eps, self.expected["epsilon"], rtol=VALUE_RTOL, atol=0.0):
            block.fail(f"epsilon {eps!r} != oracle {self.expected['epsilon']!r}")
        for name, b in bundles.items():
            want = self.expected[name]
            if not np.isclose(b.value, want, rtol=VALUE_RTOL, atol=0.0):
                block.fail(f"{name} loss {b.value!r} != oracle {want!r}")
            elif not (oracle.symmetric_and_finite(b.grad_source)
                      and oracle.symmetric_and_finite(b.grad_target)):
                block.fail(f"{name} gradient is not finite and symmetric")

    def grad_accuracy(self):
        """Log-CORAL gradient error on the first operation's inputs."""
        cov_s, cov_t, eps, bundles = self.op()
        return oracle.grad_rel_err(bundles["logcoral"], np.asarray(cov_s.data),
                                   np.asarray(cov_t.data), eps)


class GradcheckSweep(Workload):
    """`run_gradcheck(dims=(2, 5, 16), seeds=[s])`, one seed per operation,
    over the seeds 0-99 of acceptance criterion 1's sweep in turn, starting
    at the benchmark's seed."""

    name = "gradcheck_sweep"
    DIMS = (2, 5, 16)
    SEEDS = 100

    def __init__(self, seed: int, workdir: str):
        super().__init__()
        self.seed = seed
        self.next_seed = seed

    def setup(self):
        for i in range(WARMUP_OPS):
            gradcheck.run_gradcheck(dims=self.DIMS, seeds=[(self.seed - 1 - i) % self.SEEDS])

    def op(self):
        s = self.next_seed % self.SEEDS
        self.next_seed += 1
        return s, gradcheck.run_gradcheck(dims=self.DIMS, seeds=[s])

    def check(self, out, block):
        seed, result = out
        if not result.passed:
            block.fail(f"gradcheck seed {seed} failed: {result.errors}")

    def grad_accuracy(self):
        """Log-CORAL gradient error on a well-separated 16x16 pair, the regime
        the gradient check draws from; no epsilon floor."""
        rng = np.random.default_rng(self.seed)
        cs, ct = gradcheck.spd_with_gaps(16, rng), gradcheck.spd_with_gaps(16, rng)
        bundle = losses.logcoral_loss(cs, ct)
        return oracle.grad_rel_err(bundle, np.asarray(cs.data), np.asarray(ct.data), 0.0)


WORKLOADS = {w.name: w for w in (TrainDefault, FeatureAlign, GradcheckSweep)}
