"""Acceptance criteria, one test per criterion. Each prints a PASS/FAIL line
(run with -s to see them live). The two end-to-end criteria share one set of
cached training runs."""
import numpy as np
import pytest

from logcoral.cli import main
from logcoral.gradcheck import run_gradcheck
from logcoral.linalg import SymmetricMatrix, matrix_exp, matrix_log, regularize_psd, sym_eig, sym_part
from logcoral.losses import coral_loss, logcoral_loss, mean_loss
from logcoral.stats import FeatureBatch, SmoothedStats, batch_covariance, update_smoothed
from logcoral.training import ABLATION_CONFIGS, RunConfig, default_dataset, train
from logcoral.network import evaluate

SEEDS = range(5)
# reference window for "net change over training": after the moving-average
# warmup and the early classification transient shared by every configuration
REF_SLICE = slice(200, 220)
END_SLICE = slice(-20, None)


def report(criterion, passed, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def benchmark_runs():
    """Final target accuracy and metric records for every configuration the
    end-to-end criteria need, over the shared seeds."""
    configs = {
        "baseline": ABLATION_CONFIGS["baseline"],
        "coral": ABLATION_CONFIGS["coral"],
        "logcoral": ABLATION_CONFIGS["logcoral"],
        "mean": ABLATION_CONFIGS["mean"],
        "logcoral+mean": ABLATION_CONFIGS["logcoral+mean"],
    }
    runs = {}
    for name, weights in configs.items():
        per_seed = []
        for seed in SEEDS:
            cfg = RunConfig(seed=seed, weights=weights)
            dataset = default_dataset(cfg)
            state, records = train(cfg, dataset)
            per_seed.append({"acc": evaluate(state.model, dataset.target), "records": records})
        runs[name] = per_seed
    return runs


def median_acc(runs, name):
    return float(np.median([r["acc"] for r in runs[name]]))


def median_rel_change(runs, name, key):
    changes = []
    for r in runs[name]:
        start = float(np.median([rec[key] for rec in r["records"][REF_SLICE]]))
        end = float(np.median([rec[key] for rec in r["records"][END_SLICE]]))
        changes.append((end - start) / start)
    return float(np.median(changes))


def test_criterion_1_gradient_oracle_suite():
    result = run_gradcheck(dims=(2, 5, 16), seeds=range(100), n_dirs=2)
    detail = ", ".join(f"{k}={v:.2e}" for k, v in result.errors.items())
    report(1, result.passed, f"max relative FD errors: {detail}")


def test_criterion_2_spectral_identities():
    rng = np.random.default_rng(0)
    ok, detail = True, []
    for d in (2, 5, 16, 64):
        a = sym_part(rng.standard_normal((d, d)))
        a = SymmetricMatrix(a * (2.0 / max(np.abs(np.linalg.eigvalsh(a)))))
        rt = np.linalg.norm(matrix_log(matrix_exp(a)).data - a.data) / max(np.linalg.norm(a.data), 1.0)
        m = SymmetricMatrix(sym_part(rng.standard_normal((d, d))))
        pair = sym_eig(m)
        rec = np.linalg.norm(pair.reconstruct() - m.data) / np.linalg.norm(m.data)
        shift = np.max(np.abs(sym_eig(regularize_psd(m, 0.25)).values - pair.values - 0.25))
        ok &= rt <= 1e-8 and rec <= 1e-8 and shift <= 1e-10
        detail.append(f"d={d}: roundtrip {rt:.1e}, reconstruct {rec:.1e}, shift {shift:.1e}")
    report(2, ok, "; ".join(detail))


def test_criterion_3_zero_distance_axioms():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    c = SymmetricMatrix(sym_part(a @ a.T + 6 * np.eye(6)))
    c2 = SymmetricMatrix(sym_part(a @ a.T + 5 * np.eye(6)))
    v = rng.standard_normal(6)
    ok = True
    for bundle in (coral_loss(c, c), logcoral_loss(c, c), mean_loss(v, v)):
        ok &= bundle.value == 0.0
        ok &= np.all(bundle.grad_source == 0.0) and np.all(bundle.grad_target == 0.0)
    # swap symmetry: value unchanged, gradients exchange (and negate where
    # the gradient depends only on the difference)
    for fn, x, y in ((coral_loss, c, c2), (logcoral_loss, c, c2),
                     (mean_loss, v, rng.standard_normal(6))):
        f, b = fn(x, y), fn(y, x)
        ok &= abs(f.value - b.value) <= 1e-12
        ok &= np.max(np.abs(f.grad_source - b.grad_target)) <= 1e-12
        ok &= np.max(np.abs(f.grad_target - b.grad_source)) <= 1e-12
    report(3, ok)


def test_criterion_4_covariance_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n, d = int(rng.integers(2, 20)), int(rng.integers(1, 8))
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
        mu = x.mean(axis=0)
        oracle = sum(np.outer(r - mu, r - mu) for r in x) / (n - 1)
        got = batch_covariance(FeatureBatch(x)).data
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    report(4, worst <= 1e-10, f"worst abs gap {worst:.2e}")


@pytest.mark.slow
def test_criterion_5_end_to_end_adaptation_gain(benchmark_runs):
    base = median_acc(benchmark_runs, "baseline")
    combo = median_acc(benchmark_runs, "logcoral+mean")
    cor = median_acc(benchmark_runs, "coral")
    log = median_acc(benchmark_runs, "logcoral")
    ok = (combo - base) >= 0.03 and log >= cor - 0.005
    report(5, ok, f"baseline {base:.3f}, coral {cor:.3f}, logcoral {log:.3f}, "
                  f"logcoral+mean {combo:.3f}")


@pytest.mark.slow
def test_criterion_6_weak_correlation(benchmark_runs):
    mean_active = median_rel_change(benchmark_runs, "mean", "loss_mean")
    mean_passive = median_rel_change(benchmark_runs, "mean", "loss_logcoral")
    log_active = median_rel_change(benchmark_runs, "logcoral", "loss_logcoral")
    log_passive = median_rel_change(benchmark_runs, "logcoral", "loss_mean")
    both_mean = median_rel_change(benchmark_runs, "logcoral+mean", "loss_mean")
    both_log = median_rel_change(benchmark_runs, "logcoral+mean", "loss_logcoral")
    ok = (mean_active <= -0.50 and abs(mean_passive) < 0.25
          and log_active <= -0.50 and log_passive > -0.25
          and both_mean <= -0.50 and both_log <= -0.50)
    report(6, ok, f"mean-only: active {mean_active:+.2f} passive {mean_passive:+.2f}; "
                  f"logcoral-only: active {log_active:+.2f} passive {log_passive:+.2f}; "
                  f"both: mean {both_mean:+.2f} logcoral {both_log:+.2f}")


@pytest.mark.slow
def test_criterion_7_determinism_and_resume(tmp_path):
    args = ["train", "--steps", "50", "--batch", "32", "--seed", "9"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples_per_class=40\n")
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(args + ["--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(args + ["--config", str(cfg), "--out", str(out_b)]) == 0
    identical = (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()

    # interrupted at step 25, then resumed to 50; the combined log must be
    # byte-identical to the uninterrupted one
    part = ["train", "--batch", "32", "--seed", "9", "--config", str(cfg), "--out", str(out_c)]
    assert main(part + ["--steps", "25"]) == 0
    assert main(part + ["--steps", "50", "--resume", str(out_c / "checkpoint.npz")]) == 0
    resumed = (out_c / "metrics.jsonl").read_bytes() == (out_a / "metrics.jsonl").read_bytes()
    report(7, identical and resumed,
           f"repeat-run identical: {identical}, resume bit-exact: {resumed}")


def test_criterion_8_moving_average_contract():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    target_cov = SymmetricMatrix(sym_part(a @ a.T))
    target_mean = rng.standard_normal(5)
    s = update_smoothed(SmoothedStats(), SymmetricMatrix(np.eye(5)), np.zeros(5))
    gap_cov = np.linalg.norm(s.cov.data - target_cov.data)
    gap_mean = np.linalg.norm(s.mean - target_mean)
    worst = 0.0
    for _ in range(50):
        s = update_smoothed(s, target_cov, target_mean)
        new_cov = np.linalg.norm(s.cov.data - target_cov.data)
        new_mean = np.linalg.norm(s.mean - target_mean)
        worst = max(worst, abs(new_cov / gap_cov - 0.9), abs(new_mean / gap_mean - 0.9))
        gap_cov, gap_mean = new_cov, new_mean
    report(8, worst <= 1e-12, f"worst per-step ratio deviation {worst:.2e}")
