"""Command-line interface.

Exit codes: 0 success; 2 for configuration or data problems (bad config
file, missing dataset, invalid flag combinations); 1 for runtime failures
(numeric errors, unexpected exceptions).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .config import GRID_AXES, ExperimentConfig
from .errors import ConfigError, DataError
from .harness import (export_embeddings, generate_corpus, run_ablation,
                      run_grid, run_kfold, run_training)


class _Commands(click.Group):
    """The one error boundary: exit 2 or 1 (above) with one `error:` line;
    click's own exceptions (usage errors, --help, aborts) pass through."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as err:  # noqa: BLE001 - CLI boundary
            click.echo(f"error: {err}", err=True)
            sys.exit(2 if isinstance(err, (ConfigError, DataError)) else 1)


@click.group(cls=_Commands)
@click.option("--config", "config_path", type=str, default=None,
              help="Path to an experiment config JSON file.")
@click.option("--seed", type=int, default=None,
              help="Override the config's training seed.")
@click.option("--out", "out_dir", type=str, default=None,
              help="Override the config's output directory.")
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="Worker processes for grid, k-fold and ablation cells, "
                   "for the batches of a train run's test evaluation, and "
                   "for export-embeddings batches [default: one per CPU "
                   "this process may use; 1 runs everything in this "
                   "process].")
@click.pass_context
def main(ctx: click.Context, config_path: str | None, seed: int | None,
         out_dir: str | None, workers: int | None) -> None:
    """Dual-stream self-augmentation trainer and experiment harness."""
    ctx.obj = {"config_path": config_path, "seed": seed,
               "out_dir": out_dir, "workers": workers}


def _load_config(ctx: click.Context) -> ExperimentConfig:
    path = ctx.obj["config_path"]
    if path is None:
        raise ConfigError("this command needs --config <file>")
    return ExperimentConfig.from_file(path).with_overrides(
        seed=ctx.obj["seed"], out_dir=ctx.obj["out_dir"])


@main.command()
@click.pass_context
def train(ctx: click.Context) -> None:
    """Run one training job and write its run directory."""
    summary = run_training(_load_config(ctx), workers=ctx.obj["workers"])
    click.echo(f"run written to {summary['run_dir']}: "
               f"best epoch {summary['best_epoch']}, "
               f"val F1 {summary['best_val_f1']:.4f}, "
               f"test F1 {summary['test']['macro']['f1']:.4f}")


@main.command()
@click.pass_context
def grid(ctx: click.Context) -> None:
    """Sweep the configured hyperparameter grid."""
    config = _load_config(ctx)
    summary = run_grid(config, workers=ctx.obj["workers"])
    click.echo(f"{summary['n_cells']} cells ({summary['n_failed']} failed) "
               f"written to {config.out_dir}")
    if summary["winner"] is not None:
        w = summary["winner"]
        # a grid without a dual section has only batch_size
        axes = " ".join(f"{axis}={w[axis]}" for axis in GRID_AXES
                        if axis in w)
        click.echo(f"winner: {axes} val F1 {w['best_val_f1']:.4f}")


@main.command()
@click.option("--folds", "-k", type=int, default=10, show_default=True,
              help="Number of cross-validation folds.")
@click.option("--val-fraction", type=float, default=0.2,
              show_default=True,
              help="Share of each fold's training part held out for "
                   "validation.")
@click.pass_context
def kfold(ctx: click.Context, folds: int, val_fraction: float) -> None:
    """Cross-validate: train once per held-out fold and aggregate."""
    config = _load_config(ctx)
    summary = run_kfold(config, folds, val_fraction,
                        workers=ctx.obj["workers"])
    f1 = summary["summary"]["test_f1"]
    click.echo(f"{folds} folds written to {config.out_dir}: "
               f"test F1 {f1['mean']:.4f} +/- {f1['std']:.4f}")


@main.command()
@click.pass_context
def ablate(ctx: click.Context) -> None:
    """Run baseline, sa_only, and proposed under shared seeds."""
    config = _load_config(ctx)
    summary = run_ablation(config, workers=ctx.obj["workers"])
    click.echo(f"ablation written to {config.out_dir}")
    for row in summary["rows"]:
        click.echo(f"  {row['row']:<10} test F1 {row['test_f1']:.4f}")


@main.command("export-embeddings")
@click.option("--checkpoint", required=True, type=str,
              help="Path to a checkpoint.bin from a training run.")
@click.option("--split", type=click.Choice(["train", "val", "test"]),
              default="test", show_default=True)
@click.option("--layer",
              type=click.Choice(["pooled_final", "tapped"]),
              default="pooled_final", show_default=True,
              help="pooled_final: what the classifier sees; tapped: the "
                   "pooled tap-layer state fed to the projection.")
@click.pass_context
def export_embeddings_cmd(ctx: click.Context, checkpoint: str,
                          split: str, layer: str) -> None:
    """Export per-example embeddings with PCA coordinates to CSV."""
    out_csv = Path(ctx.obj["out_dir"] or ".") / "embeddings.csv"
    n = export_embeddings(checkpoint, split, layer, out_csv,
                          workers=ctx.obj["workers"])
    click.echo(f"{n} rows written to {out_csv}")


@main.command("gen-synth")
@click.option("--spec", "spec_path", required=True, type=str,
              help="Path to a synthetic corpus spec JSON file.")
@click.pass_context
def gen_synth(ctx: click.Context, spec_path: str) -> None:
    """Generate a synthetic corpus (JSONL plus label-space file)."""
    seed = ctx.obj["seed"] if ctx.obj["seed"] is not None else 0
    out_path = Path(ctx.obj["out_dir"] or ".") / "corpus.jsonl"
    corpus, space = generate_corpus(spec_path, seed, out_path)
    click.echo(f"corpus written to {corpus}, labels to {space}")


if __name__ == "__main__":
    main()
