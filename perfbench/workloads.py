"""The three benchmark workloads, each driving paczero's public Python API
the way its command line does.

A workload object does its set-up when constructed (task and input
generation from the workload seed), then runs op ``i`` on request. ``op``
is the timed call and nothing else; ``check`` verifies its output and
returns the canonical transcript digest (or ``None`` when the op exposes no
transcript) together with the transcript steps it completed.
``reference`` repeats the pinned op for the default workload seed, whose
digests are recorded in ``pins.json``.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from paczero import accounting, adversary, engine, harness
from paczero.engine import TrainConfig
from paczero.harness import ExperimentConfig
from paczero.mechanism import MechanismSpec
from paczero.tasks import BlobsTask

import tracing

DEFAULT_SEED = 0
MI_TOTAL = 0.33
ATTACK_TRIALS = 100

# Layers every op of a workload calls; a traced run that records zero calls
# on any of them fails.
TRAIN_AND_RELEASE = {
    "engine.train",
    "tasks.per_sample_losses",
    "tasks.eval_metric",
    "rng.direction",
    "mechanism.build_balanced_design",
    "mechanism.ReleaseMechanism.step",
    "mechanism.subset_signs",
    "mechanism.agreement_probability",
    "mechanism.Posterior.updated_by_observation",
    "binary_channel.invert_channel_mi",
    "binary_channel.channel_mi.inversion",
}
REPLAY = {
    "adversary.replay_posterior",
    "rng.direction",
    "tasks.per_sample_losses",
    "mechanism.subset_signs",
    "mechanism.Posterior.updated_by_observation",
}


class CheckFailed(Exception):
    """An op returned an output that is not correct."""


def op_seed(seed: int, i: int) -> int:
    """The seed of op i, drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def digest_lines(lines: list[str]) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def check_round_trip(path: Path, lines: list[str]) -> None:
    """The file holds exactly the canonical lines, and loading it gives
    them back unchanged."""
    text = "\n".join(lines) + "\n"
    if path.read_bytes() != text.encode():
        raise CheckFailed(f"{path.name}: written bytes differ from the canonical lines")
    if harness.transcript_lines(harness.load_transcript(path)) != lines:
        raise CheckFailed(f"{path.name}: transcript does not round-trip")


@dataclass
class OpOutcome:
    steps: int
    digest: str | None
    successes: int | None = None


class TrainM128:
    """``paczero run`` for one seed: train xor_mlp, validate, write artifacts."""

    name = "train_m128"
    nominal_op_s = 0.9
    required_layers = TRAIN_AND_RELEASE | {
        "harness.run_experiment",
        "harness.write_transcript",
        "accounting.validate_transcript",
        "binary_channel.channel_mi.validator",
    }

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self.config = ExperimentConfig.from_dict({
            "task": {"name": "xor_mlp", "n_records": 128},
            "mechanism": {
                "variant": "paczero_mi", "mi_total": MI_TOTAL,
                "n_subsets": 128, "clip": 1.0,
            },
            "train": {"steps": 500},
            "label": self.name,
        })
        self.seed = seed

    def op(self, i: int):
        out = self.work_dir / f"op{i}"
        config = replace(self.config, seeds=(op_seed(self.seed, i),))
        return harness.run_experiment(config, out_dir=out), out

    def check(self, i: int, output) -> OpOutcome:
        summary, out = output
        try:
            (row,), (result,) = summary.rows, summary.results
            if row.validation is None or not row.validation.ok:
                raise CheckFailed(f"validation failed: {row.validation}")
            seed_dir = out / f"seed_{row.seed}"
            for artifact in ("transcript.jsonl", "secret.json", "metrics.json", "validation.json"):
                if not (seed_dir / artifact).is_file():
                    raise CheckFailed(f"missing artifact {artifact}")
            lines = harness.transcript_lines(result.transcript)
            check_round_trip(seed_dir / "transcript.jsonl", lines)
            return OpOutcome(steps=result.transcript.header.t_total, digest=digest_lines(lines))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def reference(self) -> dict:
        ref = TrainM128(DEFAULT_SEED, self.work_dir)
        return {"digest": ref.check(0, ref.op(0)).digest}


class AttackM8:
    """``paczero attack`` at the criterion-7 setup: 100 Monte-Carlo trials
    of train, replay and attack on blobs with eight candidate subsets."""

    name = "attack_m8"
    nominal_op_s = 2.4
    required_layers = TRAIN_AND_RELEASE | REPLAY | {"adversary.empirical_mia_experiment"}
    steps = 50

    def __init__(self, seed: int, work_dir: Path):
        self.task = BlobsTask(n_records=64, seed=7)
        self.spec = MechanismSpec(
            variant="paczero_mi", mi_total=MI_TOTAL, n_subsets=8, clip=1.0
        )
        self.train_config = TrainConfig(
            steps=self.steps, learning_rate=0.05, smoothing=1e-3, dev_eval_interval=50
        )
        self.seed = seed

    def op(self, i: int):
        return adversary.empirical_mia_experiment(
            self.task, self.spec, self.train_config, trials=ATTACK_TRIALS,
            seed=op_seed(self.seed, i),
        )

    def check(self, i: int, result, trained=None) -> OpOutcome:
        """``trained`` holds the train results captured during the op, when
        the caller captured them; the digest covers their transcripts."""
        if result.trials != ATTACK_TRIALS or not 0 <= result.successes <= ATTACK_TRIALS:
            raise CheckFailed(f"malformed attack result {result}")
        if not result.sound():
            raise CheckFailed(
                f"attack rate {result.empirical_rate} beats the bound {result.bound} + 3 SE"
            )
        digest = None
        if trained is not None:
            if len(trained) != ATTACK_TRIALS:
                raise CheckFailed(f"captured {len(trained)} training runs, expected {ATTACK_TRIALS}")
            digest = digest_lines(
                [line for r in trained for line in harness.transcript_lines(r.transcript)]
            )
        # every trial trains T steps and replays them
        return OpOutcome(
            steps=2 * self.steps * result.trials, digest=digest, successes=result.successes
        )

    def captured_op(self, i: int) -> tuple[object, list]:
        """The op with every ``engine.train`` result captured."""
        trained: list = []
        patcher = tracing.capture_results("paczero.engine", "train", trained)
        try:
            return self.op(i), trained
        finally:
            patcher.restore()

    def reference(self) -> dict:
        ref = AttackM8(DEFAULT_SEED, None)
        result, trained = ref.captured_op(0)
        outcome = ref.check(0, result, trained)
        return {"digest": outcome.digest, "successes": outcome.successes}


class AuditM128:
    """``paczero validate`` plus the posterior replay, on a transcript that
    set-up trains and writes from the workload seed."""

    name = "audit_m128"
    nominal_op_s = 1.4
    required_layers = REPLAY | {
        "harness.load_transcript",
        "harness.load_design",
        "mechanism.build_balanced_design",
        "accounting.validate_transcript",
        "binary_channel.channel_mi.validator",
    }
    steps = 2000

    def __init__(self, seed: int, work_dir: Path):
        task = BlobsTask(n_records=128)
        spec = MechanismSpec(
            variant="paczero_mi", mi_total=MI_TOTAL, n_subsets=128, clip=1.0
        )
        config = TrainConfig(steps=self.steps, seed=op_seed(seed, 0))
        result = engine.train(task, config, spec)
        self.path = work_dir / f"{self.name}-{seed}.jsonl"
        harness.write_transcript(self.path, result.transcript)
        self.final_posterior = result.final_posterior
        self.lines = harness.transcript_lines(result.transcript)

    def op(self, i: int):
        transcript = harness.load_transcript(self.path)
        design = harness.load_design(transcript)
        report = accounting.validate_transcript(transcript)
        posterior = adversary.replay_posterior(transcript, design)
        return transcript, report, posterior

    def check(self, i: int, output) -> OpOutcome:
        transcript, report, posterior = output
        if not report.ok:
            raise CheckFailed(f"validation failed: {report}")
        lines = harness.transcript_lines(transcript)
        if lines != self.lines:
            raise CheckFailed("loaded transcript differs from the one written")
        check_round_trip(self.path, lines)
        if posterior.tobytes() != self.final_posterior.tobytes():
            raise CheckFailed("replayed posterior differs from the run's final posterior")
        return OpOutcome(steps=transcript.header.t_total, digest=digest_lines(lines))

    def reference(self) -> dict:
        ref = AuditM128(DEFAULT_SEED, self.path.parent)
        return {"digest": digest_lines(ref.lines)}


WORKLOADS = {w.name: w for w in (TrainM128, AttackM8, AuditM128)}
