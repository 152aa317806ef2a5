"""Experiment harness: configs, run artifacts, sweeps, and bound tables.

A run is fully described by one nested config (task, mechanism, train,
seeds).  Artifacts per seed are a line-delimited JSON transcript (header,
one object per released bit, summary trailer), the secret index in a
separate file, and a metrics file; each experiment folder gets a summary
CSV with fixed columns and a pooled mean/std row.  Identical config and
seed reproduce the transcript byte for byte; the design is regenerated
from its recorded seed on load and checked against a content hash.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import operator
import os
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .accounting import (
    ValidationReport,
    dp_eps_to_mia_bound,
    matched_mi_for_dp,
    mia_posterior_bound,
    validate_transcript,
)
from .engine import (
    TrainConfig,
    Transcript,
    TranscriptHeader,
    TrainResult,
    public_trajectory,
    train,
)
from .mechanism import (
    BRANCH_COIN,
    BRANCH_DISAGREEMENT,
    BRANCH_SURROGATE,
    BRANCH_UNANIMITY,
    MechanismSpec,
    StepRecord,
    SubsetDesign,
    build_balanced_design,
)
from .tasks import LossTask, make_task

__all__ = [
    "ConfigError",
    "SchemaError",
    "ExperimentConfig",
    "write_transcript",
    "load_transcript",
    "load_design",
    "run_experiment",
    "ExperimentSummary",
    "sweep_mi_plateau",
    "sweep_t_ladder",
    "sweep_decomposition",
    "sweep_k",
    "report_bounds",
    "output_root",
]

OUTPUT_ROOT_ENV = "PACZERO_OUTPUT_ROOT"
FORMAT_VERSION = 1

SUMMARY_COLUMNS = (
    "variant", "budget", "T", "seed", "dev", "test", "f", "cum_mi", "wallclock"
)

# a release line's fields (building the Transcript checks their kinds), and the
# JSON kinds of the header values a TranscriptHeader is built from
_RELEASE_FIELDS = dict.fromkeys(StepRecord._fields + ("type",))
_HEADER_KINDS = dict(task_name=str, task_params=dict, train=dict, mechanism=dict,
                     design_seed=int, design_hash=str)


class ConfigError(ValueError):
    """Experiment config failed schema validation."""


class SchemaError(ValueError):
    """Transcript file does not match the documented schema."""


def output_root(explicit: str | None = None) -> Path:
    """Resolve the artifact root: explicit flag, then the environment
    override, then ./runs."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(env) if env else Path("runs")


# ---------------------------------------------------------------------------
# experiment config


@dataclass(frozen=True)
class ExperimentConfig:
    task: dict
    mechanism: MechanismSpec
    train: TrainConfig
    seeds: tuple[int, ...] = (0, 1, 2)
    label: str = "experiment"

    def make_task(self) -> LossTask:
        return make_task(**self.task)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        task = raw.get("task")
        if not isinstance(task, dict) or "name" not in task:
            raise ConfigError("task: must be a mapping with a 'name' key")
        try:  # each part's fault is named after the part
            part = "task"
            make_task(**task)
            part = "mechanism"
            mechanism = mechanism_from_dict(raw.get("mechanism") or {})
            part = "train"
            train_cfg = TrainConfig(**(raw.get("train") or {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{part}: {exc}") from exc
        seeds = raw.get("seeds", (0, 1, 2))
        if isinstance(seeds, int):
            seeds = (seeds,)
        if not (
            isinstance(seeds, (list, tuple))
            and seeds
            and all(type(s) is int and s >= 0 for s in seeds)
        ):
            raise ConfigError(
                "seeds: must be a nonnegative integer or a nonempty list of them"
            )
        if len(set(seeds)) < len(seeds):  # each seed names its own artifact directory
            raise ConfigError(f"seeds: must be distinct, got {list(seeds)}")
        label = raw.get("label", "experiment")
        if not isinstance(label, str) or label in ("", ".", "..") or "/" in label or "\\" in label:
            # it names a directory under the artifact root, never above it
            raise ConfigError("label: must be one path component, not '.' or '..'")
        return cls(
            task=task, mechanism=mechanism, train=train_cfg, seeds=tuple(seeds), label=label
        )

    @classmethod
    def from_yaml(
        cls, path: str | Path, overrides: list[str] | None = None
    ) -> "ExperimentConfig":
        raw = _parse_yaml(Path(path).read_text(encoding="utf-8"), str(path))
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form key.path=value")
            dotted, value = item.split("=", 1)
            _set_dotted(raw, dotted.strip(), _parse_yaml(value, f"override {item!r}"))
        return cls.from_dict(raw)


def _parse_yaml(text: str, source: str):
    # imported here, the one place that reads YAML, so that importing
    # paczero does not pay for the parser
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: invalid YAML: {exc}") from exc


def _set_dotted(tree: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {key!r} in override {dotted!r}")
    node[keys[-1]] = value


# ---------------------------------------------------------------------------
# transcript persistence


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


# A release line is one template, its keys in sorted order and its type written in,
# filled with a record's values in ``StepRecord``'s field order, each spelled as
# ``_dump_line`` (``json``) spells it: a float by float.__repr__, None as null, an
# int by its repr (``Transcript`` admits no other int type) and a branch name
# quoted in advance.  So the line is ``_dump_line``'s text of the record's dict.
_RELEASE_KEYS = tuple(sorted(_RELEASE_FIELDS))
_RELEASE_LINE = "{{" + ",".join(
    f'"{key}":' + ('"release"' if key == "type" else f"{{{StepRecord._fields.index(key)}}}")
    for key in _RELEASE_KEYS
) + "}}"
_QUOTED_BRANCHES = {
    branch: json.dumps(branch)
    for branch in (BRANCH_UNANIMITY, BRANCH_COIN, BRANCH_DISAGREEMENT, BRANCH_SURROGATE)
}
# Keys and branch names are quoted, so an unquoted value starts right after a
# colon; float.__repr__ spells a value that is not finite inf, -inf or nan.
_NON_FINITE = re.compile(r":(-?inf|nan)[,}]")


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(_dump_line(obj) + "\n", encoding="utf-8")


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _mechanism_dict(spec: MechanismSpec) -> dict:
    return vars(spec) | {"clip": "inf" if math.isinf(spec.clip) else spec.clip}


def mechanism_from_dict(raw: dict) -> MechanismSpec:
    """Inverse of the header encoding: a spec from its field mapping, with
    an unbounded clip spelled "inf" (or YAML's ".inf")."""
    raw = dict(raw)
    if raw.get("clip") in ("inf", ".inf"):
        raw["clip"] = math.inf
    return MechanismSpec(**raw)


def _header_line(header: TranscriptHeader) -> dict:
    """The header line's object: the header, format version and six config copies,
    field by field (``dataclasses.asdict``'s deep copy would double the load's check)."""
    spec, config = header.mechanism, header.train
    return {
        "type": "header", "format_version": FORMAT_VERSION, "task_name": header.task_name,
        "task_params": header.task_params, "train": dict(vars(config)),
        "mechanism": _mechanism_dict(spec), "design_seed": header.design_seed,
        "design_hash": header.design_hash, "variant": spec.variant, "k": spec.k,
        "run_seed": config.seed, "n_subsets": spec.resolved_subsets(), "t_total": config.steps,
        "n_records": header.task_params.get("n_records"),
    }


def _summary_line(transcript: Transcript) -> dict:
    """The summary line's object: dev evaluations and the records' running totals."""
    return {
        "type": "summary", "dev_evals": [[t, m] for t, m in transcript.dev_evals],
        "cum_mi": transcript.cum_mi, "unanimity_bits": transcript.unanimity_bits,
        "total_bits": transcript.total_bits,
    }


def _release_lines(records) -> list[str]:
    """Each record's release line; a float that is not finite is a
    ValueError, as ``_dump_line`` (``allow_nan=False``) raises."""
    line, text, quoted = _RELEASE_LINE.format, float.__repr__, _QUOTED_BRANCHES
    lines = [
        line(t, slot, quoted[branch], "null" if q_plus is None else text(q_plus),
             "null" if sigma is None else text(sigma), text(y),
             "null" if y_tilde is None else text(y_tilde), text(beta_t), text(beta_used),
             text(cum_mi), count)
        for t, slot, branch, q_plus, sigma, y, y_tilde, beta_t, beta_used, cum_mi, count
        in records
    ]
    joined = "\n".join(lines)
    bad = _NON_FINITE.search(joined)
    if bad:
        n = joined.count("\n", 0, bad.start())
        raise ValueError(f"release record {n}: out of range float {bad[1]} is not JSON compliant")
    return lines


def transcript_lines(transcript: Transcript) -> list[str]:
    return [
        _dump_line(_header_line(transcript.header)), *_release_lines(transcript.records),
        _dump_line(_summary_line(transcript)),
    ]


def write_transcript(path: str | Path, transcript: Transcript) -> None:
    Path(path).write_text("\n".join(transcript_lines(transcript)) + "\n", encoding="utf-8")


# A release line's float fields (q_plus to cum_mi), its values in ``StepRecord``'s
# field order and its type; ``load_transcript`` decodes release lines a block at a time.
_FLOATS = slice(StepRecord._fields.index("q_plus"), StepRecord._fields.index("cum_mi") + 1)
_release_floats = operator.itemgetter(*StepRecord._fields[_FLOATS])
_record_values = operator.itemgetter(*StepRecord._fields)
_record_type = operator.itemgetter("type")
_BLOCK_LINES = 256


def _read_lines(path: str | Path) -> list[str]:
    """A file's lines as ``str.splitlines`` splits its UTF-8 text; a byte
    that is not UTF-8 is a SchemaError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the text before the fault decodes; "x" stands in for the fault on its line
        before = (data[:exc.start].decode("utf-8") + "x").splitlines()
        offset = len(before[-1].encode("utf-8")) - 1
        bad = " ".join(f"{byte:#04x}" for byte in data[exc.start:exc.end])
        raise SchemaError(
            f"line {len(before)}: not UTF-8 text: {exc.reason} at byte offset {offset} ({bad})"
        ) from None


def _parse_line(line: str, n: int) -> dict:
    """File line n's object; a decode fault names the line first."""
    try:
        obj = json.loads(line)
    except RecursionError as exc:
        raise SchemaError(f"line {n}: JSON line nested too deeply") from exc
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise SchemaError(f"line {n}: invalid JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"line {n}: every transcript line must be a JSON object")
    return obj


def _release_record(line: str, n: int) -> StepRecord:
    """File line n's record, its fault named: the line must decode to one
    release object with the release fields and finite floats."""
    obj = _parse_line(line, n)
    if obj.get("type") != "release":
        raise SchemaError(f"line {n}: expected a release record")
    if obj.keys() != _RELEASE_FIELDS.keys():
        _require_fields(obj, _RELEASE_FIELDS, f"line {n}")
    for value in _release_floats(obj):
        if type(value) is float and not math.isfinite(value):
            raise SchemaError(f"line {n}: non-finite number {value!r} in transcript")
    # positional: passing obj as keywords costs about 1.5 us more a line;
    # the Transcript checks shapes
    return StepRecord(*_record_values(obj))


def _decode_block(block: list[str]) -> list[StepRecord] | None:
    """The records of a block of release lines decoded as one JSON array, or
    None where that decode could differ from ``_release_record``'s, line by line.

    The lines are joined by ",\n": every line starts with "{" and ends with
    "}" when the text does and each join reads "},\n{".  No string holds a
    newline, an object's comma is followed by a key, and with no "[" in the
    text no value is an array, so each join separates two items of the
    array, and a decode to one item per line gives each line its own object.
    The objects are then held to ``_release_record``'s checks at once: twelve
    keys, the eleven fields and the type among them; the type "release"; and
    a finite sum of the float fields' truthy values, which a NaN, an infinity
    or an overflowing literal makes non-finite (a sum that overflows from
    finite values only sends the block line by line)."""
    body = ",\n".join(block)
    if not (body[:1] == "{" and body[-1:] == "}" and "[" not in body
            and body.count("},\n{") == len(block) - 1):
        return None
    try:
        objs = json.loads("[" + body + "]")
        rows = list(map(_record_values, objs))
        types = list(map(_record_type, objs))
        floats = list(zip(*rows))[_FLOATS]
        total = sum(filter(None, itertools.chain.from_iterable(floats)))
        finite = math.isfinite(total)
    # bad JSON; a missing key; an item not an object, or text or an object
    # summed; an int too large for a float
    except (ValueError, RecursionError, KeyError, TypeError, OverflowError):
        return None
    if not (finite and len(objs) == len(block) and types.count("release") == len(objs)
            and set(map(len, objs)) == {len(_RELEASE_FIELDS)}):
        return None
    return list(map(StepRecord._make, rows))


def _canonical(obj: dict, where: str) -> str:
    """A decoded line's canonical text.  A NaN or Infinity token, or an
    overflowing literal such as 1e999, decodes to a non-finite float, which
    ``_dump_line`` refuses."""
    try:
        return _dump_line(obj)
    except ValueError as exc:
        raise SchemaError(f"{where}: non-finite number in transcript") from exc


def _require_fields(obj: dict, fields: dict, where: str) -> None:
    got, expected = set(obj), set(fields)
    if got != expected:
        extra, missing = sorted(got - expected), sorted(expected - got)
        problems = []
        if extra:
            problems.append(f"unknown fields {extra}")
        if missing:
            problems.append(f"missing fields {missing}")
        raise SchemaError(f"{where}: " + "; ".join(problems))


def _require_written(obj: dict, line: str | None, written: dict, where: str) -> None:
    """A decoded line ``obj`` (file text ``line``) must be the ``written``
    one: the same keys at every depth, each value with the same canonical
    JSON text, so 1, 1.0 and true differ.  The file text, then the canonical
    text, is compared whole; only a mismatch is walked, to name its first key."""
    text = _canonical(written, where)  # non-finite only where obj holds one
    if line == text or _canonical(obj, where) == text:
        return
    _require_fields(obj, written, where)
    for key in sorted(written):
        got, want = obj[key], written[key]
        if type(got) is dict and type(want) is dict:
            _require_written(got, None, want, f"{where}: {key}")
        elif _dump_line(got) != _dump_line(want):
            raise SchemaError(
                f"{where}: {key} {got!r} disagrees with the {want!r} "
                "that the configs and records derive"
            )


def load_transcript(path: str | Path) -> Transcript:
    """Parse a transcript file, rejecting any line that deviates from the
    documented schema.  The header and summary lines must each be what the
    writer builds (``_header_line``, ``_summary_line``) for the configs and
    records they decode to, ``task_params`` as the task keeps them, in
    canonical JSON text: a NaN or infinity, a key missing or unknown at any
    depth, a copy that disagrees or a value spelled otherwise fails.  Release
    lines are held to their field set and finite numbers, and the records'
    layout and shapes are checked as the ``Transcript`` is built.  The file
    is read as UTF-8 text, and a byte that is not UTF-8 fails naming its
    line.  Release lines are decoded ``_BLOCK_LINES`` at a time as one JSON
    array when ``_decode_block`` finds that decode exact and every record
    sound; any other block is read line by line (``_release_record``), so a
    fault of any line reads ``line N:``, its file line, then the decoder's
    message or the failed check.  Checked release fields build each
    ``StepRecord`` positionally."""
    lines = _read_lines(path)
    if not lines:
        raise SchemaError("empty transcript file")
    header_obj = _parse_line(lines[0], 1)
    if header_obj.get("type") != "header":
        raise SchemaError("first line must be the header")
    _canonical(header_obj, "header")  # a non-finite number fails before the configs
    for key, kind in _HEADER_KINDS.items():
        if type(header_obj.get(key)) is not kind:
            raise SchemaError(f"header: field {key!r} must be a {kind.__name__}")
    try:
        header = TranscriptHeader(
            task_name=header_obj["task_name"], task_params=header_obj["task_params"],
            train=TrainConfig(**header_obj["train"]),
            mechanism=mechanism_from_dict(header_obj["mechanism"]),
            design_seed=header_obj["design_seed"], design_hash=header_obj["design_hash"],
        )
        task_params = header.task.spec_dict()  # built here: a value the task cannot take fails
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"header: {exc}") from exc
    written = _header_line(replace(header, task_params=task_params))
    _require_written(header_obj, lines[0], written, "header")

    summary_obj = _parse_line(lines[-1], len(lines))
    if summary_obj.get("type") != "summary":
        raise SchemaError("last line must be the summary")
    dev_evals = summary_obj.get("dev_evals")
    if type(dev_evals) is not list or not all(
        type(e) is list and list(map(type, e)) == [int, float] for e in dev_evals
    ):
        raise SchemaError("summary: dev_evals must be [step, metric] pairs")

    records, release = [], lines[1:-1]
    for start in range(0, len(release), _BLOCK_LINES):
        block = release[start:start + _BLOCK_LINES]
        decoded = _decode_block(block)
        if decoded is None:
            decoded = [_release_record(line, n) for n, line in enumerate(block, start + 2)]
        records += decoded
    try:
        transcript = Transcript(header, records, [(t, m) for t, m in dev_evals])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    _require_written(summary_obj, lines[-1], _summary_line(transcript), "summary")
    return transcript


def load_design(transcript: Transcript) -> SubsetDesign:
    """Regenerate the public design from its recorded seed and verify the
    content hash recorded in the header."""
    header = transcript.header
    try:
        design = build_balanced_design(
            header.task_params["n_records"], header.mechanism.resolved_subsets(),
            header.design_seed,
        )
    except ValueError as exc:
        raise SchemaError(f"header: {exc}") from exc
    if design.content_hash() != header.design_hash:
        raise SchemaError("regenerated design does not match the recorded hash")
    return design


# ---------------------------------------------------------------------------
# runs and summaries


@dataclass
class RunRow:
    variant: str
    budget: float
    steps: int
    seed: int
    dev: float
    test: float
    free_fraction: float
    cum_mi: float
    wallclock: float
    validation: ValidationReport

    def csv_values(self) -> list:
        return [
            self.variant, _format_float(self.budget), self.steps, self.seed,
            _format_float(self.dev), _format_float(self.test),
            _format_float(self.free_fraction), _format_float(self.cum_mi),
            _format_float(self.wallclock),
        ]


def _format_float(x: float) -> str:
    return f"{x:.6g}"


@dataclass
class ExperimentSummary:
    config: ExperimentConfig
    rows: list[RunRow]
    results: list[TrainResult] = field(default_factory=list)

    def pooled(self, attr: str) -> tuple[float, float]:
        values = np.array([getattr(r, attr) for r in self.rows], dtype=float)
        sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        return float(np.mean(values)), sd

    def csv_text(self) -> str:
        pooled = [self.rows[0].variant, _format_float(self.rows[0].budget),
                  self.rows[0].steps, "pooled"]
        for attr in ("dev", "test", "free_fraction", "cum_mi", "wallclock"):
            mean, sd = self.pooled(attr)
            pooled.append(f"{mean:.6g}±{sd:.3g}")
        return _csv_text(SUMMARY_COLUMNS, [row.csv_values() for row in self.rows] + [pooled])

    def first_violation(self) -> str | None:
        for row in self.rows:
            if not row.validation.ok:
                return row.validation.message
        return None


def run_experiment(
    config: ExperimentConfig, out_dir: Path | None = None
) -> ExperimentSummary:
    """Train once per seed, evaluate, validate, and optionally persist."""
    task = config.make_task()
    rows: list[RunRow] = []
    results: list[TrainResult] = []
    for seed in config.seeds:
        cfg = replace(config.train, seed=seed)
        start = time.perf_counter()
        result = train(task, cfg, config.mechanism)
        wallclock = time.perf_counter() - start
        transcript = result.transcript
        report = validate_transcript(transcript)
        row = RunRow(
            variant=config.mechanism.variant,
            budget=config.mechanism.effective_budget(),
            steps=cfg.steps,
            seed=seed,
            dev=task.eval_metric(result.params, "dev"),
            test=task.eval_metric(result.params, "test"),
            free_fraction=transcript.free_fraction(),
            cum_mi=transcript.cum_mi,
            wallclock=wallclock,
            validation=report,
        )
        rows.append(row)
        results.append(result)
        if out_dir is not None:
            seed_dir = Path(out_dir) / f"seed_{seed}"
            seed_dir.mkdir(parents=True, exist_ok=True)
            write_transcript(seed_dir / "transcript.jsonl", transcript)
            _write_json(seed_dir / "secret.json", {"secret_index": result.secret_index})
            _write_json(
                seed_dir / "metrics.json",
                {
                    "dev": row.dev,
                    "test": row.test,
                    "free_fraction": row.free_fraction,
                    "cum_mi": row.cum_mi,
                    "dev_best_step": result.dev_best_step,
                    "validation_ok": report.ok,
                },
            )
            _write_json(seed_dir / "validation.json", dataclasses.asdict(report))
    summary = ExperimentSummary(config=config, rows=rows, results=results)
    if out_dir is not None:
        (Path(out_dir) / "summary.csv").write_text(summary.csv_text(), encoding="utf-8")
    return summary


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepResult:
    columns: tuple[str, ...]
    rows: list[list]
    notes: dict = field(default_factory=dict)
    # first validation violation among the sweep's runs
    violation: str | None = None
    # the summary lines the command prints after the CSV
    footer: tuple[str, ...] = ()

    def csv_text(self) -> str:
        return _csv_text(self.columns, self.rows)

    def save(self, out_dir: Path | None, filename: str) -> "SweepResult":
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            (Path(out_dir) / filename).write_text(self.csv_text(), encoding="utf-8")
        return self


def _require_distinct(labels: list, what: str, where: str) -> None:
    """One row (and note) per label: a label seen before is a ValueError."""
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"{what} {label} appears twice in the {where}")


# each mechanism field that one variant alone takes: that variant, and the
# value the field holds under every other variant
_VARIANT_OWNED = {"surrogate_mode": ("surrogate", None), "k": ("k_aggregate", 1)}


def _sweep(
    config: ExperimentConfig,
    label_column: str,
    runs: list[tuple[object, dict]],
    csv_name: str,
    out_dir: Path | None,
) -> SweepResult:
    """Run the experiment once per (label, mechanism fields), the fields
    naming the run's variant, and pool each run's seeds into one row;
    ``notes`` maps every label to its pooled metrics.  A run's spec is the config's with the
    label's fields set and the ``_VARIANT_OWNED`` fields its variant does not
    take reset, all built before anything trains; one that cannot be built
    is a ConfigError naming its label, and no run at all a ValueError.
    Every run is validated, so an overspent budget surfaces as a violation."""
    if not runs:
        raise ValueError(f"empty {label_column} list: a sweep needs at least one {label_column}")
    _require_distinct([label for label, _ in runs], label_column, "sweep")
    specs = []
    for label, fields in runs:
        reset = {n: v for n, (owner, v) in _VARIANT_OWNED.items() if owner != fields["variant"]}
        try:
            specs.append((label, replace(config.mechanism, **(reset | fields))))
        except ValueError as exc:
            raise ConfigError(f"{label_column} {label}: {exc}") from exc
    rows, notes, violation = [], {}, None
    for label, spec in specs:
        summary = run_experiment(replace(config, mechanism=spec), out_dir=None)
        dev, test, f = (
            summary.pooled(attr)[0] for attr in ("dev", "test", "free_fraction")
        )
        max_cum_mi = max(r.cum_mi for r in summary.rows)
        violation = violation or summary.first_violation()
        rows.append([label] + [_format_float(x) for x in (dev, test, f, max_cum_mi)])
        notes[label] = {"dev": dev, "test": test, "f": f, "max_cum_mi": max_cum_mi}
    return SweepResult(
        columns=(label_column, "dev", "test", "f", "max_cum_mi"),
        rows=rows, notes=notes, violation=violation,
    ).save(out_dir, csv_name)


def sweep_mi_plateau(
    config: ExperimentConfig,
    budgets: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1, 0.33, 0.68),
    out_dir: Path | None = None,
) -> SweepResult:
    """Same recipe across total budgets; reports per-budget pooled metrics
    and the spread (max minus min) of the pooled test metric."""
    runs = [(_format_float(b), {"variant": "paczero_mi", "mi_total": b}) for b in budgets]
    result = _sweep(config, "budget", runs, "sweep_mi.csv", out_dir)
    tests = [pooled["test"] for pooled in result.notes.values()]
    result.notes = {
        "test_spread": max(tests) - min(tests),
        "within_budget": all(
            result.notes[label]["max_cum_mi"] <= fields["mi_total"] for label, fields in runs
        ),
    }
    result.footer = (f"test-metric spread: {result.notes['test_spread']:.6g}",)
    return result


def sweep_t_ladder(
    config: ExperimentConfig,
    rungs: tuple[int, ...] = (250, 500, 1000),
    out_dir: Path | None = None,
) -> SweepResult:
    """One trajectory per seed out to max(rungs); dev/test evaluated at the
    parameters held at each rung (no checkpoint selection), as rebuilt from
    the run's transcript."""
    rungs = tuple(sorted(rungs))
    if not rungs:
        raise ValueError("empty rung list: a ladder needs at least one rung")
    if rungs[0] < 0:
        raise ValueError(f"rungs must be nonnegative step counts, got {rungs[0]}")
    if rungs[-1] < 1:  # the trajectory is as long as the largest rung
        raise ValueError(f"the largest rung must be at least 1 step, got rung {rungs[-1]}")
    _require_distinct(rungs, "rung", "ladder")
    per_rung: dict[int, list[tuple[float, float]]] = {r: [] for r in rungs}
    long_config = replace(config, train=replace(config.train, steps=rungs[-1]))
    summary = run_experiment(long_config, out_dir=None)
    task = long_config.make_task()
    for result in summary.results:
        thetas, _ = public_trajectory(result.transcript, task)
        for rung, pairs in per_rung.items():
            pairs.append((task.eval_metric(thetas[rung], "dev"),
                          task.eval_metric(thetas[rung], "test")))
    rows = []
    rung_test_means = {}
    for rung in rungs:
        pairs = np.array(per_rung[rung])
        rows.append([
            rung, _format_float(float(pairs[:, 0].mean())),
            _format_float(float(pairs[:, 1].mean())),
        ])
        rung_test_means[rung] = float(pairs[:, 1].mean())
    best_rung = max(rung_test_means, key=rung_test_means.get)
    drift = None
    if best_rung * 4 in rung_test_means:
        drift = rung_test_means[best_rung * 4] - rung_test_means[best_rung]
    return SweepResult(
        columns=("T", "dev", "test"),
        rows=rows,
        notes={
            "best_rung": best_rung,
            "drift_at_4x": drift,
            "test_means": rung_test_means,
        },
        violation=summary.first_violation(),
        footer=() if drift is None else (f"test drift at 4x best rung: {drift:+.6g}",),
    ).save(out_dir, "sweep_t.csv")


# the decomposition's rows: the surrogate release ladder, then both private variants
_DECOMP_RUNS = [
    (mode, {"variant": "surrogate", "surrogate_mode": mode})
    for mode in ("raw_full", "quant_full", "raw_half", "quant_half", "random_sign")
] + [(variant, {"variant": variant}) for variant in ("paczero_mi", "paczero_zpl")]


def sweep_decomposition(
    config: ExperimentConfig, out_dir: Path | None = None
) -> SweepResult:
    """Private variants against the non-private release ladder on the same
    task, seeds, and schedule; the paczero_mi row spends the config's
    ``mi_total``, which must be positive."""
    return _sweep(config, "release", _DECOMP_RUNS, "sweep_decomp.csv", out_dir)


def sweep_k(
    config: ExperimentConfig,
    ks: tuple[int, ...] = (1, 2, 4),
    out_dir: Path | None = None,
) -> SweepResult:
    """Directions-per-step ladder under a fixed total budget."""
    inner = (
        config.mechanism.inner_variant
        if config.mechanism.variant == "k_aggregate"
        else config.mechanism.variant
    )
    if inner not in ("paczero_mi", "paczero_zpl"):
        raise ConfigError("k sweep needs a private variant")
    runs = [(k, {"variant": "k_aggregate", "inner_variant": inner, "k": k}) for k in ks]
    return _sweep(config, "k", runs, "sweep_k.csv", out_dir)


# ---------------------------------------------------------------------------
# bound tables

BOUNDS_DISCLAIMER = (
    "DP rows are attack-success reference points only: matching the "
    "membership-inference ceiling of an (eps, delta)-DP mechanism does not "
    "confer differential privacy at those parameters."
)


def report_bounds(
    mi_values: tuple[float, ...] = (0.0, 1 / 128, 0.25, 0.33, 0.68),
    eps_values: tuple[float, ...] = (0.1, 1.0, 2.0, 6.0),
    delta: float = 1e-5,
    prior: float = 0.5,
) -> SweepResult:
    """Information budgets, their attack-success ceilings, and DP reference
    rows expressed in the same currency."""
    _require_distinct([_format_float(mi) for mi in mi_values], "mi", "table")
    _require_distinct([_format_float(eps) for eps in eps_values], "eps", "table")
    rows = []
    for mi in mi_values:
        note = "zero-leakage (DP eps = 0 reference)" if mi == 0.0 else ""
        rows.append([
            "mi", _format_float(mi), "",
            _format_float(mia_posterior_bound(mi, prior)), note,
        ])
    for eps in eps_values:
        bound = dp_eps_to_mia_bound(eps, delta)
        matched = matched_mi_for_dp(eps, delta, prior)
        rows.append([
            "dp", f"eps={_format_float(eps)}", f"delta={_format_float(delta)}",
            _format_float(bound),
            f"matched_mi={_format_float(matched)}",
        ])
    return SweepResult(
        columns=("kind", "value", "param", "mia_bound", "note"),
        rows=rows,
        notes={"disclaimer": BOUNDS_DISCLAIMER, "prior": prior},
        footer=(BOUNDS_DISCLAIMER,),
    )
