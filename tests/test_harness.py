import copy
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paczero
from paczero import _fields, cli, harness
from paczero.accounting import validate_transcript
from paczero.adversary import MiaExperimentResult
from paczero.engine import TrainConfig, Transcript, train
from paczero.mechanism import (
    BRANCH_COIN,
    BRANCH_DISAGREEMENT,
    BRANCH_SURROGATE,
    BRANCH_UNANIMITY,
    BudgetLedger,
    MechanismSpec,
    StepRecord,
)
from paczero.tasks import BlobsTask, QuadraticTask, XorMlpTask, make_task
from paczero.harness import (
    BOUNDS_DISCLAIMER,
    ConfigError,
    ExperimentConfig,
    SchemaError,
    SUMMARY_COLUMNS,
    load_design,
    load_transcript,
    output_root,
    report_bounds,
    run_experiment,
    sweep_decomposition,
    sweep_k,
    sweep_mi_plateau,
    sweep_t_ladder,
    transcript_lines,
    write_transcript,
)
import helpers


def base_raw(**over) -> dict:
    raw = {
        "task": {"name": "blobs", "n_records": 16, "seed": 3},
        "mechanism": {
            "variant": "paczero_mi", "mi_total": 0.25, "n_subsets": 8, "clip": 1.0,
        },
        "train": {"steps": 12, "learning_rate": 0.05, "dev_eval_interval": 6},
        "seeds": [0, 1],
        "label": "unit",
    }
    raw.update(over)
    return raw


def beta_t_spelled(token: str):
    """An edit of a transcript's lines that spells the first release
    line's beta_t as ``token``."""
    def edit(lines: list[str]) -> list[str]:
        beta_t = json.dumps(json.loads(lines[1])["beta_t"])
        poisoned = lines[1].replace(f'"beta_t":{beta_t}', f'"beta_t":{token}')
        assert token in poisoned
        return [lines[0], poisoned, *lines[2:]]
    return edit


def reordered(line: str) -> str:
    """A header or summary line with its keys reversed at every depth and
    whitespace added: the same values in other text."""
    def reverse(value):
        if not isinstance(value, dict):
            return value
        return {key: reverse(item) for key, item in reversed(value.items())}
    return " " + json.dumps(reverse(json.loads(line)), separators=(" , ", " : "))


def split_before_a_comma(lines: list[str]) -> list[str]:
    """Release record 1 cut at a comma, the comma dropped, and records 3 and
    4 joined by a comma: the same line count, and the release lines joined
    by commas decode to the records unedited."""
    cut = lines[1].index(",", 40)
    return [lines[0], lines[1][:cut], lines[1][cut + 1:], lines[2],
            lines[3] + "," + lines[4], *lines[5:]]


def array_across_lines(lines: list[str]) -> list[str]:
    """Release record 1's branch made an array of two objects whose join
    is a line break, and records 3 and 4 joined by a comma: each line starts
    with "{" and ends with "}", and the release lines joined by ",\\n"
    decode to one object per line."""
    head, tail = lines[1].split('"branch":', 1)
    tail = tail.split(",", 1)[1]
    return [lines[0], head + '"branch":[{"a":1}', '{"b":2}],' + tail, lines[2],
            lines[3] + "," + lines[4], *lines[5:]]


def load_outcome(path: Path, per_line: bool = False):
    """``load_transcript(path)``, or its fault's message; ``per_line`` reads
    every release line through the per-line path."""
    with pytest.MonkeyPatch.context() as patch:
        if per_line:
            patch.setattr(harness, "_decode_block", lambda block: None)
        try:
            return load_transcript(path)
        except SchemaError as exc:
            return str(exc)


# a header or line edit's value that deletes its key
DELETED = object()

# release-line values: floats at the edges of float.__repr__'s spellings
# (signed zeros, the smallest subnormal and normal, the switch to an exponent
# at 1e-05 and 1e16, the largest double) and ints past 64 bits
EDGE_FLOAT = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05, 9999999999999998.0,
        1e16, 1.7976931348623157e308, -1.7976931348623157e308,
    ]),
    st.floats(allow_nan=False, allow_infinity=False),
)
LARGE_INT = st.one_of(st.integers(0, 10**6), st.integers(-(2**200), 2**200))


def release_records(branch: str):
    """Records shaped as a release of ``branch``: a surrogate release has no
    agreement probability, and only a disagreement carries noise fields."""
    private, noisy = branch != BRANCH_SURROGATE, branch == BRANCH_DISAGREEMENT
    return st.builds(
        StepRecord, t=LARGE_INT, slot=LARGE_INT, branch=st.just(branch),
        q_plus=EDGE_FLOAT if private else st.none(), sigma=EDGE_FLOAT if noisy else st.none(),
        y=EDGE_FLOAT, y_tilde=EDGE_FLOAT if noisy else st.none(), beta_t=EDGE_FLOAT,
        beta_used=EDGE_FLOAT, cum_mi=EDGE_FLOAT, unanimity_count=LARGE_INT,
    )


def json_release_line(rec: StepRecord) -> str:
    """A release line as ``json`` writes the record's dict with its type."""
    return json.dumps(rec._asdict() | {"type": "release"}, sort_keys=True,
                      separators=(",", ":"), allow_nan=False)

# a Blobs geometry no sample can clear: without noise each sample sits on the
# axis at the margin, and at task seed 0 axis @ axis rounds below 1
FLAT_BLOBS = {"seed": 0, "separation": 1.0, "margin": 0.5, "axis_noise": 0.0, "perp_noise": 0.0}


def src_env() -> dict:
    """The environment of a process of its own, with the package's source on its path."""
    return {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}


def python_process(cwd: Path | None, *args: str) -> subprocess.CompletedProcess:
    """``python args`` in a process of its own; a process that hangs fails
    at the timeout."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, timeout=30, env=src_env(),
        capture_output=True, text=True,
    )


def write_config(tmp_path: Path, raw: dict) -> Path:
    import yaml

    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


class TestExperimentConfig:
    def test_happy_path(self):
        cfg = ExperimentConfig.from_dict(base_raw())
        assert cfg.mechanism.mi_total == 0.25
        assert cfg.train.steps == 12
        assert cfg.seeds == (0, 1)
        assert cfg.label == "unit"
        assert cfg.make_task().n_records == 16

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict(base_raw(budget=0.3))

    def test_task_requires_name(self):
        with pytest.raises(ConfigError, match="task"):
            ExperimentConfig.from_dict(base_raw(task={"n_records": 16}))

    @pytest.mark.parametrize(
        "task",
        [
            {"name": "blobs", "florp": 1},
            {"name": "xor_mlp", "dim": 4},
            {"name": "nope"},
            {"name": ["blobs"]},
            {"name": "blobs", "n_records": [1]},
            {"name": "blobs", "seed": "x"},
        ],
        ids=[
            "unknown-param", "other-task-param", "unknown-name", "unhashable-name",
            "list-n_records", "string-seed",
        ],
    )
    def test_task_checked_against_constructor(self, task):
        with pytest.raises(ConfigError, match="^task: "):
            ExperimentConfig.from_dict(base_raw(task=task))

    def test_mechanism_errors_are_attributed(self):
        raw = base_raw(mechanism={"variant": "paczero_mi", "mi_total": -1.0})
        with pytest.raises(ConfigError, match="^mechanism: "):
            ExperimentConfig.from_dict(raw)
        raw = base_raw(mechanism={"variant": "paczero_mi", "mi_total": 0.1, "bogus": 1})
        with pytest.raises(ConfigError, match="^mechanism: "):
            ExperimentConfig.from_dict(raw)

    def test_train_errors_are_attributed(self):
        with pytest.raises(ConfigError, match="^train: "):
            ExperimentConfig.from_dict(base_raw(train={"steps": 0}))
        with pytest.raises(ConfigError, match="^train: "):
            ExperimentConfig.from_dict(base_raw(train={"walrus": 1}))

    def test_seed_normalization(self):
        assert ExperimentConfig.from_dict(base_raw(seeds=7)).seeds == (7,)
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig.from_dict(base_raw(seeds=[]))
        # a bool seed would be written as seed_True and then fail its own
        # header check; a negative one would crash numpy's seeding
        for seeds in (["a"], True, [True], [-1]):
            with pytest.raises(ConfigError, match="seeds"):
                ExperimentConfig.from_dict(base_raw(seeds=seeds))

    def test_label_validation(self):
        for label in ("", ".", "..", "../../escaped", "a/b", "/abs", "a\\b", 3):
            with pytest.raises(ConfigError, match="^label: "):
                ExperimentConfig.from_dict(base_raw(label=label))
        assert ExperimentConfig.from_dict(base_raw(label="a..b")).label == "a..b"

    def test_clip_inf_spelling(self):
        raw = base_raw(
            mechanism={"variant": "paczero_zpl", "n_subsets": 8, "clip": "inf"}
        )
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.mechanism.clip == math.inf

    def test_from_yaml_with_overrides(self, tmp_path):
        path = write_config(tmp_path, base_raw())
        cfg = ExperimentConfig.from_yaml(
            path, ["mechanism.mi_total=0.5", "train.steps=7", "seeds=9"]
        )
        assert cfg.mechanism.mi_total == 0.5
        assert cfg.train.steps == 7
        assert cfg.seeds == (9,)

    def test_malformed_override(self, tmp_path):
        path = write_config(tmp_path, base_raw())
        with pytest.raises(ConfigError, match="override"):
            ExperimentConfig.from_yaml(path, ["train.steps 7"])

    def test_yaml_syntax_error_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("x: [\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            ExperimentConfig.from_yaml(bad)
        path = write_config(tmp_path, base_raw())
        with pytest.raises(ConfigError, match="^override 'seeds=\\[': invalid YAML"):
            ExperimentConfig.from_yaml(path, ["seeds=["])

    def test_import_leaves_yaml_unloaded(self):
        # only loading a YAML config reads YAML, so importing the package
        # (and its CLI) must not import the parser
        probe = "import sys, paczero, paczero.cli; print('yaml' in sys.modules)"
        assert python_process(None, "-c", probe).stdout.strip() == "False"

    @pytest.mark.parametrize("text", ["[1, 2]\n", "just a string\n"], ids=["list", "string"])
    def test_non_mapping_root_rejected_before_overrides(self, tmp_path, text):
        # an override once descended into the list or string and raised TypeError
        path = tmp_path / "root.yaml"
        path.write_text(text)
        for overrides in ([], ["label=x"]):
            with pytest.raises(ConfigError, match="^config root must be a mapping$"):
                ExperimentConfig.from_yaml(path, overrides)

    def test_readme_field_table_is_the_code_s(self):
        # README's table of config fields renders the one declaration each
        # field has: kind, range and default
        def spelled(value):  # as YAML spells it
            if value is None or isinstance(value, bool):
                return json.dumps(value)
            return ".inf" if value == math.inf else str(value)

        expected = ["| Field | Kind | Range | Default |", "|---|---|---|---|"]
        classes = [TrainConfig, MechanismSpec, BlobsTask, XorMlpTask, QuadraticTask]
        for section, cls in zip(["train", "mechanism", "blobs", "xor_mlp", "quadratic"], classes):
            for name, (kinds, ranges, default) in _fields.fields(cls).items():
                kinds = " or ".join(map(_fields._KIND_NAMES.get, kinds))
                ranges = ", ".join(says for says, _ in ranges) or "-"
                expected.append(f"| `{section}.{name}` | {kinds} | {ranges} | `{spelled(default)}` |")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = readme.index(expected[0])
        assert readme[start:start + len(expected) + 1] == expected + [""]

    def test_output_root_resolution(self, monkeypatch):
        monkeypatch.delenv("PACZERO_OUTPUT_ROOT", raising=False)
        assert output_root() == Path("runs")
        monkeypatch.setenv("PACZERO_OUTPUT_ROOT", "/tmp/elsewhere")
        assert output_root() == Path("/tmp/elsewhere")
        assert output_root("explicit") == Path("explicit")


@pytest.fixture(scope="module")
def small_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    config = ExperimentConfig.from_dict(base_raw())
    return config, out, run_experiment(config, out_dir=out)


@pytest.fixture(scope="module")
def long_transcript(tmp_path_factory):
    """A transcript file of more release lines than one block, and its lines."""
    spec = MechanismSpec(variant="paczero_mi", mi_total=0.25, n_subsets=8, clip=1.0)
    config = TrainConfig(steps=harness._BLOCK_LINES + 60, dev_eval_interval=100)
    path = tmp_path_factory.mktemp("long") / "transcript.jsonl"
    write_transcript(path, train(BlobsTask(n_records=16), config, spec).transcript)
    return path, path.read_text().splitlines()


class TestTranscriptIO:
    def test_roundtrip_is_byte_identical(self, small_summary):
        _, out, summary = small_summary
        path = out / "seed_0" / "transcript.jsonl"
        original = path.read_text()
        reloaded = load_transcript(path)
        assert "\n".join(transcript_lines(reloaded)) + "\n" == original
        assert path.read_bytes().isascii()
        assert reloaded.cum_mi == summary.rows[0].cum_mi

    def test_design_regenerates_and_verifies(self, small_summary):
        _, out, summary = small_summary
        transcript = load_transcript(out / "seed_0" / "transcript.jsonl")
        design = load_design(transcript)
        assert design.content_hash() == transcript.header.design_hash
        assert design.n_records == 16

    def test_design_hash_mismatch_rejected(self, small_summary, tmp_path):
        import dataclasses

        _, out, _ = small_summary
        transcript = load_transcript(out / "seed_0" / "transcript.jsonl")
        forged = dataclasses.replace(
            transcript, header=dataclasses.replace(
                transcript.header, design_hash="0" * 64
            )
        )
        with pytest.raises(SchemaError, match="hash"):
            load_design(forged)

    @pytest.mark.parametrize("n_records, n_subsets, match", [
        (2**20, 32, "header: n_records \\* n_subsets must be <= 16777216, got 33554432"),
        (1, 2, "header: no design with all 2 subsets nonempty over 1 records"),
    ], ids=["too-many-cells", "no-nonempty-design"])
    def test_unbuildable_design_is_a_header_fault(self, small_summary, n_records, n_subsets,
                                                  match):
        import dataclasses

        _, out, _ = small_summary
        transcript = load_transcript(out / "seed_0" / "transcript.jsonl")
        header = transcript.header
        forged = dataclasses.replace(transcript, header=dataclasses.replace(
            header, task_params={**header.task_params, "n_records": n_records},
            mechanism=dataclasses.replace(header.mechanism, n_subsets=n_subsets),
        ))
        with pytest.raises(SchemaError, match=match):
            load_design(forged)

    def write_tampered(self, out, tmp_path, mutate) -> Path:
        lines = (out / "seed_0" / "transcript.jsonl").read_text().splitlines()
        lines = mutate(lines)
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        return bad

    def test_unknown_field_rejected(self, small_summary, tmp_path):
        _, out, _ = small_summary

        def add_field(lines):
            obj = json.loads(lines[1])
            obj["smuggled"] = 1
            lines[1] = json.dumps(obj)
            return lines

        with pytest.raises(SchemaError, match="unknown fields"):
            load_transcript(self.write_tampered(out, tmp_path, add_field))

    def test_missing_field_rejected(self, small_summary, tmp_path):
        _, out, _ = small_summary

        def drop_field(lines):
            obj = json.loads(lines[1])
            obj.pop("q_plus")
            lines[1] = json.dumps(obj)
            return lines

        with pytest.raises(SchemaError, match="missing fields"):
            load_transcript(self.write_tampered(out, tmp_path, drop_field))

    @pytest.mark.parametrize(
        "line, path, value, field",
        [
            ("header", ("variant",), "paczero_zpl", "variant"),
            ("header", ("k",), 2, "k"),
            ("header", ("run_seed",), 1, "run_seed"),
            ("header", ("n_subsets",), 16, "n_subsets"),
            ("header", ("t_total",), 6, "t_total"),
            ("header", ("n_records",), 20, "n_records"),
            ("summary", ("cum_mi",), 1.0, "cum_mi"),
            ("summary", ("unanimity_bits",), 999, "unanimity_bits"),
            ("summary", ("total_bits",), 999, "total_bits"),
            # a config edited under its unchanged copy: each such file once
            # validated sound, and the second then failed to replay
            ("header", ("train", "steps"), 6, "t_total"),
            ("header", ("task_params", "n_records"), 20, "n_records"),
        ],
        ids=[
            "variant", "k", "run_seed", "n_subsets", "t_total", "n_records", "cum_mi",
            "unanimity_bits", "total_bits", "train-steps", "task_params-n_records",
        ],
    )
    def test_repeated_value_must_match(self, small_summary, tmp_path, line, path, value,
                                       field):
        _, out, _ = small_summary
        bad = helpers.tampered_file(
            out / "seed_0" / "transcript.jsonl", tmp_path / "bad.jsonl",
            {"header": 0, "summary": -1}[line], path, value,
        )
        with pytest.raises(SchemaError, match=f"^{line}: {field} .* disagrees with"):
            load_transcript(bad)

    def test_header_must_come_first(self, small_summary, tmp_path):
        _, out, _ = small_summary
        with pytest.raises(SchemaError, match="header"):
            load_transcript(
                self.write_tampered(out, tmp_path, lambda ls: ls[1:] + ls[:1])
            )

    def test_summary_must_come_last(self, small_summary, tmp_path):
        _, out, _ = small_summary
        with pytest.raises(SchemaError, match="summary"):
            load_transcript(
                self.write_tampered(out, tmp_path, lambda ls: ls[:-1])
            )

    def test_format_version_checked(self, small_summary, tmp_path):
        _, out, _ = small_summary

        def bump_version(lines):
            obj = json.loads(lines[0])
            obj["format_version"] = 99
            lines[0] = json.dumps(obj)
            return lines

        with pytest.raises(SchemaError, match="version"):
            load_transcript(self.write_tampered(out, tmp_path, bump_version))

    def test_non_finite_number_rejected(self, small_summary, tmp_path):
        _, out, _ = small_summary
        for token in ("NaN", "Infinity", "-Infinity", "1e999", "-1e999"):

            def poison(lines):
                obj = json.loads(lines[1])
                lines[1] = json.dumps(obj).replace(
                    f'"beta_t": {json.dumps(obj["beta_t"])}', f'"beta_t": {token}'
                )
                assert token in lines[1]
                return lines

            with pytest.raises(SchemaError, match="non-finite"):
                load_transcript(self.write_tampered(out, tmp_path, poison))

    @pytest.mark.parametrize("line, path", [
        (0, ["task_params", "separation"]),
        (0, ["mechanism", "mi_total"]),
        (-1, ["dev_evals", 0, 1]),
        (-1, ["cum_mi"]),
    ])
    def test_overflowing_literal_rejected_in_header_and_summary(
        self, small_summary, tmp_path, line, path
    ):
        _, out, _ = small_summary

        def poison(lines):
            obj = node = json.loads(lines[line])
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = 0.123456789
            lines[line] = json.dumps(obj).replace("0.123456789", "-1e999")
            assert "-1e999" in lines[line]
            return lines

        with pytest.raises(SchemaError, match="non-finite"):
            load_transcript(self.write_tampered(out, tmp_path, poison))

    @pytest.mark.parametrize("edit, expected", [
        pytest.param(lambda ls: ls, None, id="unedited"),
        # the header and summary are held to the writer's values, not its text
        pytest.param(lambda ls: [reordered(ls[0]), *ls[1:-1], reordered(ls[-1])], None,
                     id="unedited-reordered-header-and-summary"),
        pytest.param(lambda ls: [ls[0], " \t" + ls[1], *ls[2:]], None, id="leading-whitespace"),
        pytest.param(lambda ls: [ls[0], ls[1] + " \t", *ls[2:]], None, id="trailing-whitespace"),
        pytest.param(lambda ls: [ls[0], "\ufeff" + ls[1], *ls[2:]],
                     "line 2: invalid JSON line: Unexpected UTF-8 BOM", id="bom"),
        # a decoder fault names the file line, then the decoder's own position
        pytest.param(lambda ls: [ls[0], ls[1] + ls[2], *ls[3:]],
                     "line 2: invalid JSON line: Extra data: line 1 column ",
                     id="two-objects-on-a-line"),
        pytest.param(lambda ls: [ls[0], ls[1] + "," + ls[2], *ls[3:]],
                     "line 2: invalid JSON line: Extra data: line 1 column ",
                     id="comma-joined-records"),
        # line count unchanged: record 1 over two lines, records 3 and 4 on one
        pytest.param(lambda ls: [ls[0], ls[1][:40], ls[1][40:], ls[2], ls[3] + ls[4], *ls[5:]],
                     "line 2: invalid JSON line", id="split-and-joined-records"),
        # as above, but the release lines joined by commas decode to the records
        pytest.param(split_before_a_comma, "line 2: invalid JSON line",
                     id="split-before-a-comma-and-comma-joined-records"),
        pytest.param(array_across_lines, "line 2: invalid JSON line", id="array-across-lines"),
        pytest.param(lambda ls: [ls[0], ls[1].replace('"branch":"', '"branch":"},{'), *ls[2:]],
                     "record at step 1 slot 0: branch '},{", id="brace-comma-brace-in-a-string"),
        pytest.param(lambda ls: [ls[0], ls[1].replace('"branch":"', '"branch":"},\\n{'), *ls[2:]],
                     "record at step 1 slot 0: branch '},\\n{", id="escaped-newline-in-a-string"),
        pytest.param(lambda ls: [ls[0], "[" + ls[1] + "]", *ls[2:]],
                     "line 2: every transcript line must be a JSON object", id="array-line"),
        pytest.param(lambda ls: [ls[0], ls[1][:-1] + ',"type":"release"}', *ls[2:]], None,
                     id="duplicate-key"),
        pytest.param(lambda ls: [ls[0], ls[1][:-1] + ',"type":"summary"}', *ls[2:]],
                     "line 2: expected a release record", id="duplicate-key-last-wins"),
        *(pytest.param(beta_t_spelled(token), "line 2: non-finite number", id=token)
          for token in ("NaN", "Infinity", "-Infinity", "1e999")),
        pytest.param(lambda ls: [ls[0], ls[1].replace('"slot":0', '"slot":' + "1" * 5000),
                                 *ls[2:]],
                     "line 2: invalid JSON line: Exceeds the limit (4300 digits) for integer "
                     "string conversion", id="5000-digit-integer"),
        pytest.param(lambda ls: [ls[0], '{"a":' * 100_000 + "1" + "}" * 100_000, *ls[2:]],
                     "line 2: JSON line nested too deeply", id="deeply-nested-object"),
    ])
    def test_fast_release_path_matches_per_line_load(self, small_summary, tmp_path, edit,
                                                     expected):
        # release lines decoded a block at a time must read, or fail, exactly
        # as the per-line path (every release line through _release_record)
        # reads them
        _, out, _ = small_summary
        lines = (out / "seed_0" / "transcript.jsonl").read_text().splitlines()
        path = tmp_path / "edited.jsonl"
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        got, reference = load_outcome(path), load_outcome(path, per_line=True)
        if expected is None:
            assert isinstance(got, Transcript) and got == reference
            assert transcript_lines(got) == transcript_lines(reference)
            assert got.records == tuple(StepRecord(*rec) for rec in got.records)
            assert got.records == reference.records
        else:
            # a fault of a release line names its file line first; one the
            # lines pass names its record
            assert isinstance(got, str) and got.startswith(expected)
            assert got == reference

    @pytest.mark.parametrize("edit", [split_before_a_comma, array_across_lines])
    def test_joined_lines_alone_would_decode(self, small_summary, edit):
        # what the block decode checks besides the count: each file line
        # starts with "{" and ends with "}", and no value is an array.  Without
        # them these edits would decode to one release object per line
        _, out, _ = small_summary
        lines = edit((out / "seed_0" / "transcript.jsonl").read_text().splitlines())
        objs = json.loads("[" + ",\n".join(lines[1:-1]) + "]")
        assert len(objs) == len(lines) - 2
        assert all(obj.keys() == harness._RELEASE_FIELDS.keys() for obj in objs)
        assert harness._decode_block(lines[1:-1]) is None

    @pytest.mark.parametrize("edit, expected", [
        pytest.param(lambda line: " " + line + "\t", None, id="whitespace-padded"),
        pytest.param(lambda line: line + "x", "invalid JSON line: Extra data: line 1 column ",
                     id="stray-text"),
        pytest.param(lambda line: line.replace('"type":"release"', '"type":"summary"'),
                     "expected a release record", id="not-a-release"),
    ])
    @pytest.mark.parametrize("offset", [0, 40], ids=["block-start", "block-middle"])
    def test_second_block_names_its_own_lines(self, long_transcript, tmp_path, edit, expected,
                                              offset):
        # a transcript longer than one block: a line of the second block loads,
        # or names its own file line, as the per-line path reads it
        path, lines = long_transcript
        n = harness._BLOCK_LINES + 2 + offset  # file line; the block starts at line 2
        lines = [*lines[:n - 1], edit(lines[n - 1]), *lines[n:]]
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(lines) + "\n")
        got = load_outcome(edited)
        assert got == load_outcome(edited, per_line=True)
        if expected is None:
            assert got == load_transcript(path)
        else:
            assert got.startswith(f"line {n}: {expected}")

    @pytest.mark.parametrize("index, inserted, newline, per_line, offset", [
        pytest.param(0, b"\xff", b"\n", False, 1, id="header"),
        pytest.param(3, b"\xff", b"\n", False, 1, id="release-block"),
        pytest.param(3, b"\xff", b"\n", True, 1, id="release-per-line"),
        pytest.param(-1, b"\xff", b"\n", False, 1, id="summary"),
        # lines as splitlines numbers them; the offset counts the line's bytes
        pytest.param(3, b"\xff", b"\r\n", False, 1, id="release-crlf"),
        pytest.param(3, "\u00e9".encode() + b"\xff", b"\n", False, 3, id="after-a-two-byte-letter"),
    ])
    def test_byte_not_utf8_names_its_line(self, small_summary, tmp_path, index, inserted,
                                          newline, per_line, offset):
        _, out, _ = small_summary
        lines = (out / "seed_0" / "transcript.jsonl").read_bytes().splitlines()
        lines[index] = lines[index][:1] + inserted + lines[index][1:]
        path = tmp_path / "not-utf8.jsonl"
        path.write_bytes(newline.join(lines) + newline)
        n = index % len(lines) + 1
        assert load_outcome(path, per_line) == (
            f"line {n}: not UTF-8 text: invalid start byte at byte offset {offset} (0xff)"
        )

    def test_non_ascii_text_reads_alike_in_any_locale(self, small_summary, tmp_path):
        # the file is UTF-8 whatever the locale: a branch name with an e-acute
        # fails on its record, not on the locale's codec
        _, out, _ = small_summary
        lines = (out / "seed_0" / "transcript.jsonl").read_text().splitlines()
        branch = json.loads(lines[3])["branch"]
        renamed = branch[:6] + "\u00e9" + branch[6:]
        lines[3] = lines[3].replace(f'"branch":"{branch}"', f'"branch":"{renamed}"')
        path = tmp_path / "accented.jsonl"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        expected = f"record at step 3 slot 0: branch {renamed!r} is not a private release"
        assert load_outcome(path) == expected
        script = (
            "import json, sys\n"
            "from paczero.harness import SchemaError, load_transcript\n"
            "try:\n    load_transcript(sys.argv[1])\n"
            "except SchemaError as exc:\n    print(json.dumps(str(exc)))\n"
        )
        c_locale = {**src_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=c_locale,
                              timeout=30, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == expected

    @pytest.mark.parametrize("index", [0, 1, -1], ids=["header", "release", "summary"])
    def test_decode_fault_names_its_file_line(self, small_summary, tmp_path, index):
        # stray text after a line's object: the fault names the file line,
        # then reads as the decoder's own message
        _, out, _ = small_summary
        lines = (out / "seed_0" / "transcript.jsonl").read_text().splitlines()
        lines[index] += "x"
        path = tmp_path / "stray.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads(lines[index])
        with pytest.raises(SchemaError) as fault:
            load_transcript(path)
        number = index % len(lines) + 1
        assert str(fault.value) == f"line {number}: invalid JSON line: {decoded.value}"

    def test_records_have_no_instance_dict(self, small_summary):
        # a record is a tuple of its fields, whether the ledger charged it
        # or a release line loaded it
        _, out, _ = small_summary
        loaded = load_transcript(out / "seed_0" / "transcript.jsonl").records
        ledger = BudgetLedger(1.0, 1, 1, 1e-12)
        charged = ledger.charge(1, 0, BRANCH_UNANIMITY, 1.0, None, 1.0, None, 0.0)
        for rec in (charged, *loaded):
            assert isinstance(rec, StepRecord) and not hasattr(rec, "__dict__")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(*map(release_records, (
        BRANCH_UNANIMITY, BRANCH_COIN, BRANCH_DISAGREEMENT, BRANCH_SURROGATE,
    ))), min_size=1, max_size=4))
    def test_release_template_is_the_json_text(self, records):
        # the template spells every value as json does, so a release line
        # is json's text of the record's dict, keys sorted
        assert harness._release_lines(records) == [json_release_line(rec) for rec in records]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["q_plus", "sigma", "y", "y_tilde", "beta_t", "beta_used", "cum_mi"]
    )
    def test_release_template_refuses_non_finite_floats(self, field, value):
        # as json's allow_nan=False does, naming the record
        good = StepRecord(2, 0, BRANCH_DISAGREEMENT, 0.75, 1.5, 1.0, 0.25, 0.01, 0.01, 0.02, 3)
        bad = good._replace(**{field: value})
        with pytest.raises(ValueError):
            json_release_line(bad)
        with pytest.raises(ValueError, match=(
            f"^release record 1: out of range float {value!r} is not JSON compliant$"
        )):
            harness._release_lines([good, bad, good])

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            load_transcript(empty)


class TestRunExperiment:
    def test_artifact_layout(self, small_summary):
        config, out, summary = small_summary
        for seed in config.seeds:
            seed_dir = out / f"seed_{seed}"
            for name in (
                "transcript.jsonl", "secret.json", "metrics.json", "validation.json",
            ):
                assert (seed_dir / name).exists(), name
        assert (out / "summary.csv").exists()

    def test_summary_csv_shape(self, small_summary):
        config, out, summary = small_summary
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == 1 + len(config.seeds) + 1  # header, rows, pooled
        assert "pooled" in lines[-1]
        assert "±" in lines[-1]

    def test_all_runs_validate(self, small_summary):
        _, _, summary = small_summary
        assert summary.first_violation() is None
        for row in summary.rows:
            assert row.validation is not None and row.validation.ok
            assert row.cum_mi <= 0.25

    def test_metrics_json_content(self, small_summary):
        config, out, summary = small_summary
        metrics = json.loads((out / "seed_0" / "metrics.json").read_text())
        assert metrics["dev"] == summary.rows[0].dev
        assert metrics["test"] == summary.rows[0].test
        assert metrics["validation_ok"] is True
        report = json.loads((out / "seed_0" / "validation.json").read_text())
        assert "beta_t" in report["rederived"] and "q_plus" in report["trusted"]

    def test_secret_stays_out_of_public_artifacts(self, small_summary):
        config, out, _ = small_summary
        secret = json.loads((out / "seed_0" / "secret.json").read_text())
        assert set(secret) == {"secret_index"}
        transcript_text = (out / "seed_0" / "transcript.jsonl").read_text()
        assert "secret" not in transcript_text

    def test_rerun_is_byte_identical(self, tmp_path):
        config = ExperimentConfig.from_dict(base_raw(seeds=[4]))
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(config, out_dir=a)
        run_experiment(config, out_dir=b)
        assert (
            (a / "seed_4" / "transcript.jsonl").read_bytes()
            == (b / "seed_4" / "transcript.jsonl").read_bytes()
        )

    def test_pooled_statistics(self, small_summary):
        _, _, summary = small_summary
        mean, sd = summary.pooled("test")
        values = [r.test for r in summary.rows]
        assert mean == pytest.approx(float(np.mean(values)))
        assert sd == pytest.approx(float(np.std(values, ddof=1)))


class TestSweeps:
    def test_mi_plateau_structure(self):
        config = ExperimentConfig.from_dict(base_raw(seeds=[0]))
        result = sweep_mi_plateau(config, budgets=(0.01, 0.33))
        assert result.columns == ("budget", "dev", "test", "f", "max_cum_mi")
        assert len(result.rows) == 2
        assert result.notes["within_budget"] is True
        assert result.notes["test_spread"] >= 0.0
        for row, budget in zip(result.rows, (0.01, 0.33)):
            assert float(row[4]) <= budget * (1 + 1e-6)

    def test_t_ladder_single_trajectory(self, tmp_path):
        config = ExperimentConfig.from_dict(base_raw(seeds=[0, 1]))
        result = sweep_t_ladder(config, rungs=(25, 100), out_dir=tmp_path)
        assert [row[0] for row in result.rows] == [25, 100]
        assert set(result.notes["test_means"]) == {25, 100}
        assert result.notes["best_rung"] in (25, 100)
        drift = result.notes["drift_at_4x"]
        means = result.notes["test_means"]
        if result.notes["best_rung"] == 25:
            assert drift == pytest.approx(means[100] - means[25])
        else:
            assert drift is None
        assert (tmp_path / "sweep_t.csv").exists()

    def test_t_ladder_rungs_are_nonnegative(self):
        # rung 0 is the initial parameters; a negative rung has none
        config = ExperimentConfig.from_dict(base_raw(seeds=[0]))
        assert [row[0] for row in sweep_t_ladder(config, rungs=(3, 0)).rows] == [0, 3]
        with pytest.raises(ValueError, match="nonnegative"):
            sweep_t_ladder(config, rungs=(10, -5))
        # a trajectory of 0 steps once failed naming steps, a field never set
        with pytest.raises(ValueError, match="^the largest rung must be at least 1 step, got rung 0$"):
            sweep_t_ladder(config, rungs=(0,))

    def test_repeated_label_is_rejected(self):
        # both budgets print as 0.1: one note once stood for the two runs,
        # and the budget verdict depended on their order
        config = ExperimentConfig.from_dict(base_raw(seeds=[0]))
        with pytest.raises(ValueError, match="^budget 0.1 appears twice in the sweep$"):
            sweep_mi_plateau(config, budgets=(0.1000001, 0.1))

    @pytest.mark.parametrize("mechanism", [
        {"variant": "k_aggregate", "inner_variant": "paczero_zpl", "k": 2},
        {"variant": "surrogate", "surrogate_mode": "raw_full"},
    ], ids=["k_aggregate", "surrogate"])
    def test_mi_plateau_runs_from_any_variant(self, mechanism):
        # every run is paczero_mi: a k or surrogate mode that only the config's
        # variant takes once made each run's spec fail
        raw = base_raw(seeds=[0])
        raw["mechanism"].update(mechanism)
        got = sweep_mi_plateau(ExperimentConfig.from_dict(raw), budgets=(0.01, 0.3))
        plain = sweep_mi_plateau(ExperimentConfig.from_dict(base_raw(seeds=[0])),
                                 budgets=(0.01, 0.3))
        assert (got.csv_text(), got.notes) == (plain.csv_text(), plain.notes)

    def test_decomposition_names_its_unbuildable_row_before_training(self, monkeypatch):
        # a ZPL config has no budget for the paczero_mi row
        raw = base_raw(seeds=[0], mechanism={"variant": "paczero_zpl", "n_subsets": 8})
        trained = []
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **kw: trained.append(a))
        with pytest.raises(ConfigError, match="^release paczero_mi: mi_total must be positive"):
            sweep_decomposition(ExperimentConfig.from_dict(raw))
        assert trained == []

    @pytest.mark.parametrize("sweep, named", [
        (lambda config: sweep_mi_plateau(config, budgets=(0.1, 0.0)),
         "^budget 0: mi_total must be positive for an MI variant, got 0.0$"),
        (lambda config: sweep_k(config, ks=(2, 0)), "^k 0: k must be positive, got 0$"),
    ], ids=["budget-0", "k-0"])
    def test_rejected_value_names_its_label_before_training(self, monkeypatch, sweep, named):
        trained = []
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **kw: trained.append(a))
        with pytest.raises(ConfigError, match=named):
            sweep(ExperimentConfig.from_dict(base_raw(seeds=[0])))
        assert trained == []

    @pytest.mark.parametrize("sweep, named", [
        (lambda config: sweep_mi_plateau(config, budgets=()),
         "^empty budget list: a sweep needs at least one budget$"),
        (lambda config: sweep_t_ladder(config, rungs=()),
         "^empty rung list: a ladder needs at least one rung$"),
        (lambda config: sweep_k(config, ks=()), "^empty k list: a sweep needs at least one k$"),
    ], ids=["budgets", "rungs", "ks"])
    def test_empty_value_list_is_refused_before_training(self, monkeypatch, sweep, named):
        # no budgets once trained nothing and failed in max(), no rungs
        # indexed an empty tuple, and no ks wrote a CSV of its header alone
        trained = []
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **kw: trained.append(a))
        with pytest.raises(ValueError, match=named):
            sweep(ExperimentConfig.from_dict(base_raw(seeds=[0])))
        assert trained == []

    def test_decomposition_ladder(self):
        config = ExperimentConfig.from_dict(base_raw(seeds=[0, 1]))
        result = sweep_decomposition(config)
        labels = [row[0] for row in result.rows]
        assert labels == [
            "raw_full", "quant_full", "raw_half", "quant_half",
            "random_sign", "paczero_mi", "paczero_zpl",
        ]
        assert set(result.notes) == set(labels)
        for label in labels:
            assert 0.0 <= result.notes[label]["test"] <= 1.0

    def test_k_ladder(self):
        config = ExperimentConfig.from_dict(base_raw(seeds=[0]))
        result = sweep_k(config, ks=(1, 2))
        assert [row[0] for row in result.rows] == [1, 2]
        for row in result.rows:
            assert float(row[4]) <= 0.25 * (1 + 1e-6)

    def test_sweeps_record_no_violation_on_honest_runs(self):
        config = ExperimentConfig.from_dict(base_raw(seeds=[0]))
        assert sweep_k(config, ks=(1, 2)).violation is None
        assert sweep_mi_plateau(config, budgets=(0.01,)).violation is None

    def test_decomposition_reports_max_cum_mi(self):
        config = ExperimentConfig.from_dict(base_raw(seeds=[0]))
        result = sweep_decomposition(config)
        assert result.columns == ("release", "dev", "test", "f", "max_cum_mi")
        spent = {row[0]: float(row[4]) for row in result.rows}
        assert spent["paczero_zpl"] == 0.0 and spent["raw_full"] == 0.0
        assert 0.0 < spent["paczero_mi"] <= 0.25
        assert result.violation is None

    def test_k_ladder_rejects_surrogate(self):
        raw = base_raw(
            mechanism={
                "variant": "surrogate", "surrogate_mode": "raw_full",
                "n_subsets": 8, "clip": 1.0,
            }
        )
        config = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="private"):
            sweep_k(config, ks=(1,))


class TestReportBounds:
    def test_rows_and_notes(self):
        result = report_bounds(
            mi_values=(0.0, 0.33), eps_values=(1.0, 2.0), delta=1e-5
        )
        assert len(result.rows) == 4
        kinds = [row[0] for row in result.rows]
        assert kinds == ["mi", "mi", "dp", "dp"]
        zero_row = result.rows[0]
        assert zero_row[3] == "0.5"
        assert "zero-leakage" in zero_row[4]
        for row in result.rows[2:]:
            assert row[1].startswith("eps=")
            assert "matched_mi=" in row[4]
        assert result.notes["disclaimer"] == BOUNDS_DISCLAIMER

    def test_bounds_monotone_in_mi(self):
        result = report_bounds(mi_values=(0.0, 0.1, 0.33, 0.68), eps_values=())
        bounds = [float(row[3]) for row in result.rows]
        assert bounds == sorted(bounds)
        assert bounds[0] == 0.5


def package_modules() -> list:
    """The package root and every module under it, imported."""
    return [paczero] + [
        importlib.import_module(f"paczero.{info.name}")
        for info in pkgutil.iter_modules(paczero.__path__)
    ]


class TestPublicSurface:
    # code imports the modules; each module's __all__ is the one export list

    def test_every_exported_name_is_defined_in_its_module(self):
        for module in package_modules():
            for name in getattr(module, "__all__", ()):
                assert getattr(getattr(module, name), "__module__", None) == module.__name__, (
                    module.__name__, name)

    def test_no_name_is_exported_twice(self):
        owners: dict[str, list[str]] = {}
        for module in package_modules():
            for name in getattr(module, "__all__", ()):
                owners.setdefault(name, []).append(module.__name__)
        assert {name: where for name, where in owners.items() if len(where) > 1} == {}

    def test_package_root_loads_no_module(self):
        probe = "import sys, paczero; print([m for m in sys.modules if m.startswith('paczero.')])"
        assert python_process(None, "-c", probe).stdout.strip() == "[]"

    def test_each_module_imports_on_its_own(self):
        # one fresh interpreter per module, all started at once: a module
        # that only worked because another had loaded its siblings fails here
        names = [module.__name__ for module in package_modules()[1:]]
        assert len(names) == 10
        processes = {
            name: subprocess.Popen(
                [sys.executable, "-c", f"import {name}"], env=src_env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            for name in names
        }
        failed = {}
        for name, process in processes.items():
            err = process.communicate(timeout=30)[1]
            if process.returncode or err:
                failed[name] = err
        assert failed == {}


class TestCli:
    def test_bounds_command(self, capsys):
        assert cli.main(["bounds", "--mi", "0.0", "0.33", "--eps", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "mia_bound" in out
        assert BOUNDS_DISCLAIMER in out

    def test_run_command_with_override(self, tmp_path, capsys):
        path = write_config(tmp_path, base_raw(seeds=[0]))
        code = cli.main(
            [
                "run", "--config", str(path), "--out", str(tmp_path / "runs"),
                "--set", "train.steps=8", "--set", "label=cli_case",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "artifacts:" in out
        run_dir = tmp_path / "runs" / "cli_case"
        assert (run_dir / "summary.csv").exists()
        transcript = load_transcript(run_dir / "seed_0" / "transcript.jsonl")
        assert transcript.header.t_total == 8

    def test_validate_command_accepts_honest_transcript(self, tmp_path, capsys):
        path = write_config(tmp_path, base_raw(seeds=[0]))
        cli.main(["run", "--config", str(path), "--out", str(tmp_path / "runs")])
        capsys.readouterr()
        transcript_path = tmp_path / "runs" / "unit" / "seed_0" / "transcript.jsonl"
        assert cli.main(["validate", str(transcript_path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "re-derived: t, slot, branch" in out and "trusted: q_plus" in out

    def test_validate_command_rejects_tampered_release(self, tmp_path, capsys):
        path = write_config(tmp_path, base_raw(seeds=[0]))
        cli.main(["run", "--config", str(path), "--out", str(tmp_path / "runs")])
        capsys.readouterr()
        transcript_path = tmp_path / "runs" / "unit" / "seed_0" / "transcript.jsonl"
        lines = transcript_path.read_text().splitlines()
        for n, line in enumerate(lines[1:-1], start=1):
            obj = json.loads(line)
            if obj["branch"] == "disagreement":
                obj["y"] = -obj["y"]
                lines[n] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
                break
        else:
            pytest.skip("no contested release to tamper with")
        transcript_path.write_text("\n".join(lines) + "\n")
        assert cli.main(["validate", str(transcript_path)]) == 1
        err = capsys.readouterr().err
        assert "FAILED invariant" in err

    @pytest.mark.parametrize(
        "line, path, value",
        [
            pytest.param("header", ["mechanism", "variant"], "florp", id="unknown-variant"),
            pytest.param("header", ["mechanism", "mi_total"], "0.25", id="string-mi_total"),
            pytest.param("header", ["train", "florp"], 1, id="unknown-train-key"),
            pytest.param("header", ["n_records"], "16", id="string-n_records"),
            pytest.param("header", ["variant"], "paczero_zpl", id="header-variant"),
            pytest.param("header", ["run_seed"], 1, id="header-run_seed"),
            pytest.param("header", ["n_subsets"], 7, id="header-n_subsets-odd"),
            pytest.param("header", ["n_subsets"], 16, id="header-n_subsets-even"),
            pytest.param("header", ["train", "steps"], 6, id="header-train-steps"),
            pytest.param("header", ["task_params", "n_records"], 20, id="header-task-n_records"),
            pytest.param("header", ["task_params", "separation"], "x", id="string-task-separation"),
            pytest.param("header", ["task_params", "n_records"], 2**40,
                         id="header-task-n_records-8-tib"),
            # a finite noise scale whose samples overflow once validated [OK]
            pytest.param("header", ["task_params", "perp_noise"], 1e308,
                         id="header-task-perp_noise-1e308"),
            # a deleted config key once loaded as its default, and
            # inner_variant took any value outside k_aggregate
            pytest.param("header", ["train", "learning_rate"], DELETED,
                         id="header-train-no-learning_rate"),
            pytest.param("header", ["mechanism", "clip"], DELETED, id="header-mechanism-no-clip"),
            # the writer spells an unbounded clip "inf"; YAML's ".inf" once loaded too
            pytest.param("header", ["mechanism", "clip"], ".inf", id="header-mechanism-clip-.inf"),
            pytest.param("header", ["mechanism", "inner_variant"], {"a": 1},
                         id="header-inner_variant-dict"),
            pytest.param("summary", ["dev_evals", 0], "ab", id="string-dev_evals-entry"),
            pytest.param("summary", ["cum_mi"], "0.25", id="string-summary-cum_mi"),
            pytest.param("release", ["q_plus"], "0.5", id="string-q_plus"),
            pytest.param("release", ["sigma"], "1", id="string-sigma"),
            pytest.param("release", ["y_tilde"], None, id="missing-y_tilde"),
            pytest.param("release", ["y_tilde"], 10**400, id="overflowing-y_tilde"),
            pytest.param("release", ["cum_mi"], 10**400, id="overflowing-cum_mi"),
            pytest.param("file", None, '{"type": "header"', id="invalid-json-line"),
            pytest.param("file", None, "[1]", id="non-object-line"),
            pytest.param("file", None, "[" * 200_000, id="deeply-nested-line"),
            pytest.param("file", None, '{"a": ' + "1" * 5000 + "}", id="oversized-integer"),
        ],
    )
    def test_validate_names_every_malformed_file(self, small_summary, tmp_path, capsys,
                                                 line, path, value):
        # each of these once escaped as a traceback or validated [OK]
        _, out, _ = small_summary
        lines = (out / "seed_0" / "transcript.jsonl").read_text().splitlines()
        objs = [json.loads(text) for text in lines]
        bad = tmp_path / "bad.jsonl"
        if line == "file":  # the whole file is this one raw line
            bad.write_text(value + "\n")
        else:
            n = {"header": 0, "summary": -1}.get(line)
            if n is None:
                n = next(i for i, o in enumerate(objs) if o.get("branch") == "disagreement")
            node = objs[n]
            for key in path[:-1]:
                node = node[key]
            if value is DELETED:
                del node[path[-1]]
            else:
                node[path[-1]] = value
            bad.write_text("\n".join(json.dumps(o) for o in objs) + "\n")
        assert cli.main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "FAILED invariant:" in err
        if line == "header":  # a header fault is named as one
            assert err.startswith("FAILED invariant: header: ")

    @pytest.mark.parametrize("edit, expected", [
        pytest.param(lambda ls: [*ls[:4], ls[5], ls[4], *ls[6:]], "record at step 4 slot 0: ",
                     id="records-4-5-swapped"),
        pytest.param(beta_t_spelled("1e999"), "line 2: non-finite number", id="beta_t-1e999"),
        pytest.param(lambda ls: [ls[0], ls[1].replace('"slot":0', '"slot":' + "1" * 5000),
                                 *ls[2:]], "line 2: invalid JSON line", id="5000-digit-slot"),
        pytest.param(lambda ls: [ls[0], ls[1] + ls[2], *ls[3:]],
                     "line 2: invalid JSON line: Extra data", id="two-objects-on-line-2"),
        pytest.param(lambda ls: [ls[0], '{"a":' * 100_000 + "1" + "}" * 100_000, *ls[2:]],
                     "line 2: ", id="deeply-nested-object"),
        # the summary of the 12-step run is file line 14
        pytest.param(lambda ls: [*ls[:-1], ls[-1] + "x"], "line 14: invalid JSON line",
                     id="stray-text-after-summary"),
    ])
    def test_validate_names_the_faulty_line(self, small_summary, tmp_path, capsys, edit,
                                            expected):
        # each fault is named with the record or the file line it is on
        _, out, _ = small_summary
        lines = (out / "seed_0" / "transcript.jsonl").read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(edit(lines)) + "\n")
        assert cli.main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"FAILED invariant: {expected}")

    def test_oversized_design_fails_cleanly(self, small_summary, tmp_path, capsys):
        # a header whose subset count, and its copy, is 2**40 once failed as
        # a 256 TiB allocation as the design was regenerated
        _, out, _ = small_summary
        lines = (out / "seed_0" / "transcript.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["mechanism"]["n_subsets"] = header["n_subsets"] = 2**40
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert cli.main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(
            "FAILED invariant: header: n_subsets must be <= 1048576, got 1099511627776"
        )

    def test_negative_train_seed_fails_cleanly(self, small_summary, tmp_path, capsys):
        # the header's seed and its run_seed copy agree, so only the seed's
        # own range check stops the file; it once validated [OK] and then
        # crashed the replay
        _, out, _ = small_summary
        lines = (out / "seed_0" / "transcript.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["train"]["seed"] = header["run_seed"] = -1
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(SchemaError, match="seed must be nonnegative"):
            load_transcript(bad)
        assert cli.main(["validate", str(bad)]) == 1
        assert "FAILED invariant:" in capsys.readouterr().err

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        path = write_config(tmp_path, base_raw(seeds="florp"))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "FAILED invariant" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["attack", "--trials", "5"], None),
            (["sweep-k", "--ks", "0"], "k 0: k must be positive, got 0"),
            (["sweep-t", "--rungs", "0"], "the largest rung must be at least 1 step, got rung 0"),
            (["sweep-t", "--rungs", "-5", "10"], None),
            (["bounds", "--mi", "-1"], None),
            # NumPy's own text once named neither the flag nor the value
            (["attack", "--trials", "100", "--attack-seed", "-1"],
             "seed must be a nonnegative integer, got -1"),
            # a repeated value once trained twice and wrote duplicate rows
            (["sweep-k", "--ks", "2", "2"], "k 2 appears twice in the sweep"),
            (["sweep-mi", "--budgets", "0.1", "0.1"], "budget 0.1 appears twice in the sweep"),
            (["sweep-t", "--rungs", "10", "10"], "rung 10 appears twice in the ladder"),
            # a repeated value, or two that print alike, once made two equal rows
            (["bounds", "--mi", "0.1", "0.1", "--eps", "1.0", "1.0"],
             "mi 0.1 appears twice in the table"),
            (["bounds", "--mi", "0.1", "0.1000000001"], "mi 0.1 appears twice in the table"),
            (["bounds", "--eps", "1.0", "1.0"], "eps 1 appears twice in the table"),
            (["bounds", "--eps", "-1"], "eps must be nonnegative: -1.0"),
            (["bounds", "--delta", "1"], "delta must lie in [0, 1): 1.0"),
        ],
        ids=[
            "attack-trials", "sweep-k-ks", "sweep-t-rungs", "sweep-t-negative-rung", "bounds-mi",
            "attack-seed-negative", "sweep-k-repeated", "sweep-mi-repeated", "sweep-t-repeated",
            "bounds-repeated", "bounds-mi-prints-alike", "bounds-eps-repeated",
            "bounds-eps-negative", "bounds-delta-1",
        ],
    )
    def test_library_value_error_fails_cleanly(self, tmp_path, capsys, argv, named):
        if argv[0] != "bounds":
            path = write_config(tmp_path, base_raw(seeds=[0]))
            argv = [argv[0], "--config", str(path), "--out", str(tmp_path / "runs"), *argv[1:]]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"FAILED invariant: {named or ''}")

    def test_oversized_directions_fail_cleanly(self, tmp_path, capsys):
        # 300 steps of a 2**20-parameter task once trained and then failed
        # as a 2.34 GiB allocation of the replayed directions
        path = write_config(tmp_path, base_raw(seeds=[0]))
        argv = [
            "sweep-t", "--config", str(path), "--out", str(tmp_path / "runs"),
            "--set", "task.name=quadratic", "--set", "task.n_records=16",
            "--set", "task.dim=1048576", "--rungs", "0", "300",
        ]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "FAILED invariant: t_total * k * dim must be <= 16777216, got 314572800"
        )
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "overrides, text, named",
        [
            (["--set", "label=../../escaped"], None, None),
            (["--set", "task.florp=1"], None, None),
            ([], "x: [\n", None),
            # each of these once escaped as a TypeError or DesignError
            # traceback, or (a bool step count) trained one step
            (["--set", "task.n_records=[1]"], None, None),
            (["--set", "task.seed=x"], None, None),
            (["--set", "train.steps=1.5"], None, None),
            (["--set", "train.steps=true"], None, None),
            (["--set", "mechanism.n_subsets=8.0"], None, None),
            (["--set", "mechanism.variant=k_aggregate", "--set", "mechanism.k=2.0"], None, None),
            (["--set", "task.name=quadratic", "--set", "task.n_records=1",
              "--set", "mechanism.n_subsets=4"], None, None),
            # non-finite values that once trained into a traceback, or (the
            # ZPL budget) trained fully and failed as the transcript was written
            (["--set", "train.learning_rate=.nan"], None, None),
            (["--set", "train.weight_decay=.nan"], None, None),
            (["--set", "train.lr_decay=.inf"], None, None),
            (["--set", "mechanism.variant=paczero_zpl", "--set", "mechanism.mi_total=.nan"],
             None, None),
            (["--set", "mechanism.variant=surrogate", "--set", "mechanism.surrogate_mode=raw_full",
              "--set", "mechanism.mi_total=-1.0"], None, None),
            # booleans that once passed as numbers: YAML's yes gave a 1-nat
            # budget, and any truthy string loaded the best dev parameters
            (["--set", "mechanism.mi_total=yes"], None, None),
            (["--set", "mechanism.clip=true"], None, None),
            (["--set", "train.learning_rate=true"], None, None),
            (["--set", "train.load_best_dev=maybe"], None, None),
            # a root that is not a mapping once met the override as a TypeError
            (["--set", "label=x"], "[1, 2]\n", None),
            (["--set", "label=x"], "just a string\n", None),
            # non-finite task parameters that once trained into a traceback
            (["--set", "task.name=xor_mlp", "--set", "task.corner_noise=.nan"], None,
             "task: corner_noise must be a finite number, got nan"),
            (["--set", "task.name=quadratic", "--set", "task.target_spread=.inf"], None,
             "task: target_spread must be a finite number, got inf"),
            # a run whose parameters diverge once ended in a traceback
            (["--set", "task.name=quadratic", "--set", "train.learning_rate=1.0e+200"], None,
             "non-finite two-point estimate for record 0"),
            # YAML reads 1e-3, which has no dot, as a string; the fault once
            # named no field, or was a comparison between str and float
            (["--set", "mechanism.mi_total=1e-3"], None,
             "mechanism: mi_total must be a number, got '1e-3'"),
            (["--set", "mechanism.clip=1e-3"], None,
             "mechanism: clip must be a number, got '1e-3'"),
            (["--set", "mechanism.unanimity_tolerance=x"], None,
             "mechanism: unanimity_tolerance must be a number, got 'x'"),
            (["--set", "train.smoothing=1e-4"], None,
             "train: smoothing must be a number, got '1e-4'"),
            # task parameters that once passed the config check: a truthy
            # non-boolean the header recorded, a size that failed in the run
            # with no task: prefix, and sizes that trained a model of none
            (["--set", "task.name=quadratic", "--set", "task.identical_targets=3"], None,
             "task: identical_targets must be a boolean, got 3"),
            (["--set", "task.name=xor_mlp", "--set", "task.hidden=-1"], None,
             "task: hidden must be positive, got -1"),
            (["--set", "task.name=xor_mlp", "--set", "task.hidden=0"], None,
             "task: hidden must be positive, got 0"),
            (["--set", "task.name=quadratic", "--set", "task.dim=0"], None,
             "task: dim must be positive, got 0"),
            # sizes with no upper bound once failed as an IndexError or an
            # 8 TiB allocation
            (["--set", "task.name=xor_mlp", "--set", "task.n_records=9223372036854775808"], None,
             "task: n_records must be <= 1048576, got 9223372036854775808"),
            (["--set", "task.n_records=1099511627776"], None,
             "task: n_records must be <= 1048576, got 1099511627776"),
            (["--set", "task.name=xor_mlp", "--set", "task.input_dim=1048576",
              "--set", "task.hidden=2"], None, "task: dim must be <= 1048576, got 2097157"),
            (["--set", "task.name=quadratic", "--set", "task.n_records=1048576",
              "--set", "task.dim=1048576"], None,
             "task: n_records * dim must be <= 16777216, got 1099511627776"),
            # a repeated seed once trained twice into one seed_0/ directory
            (["--set", "seeds=[0,0]"], None, "seeds: must be distinct, got [0, 0]"),
            # --out and PACZERO_OUTPUT_ROOT name the artifact root; a config no longer does
            (["--set", "output_dir=elsewhere"], None, "unknown config keys: ['output_dir']"),
            # a finite noise scale whose samples overflow once built a task
            # with non-finite inputs
            (["--set", "task.perp_noise=1.0e+308"], None,
             "task: blobs: separation 3.0, axis_noise 0.3 and perp_noise 1e+308 give a "
             "non-finite sample"),
            # a subset count with no upper bound once failed as a 256 TiB allocation
            (["--set", "mechanism.n_subsets=1099511627776"], None,
             "mechanism: n_subsets must be <= 1048576, got 1099511627776"),
            # faults that no other in-process test reaches
            (["--set", "label.x=1"], None, "cannot descend into 'label' in override 'label.x'"),
            (["--set", "mechanism.k=2"], None, "mechanism: k must be 1 outside k_aggregate, got 2"),
            (["--set", "task.name=xor_mlp", "--set", "task.n_records=10"], None,
             "task: n_records must be a multiple of 4, got 10"),
            ([f"--set=task.{key}={value}" for key, value in FLAT_BLOBS.items()], None,
             "task: no sample cleared margin 0.5 in 1000 draws"),
        ],
        ids=[
            "label-escapes-root", "unknown-task-param", "yaml-syntax", "task-value-list",
            "task-seed-string", "train-steps-float", "train-steps-bool", "n_subsets-float",
            "k-float", "unsatisfiable-design", "learning_rate-nan", "weight_decay-nan",
            "lr_decay-inf", "zpl-mi_total-nan", "surrogate-mi_total-negative",
            "mi_total-bool", "clip-bool", "learning_rate-bool", "load_best_dev-string",
            "root-list", "root-string", "corner_noise-nan", "target_spread-inf",
            "diverging-run", "mi_total-1e-3", "clip-1e-3", "unanimity_tolerance-string",
            "smoothing-1e-4", "identical_targets-3", "hidden-negative", "hidden-0", "dim-0",
            "n_records-over-int64", "n_records-8-tib", "derived-dim-too-large",
            "n_records-times-dim-too-large", "seeds-repeated", "output_dir-removed",
            "perp_noise-1e308", "n_subsets-256-tib", "override-into-string",
            "k-outside-k_aggregate", "xor-n_records-10", "flat-blobs",
        ],
    )
    def test_config_fault_fails_cleanly(self, tmp_path, capsys, overrides, text, named):
        path = write_config(tmp_path, base_raw(seeds=[0]))
        if text is not None:
            path.write_text(text)
        out = tmp_path / "root" / "runs"
        argv = ["run", "--config", str(path), "--out", str(out), *overrides]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"FAILED invariant: {named or ''}")
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "missing file" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["validate-dir", "config-dir", "out-file"])
    def test_unusable_path_fails_cleanly(self, tmp_path, capsys, case):
        # each of these once escaped as an IsADirectoryError or
        # NotADirectoryError traceback
        config = write_config(tmp_path, base_raw(seeds=[0]))
        regular = tmp_path / "regular"
        regular.write_text("")
        argv, named = {
            "validate-dir": (["validate", str(tmp_path)], str(tmp_path)),
            "config-dir": (["run", "--config", str(tmp_path)], str(tmp_path)),
            "out-file": (["run", "--config", str(config), "--out", str(regular)], str(regular)),
        }[case]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("FAILED invariant: ") and named in err

    def test_attack_command(self, tmp_path, capsys):
        raw = base_raw(seeds=[0])
        raw["train"]["steps"] = 8
        path = write_config(tmp_path, raw)
        code = cli.main(
            ["attack", "--config", str(path), "--trials", "100", "--attack-seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rate=" in out and "bound=" in out

    def test_unsound_attack_fails(self, tmp_path, capsys, monkeypatch):
        # a rate above the bound + 3 SE is the one verdict the attack command fails on
        unsound = MiaExperimentResult(trials=100, successes=90, empirical_rate=0.9, bound=0.6,
                                      prior=0.5, standard_error=0.05)
        monkeypatch.setattr(cli, "empirical_mia_experiment", lambda *args, **kw: unsound)
        path = write_config(tmp_path, base_raw(seeds=[0]))
        assert cli.main(["attack", "--config", str(path), "--trials", "100"]) == 1
        assert capsys.readouterr().err == (
            "FAILED invariant: empirical attack rate exceeded the posterior bound + 3 SE\n"
        )

    @pytest.mark.parametrize("command, function", [
        ("sweep-mi", sweep_mi_plateau), ("sweep-t", sweep_t_ladder),
        ("sweep-decomp", sweep_decomposition), ("sweep-k", sweep_k),
    ])
    def test_sweep_flags_are_the_harness_parameters(self, command, function):
        # each swept parameter is a flag of the same name and the same default
        args = vars(cli.build_parser().parse_args([command, "--config", "config.yaml"]))
        flags = {name: args[name] for name in args.keys() - {
            "command", "config", "overrides", "out", "handler"}}
        assert flags == {name: parameter.default for name, parameter in
                         inspect.signature(function).parameters.items()
                         if name not in ("config", "out_dir")}

    def test_sweep_t_command_prints_the_drift(self, tmp_path, capsys):
        # rungs 3 and 12 tie on test accuracy here, so 3 is the best rung and
        # 12 its 4x rung
        path = write_config(tmp_path, base_raw(seeds=[0]))
        argv = ["sweep-t", "--config", str(path), "--out", str(tmp_path / "runs"),
                "--rungs", "3", "12"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.endswith("test drift at 4x best rung: +0\n")

    def test_sweep_mi_command(self, tmp_path, capsys):
        path = write_config(tmp_path, base_raw(seeds=[0]))
        code = cli.main(
            [
                "sweep-mi", "--config", str(path),
                "--out", str(tmp_path / "runs"), "--budgets", "0.01", "0.33",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "test-metric spread" in out
        assert (tmp_path / "runs" / "unit" / "sweep_mi.csv").exists()

    def test_run_command_reports_failed_validation(self, tmp_path, capsys, monkeypatch):
        # a failing report re-derives no totals; writing validation.json
        # must still succeed so the command can name the invariant
        def validate_tampered(transcript):
            beta_t = transcript.records[0].beta_t
            return validate_transcript(
                helpers.tampered_transcript(transcript, {0: {"beta_t": beta_t + 1.0}})
            )

        monkeypatch.setattr(harness, "validate_transcript", validate_tampered)
        path = write_config(tmp_path, base_raw(seeds=[0]))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "runs")])
        assert code == 1
        assert "FAILED invariant: step 1 slot 0" in capsys.readouterr().err
        report = json.loads(
            (tmp_path / "runs" / "unit" / "seed_0" / "validation.json").read_text()
        )
        assert report["ok"] is False
        assert report["cum_mi"] is None

    @pytest.mark.parametrize(
        "command", [["sweep-mi", "--budgets", "0.1"], ["sweep-k", "--ks", "1"], ["sweep-decomp"]]
    )
    def test_sweep_commands_fail_on_violation(self, tmp_path, capsys, monkeypatch, command):
        def validate_tampered(transcript):
            # the running total the trailer repeats, overstated
            cum_mi = transcript.records[-1].cum_mi
            return validate_transcript(
                helpers.tampered_transcript(transcript, {-1: {"cum_mi": cum_mi + 1.0}})
            )

        monkeypatch.setattr(harness, "validate_transcript", validate_tampered)
        raw = base_raw(seeds=[0])
        raw["train"]["steps"] = 4
        path = write_config(tmp_path, raw)
        code = cli.main([command[0], "--config", str(path), "--out", str(tmp_path / "runs")]
                        + command[1:])
        assert code == 1
        assert "FAILED invariant: step 4 slot 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--set", "train.learning_rate=.nan"],
        ["validate", "[1]\n"],
        ["attack", "--trials", "5"],
        ["sweep-t", "--rungs", "-5", "10"],
        # each of these once never returned: no Blobs sample clears the margin
        ["run", "--set", "task.separation=.nan"],
        ["run", "--set", "task.input_dim=0"],
        ["run", *(f"--set=task.{key}={value}" for key, value in FLAT_BLOBS.items())],
        ["validate", "flat-header"],
        # a run whose parameters diverge once printed NumPy's warnings first
        ["run", "--set", "task.name=quadratic", "--set", "train.learning_rate=1.0e+200"],
    ], ids=["run", "validate", "attack", "sweep-t", "separation-nan", "input_dim-0",
            "flat-geometry", "validate-flat-geometry", "diverging-run"])
    def test_process_fails_cleanly(self, small_summary, tmp_path, argv):
        # the real command, in its own process: exit 1, the fault named as
        # the one line on stderr, and within the timeout
        if argv[0] == "validate":
            bad = tmp_path / "bad.jsonl"
            if argv[1] == "flat-header":
                lines = (small_summary[1] / "seed_0" / "transcript.jsonl").read_text().splitlines()
                header = json.loads(lines[0])
                header["task_params"].update(FLAT_BLOBS)
                bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
            else:
                bad.write_text(argv[1])
            argv = ["validate", str(bad)]
        else:
            config = write_config(tmp_path, base_raw(seeds=[0]))
            argv = [argv[0], "--config", str(config), "--out", str(tmp_path / "runs"), *argv[1:]]
        done = python_process(tmp_path, "-m", "paczero.cli", *argv)
        assert done.returncode == 1, done.stderr
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith("FAILED invariant:")

    def test_process_runs_validates_and_sweeps(self, tmp_path):
        config = write_config(tmp_path, base_raw(seeds=[0]))
        runs = tmp_path / "runs"
        for argv in (
            ["run", "--config", str(config), "--out", str(runs)],
            ["validate", str(runs / "unit" / "seed_0" / "transcript.jsonl")],
            ["sweep-t", "--config", str(config), "--out", str(runs), "--rungs", "6", "12"],
            *([command, "--config", str(config), "--out", str(runs), "--set", "train.steps=4",
               *values] for command, *values in (
                ["sweep-mi", "--budgets", "0.1"], ["sweep-decomp"], ["sweep-k", "--ks", "1", "2"])),
        ):
            done = python_process(tmp_path, "-m", "paczero.cli", *argv)
            assert done.returncode == 0, done.stderr


# values a one-field edit sets: the edges of every kind a field may hold
EDGE_VALUES = [
    0, -1, 1, 3, 2**63, 10**400, 0.0, -0.0, 1e-300, 0.5, 1.5, 1e308, -1e308,
    "", "x", "inf", None, True, False, [], [1], {}, {"a": 1}, DELETED,
]


@pytest.fixture(scope="module")
def honest_lines(tmp_path_factory):
    """The decoded lines of four honest 8-step transcripts (MI, ZPL, k=2
    MI and surrogate), and a scratch file to write their edits to."""
    task = make_task("blobs", n_records=16, seed=3)
    config = TrainConfig(steps=8, learning_rate=0.2, weight_decay=0.1, dev_eval_interval=4)
    specs = [
        MechanismSpec(variant="paczero_mi", mi_total=0.25, n_subsets=8, clip=1.0),
        MechanismSpec(variant="paczero_zpl", n_subsets=8),
        MechanismSpec(variant="k_aggregate", mi_total=0.25, n_subsets=8, k=2),
        MechanismSpec(variant="surrogate", surrogate_mode="quant_full", n_subsets=8),
    ]
    lines = [
        [json.loads(line) for line in transcript_lines(train(task, config, spec).transcript)]
        for spec in specs
    ]
    return lines, tmp_path_factory.mktemp("fuzz") / "edited.jsonl"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_validate_survives_any_one_field_edit(honest_lines, data):
    # one field of an honest transcript (a header key, a key of its train,
    # mechanism or task_params object, a release or a summary key) set to an
    # edge value or deleted: validate exits 0 or 1 and raises nothing, and a
    # file that loads has the header and summary the writer writes for it
    transcripts, path = honest_lines
    objs = copy.deepcopy(data.draw(st.sampled_from(transcripts)))
    node = objs[data.draw(st.sampled_from([0, -1]) | st.integers(1, len(objs) - 2))]
    if node["type"] == "header" and data.draw(st.booleans()):
        node = node[data.draw(st.sampled_from(["train", "mechanism", "task_params"]))]
    key, value = data.draw(st.sampled_from(sorted(node))), data.draw(st.sampled_from(EDGE_VALUES))
    if value is DELETED:
        del node[key]
    else:
        node[key] = value
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")
    assert cli.main(["validate", str(path)]) in (0, 1)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # as cli.main loads it
            lines = transcript_lines(load_transcript(path))
    except SchemaError:
        return
    canonical = [json.dumps(o, sort_keys=True, separators=(",", ":")) for o in (objs[0], objs[-1])]
    assert [lines[0], lines[-1]] == canonical
