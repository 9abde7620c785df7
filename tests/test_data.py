import csv
import gc
import json
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from dp_la import data
from dp_la.data import (
    ColumnKind,
    Dataset,
    RawTable,
    TabularSchema,
    four_way_split,
    load_csv,
    preprocess,
    synth_generate,
    write_raw_csv,
)
from dp_la.model import TrainConfig, accuracy, predict, train


def schema_age_region_result():
    return TabularSchema(
        columns=(
            ("age", ColumnKind.NUMERIC),
            ("region", ColumnKind.CATEGORICAL),
            ("result", ColumnKind.TARGET),
        ),
        positive_labels=frozenset({"pass"}),
    )


class TestSchema:
    def test_requires_exactly_one_target(self):
        with pytest.raises(ValueError, match="target"):
            TabularSchema(columns=(("a", ColumnKind.NUMERIC),), positive_labels=frozenset({"x"}))

    def test_requires_positive_labels(self):
        with pytest.raises(ValueError, match="positive_labels"):
            TabularSchema(columns=(("t", ColumnKind.TARGET),), positive_labels=frozenset())

    def test_json_round_trip(self, tmp_path):
        schema = schema_age_region_result()
        schema.to_json(tmp_path / "schema.json")
        assert TabularSchema.from_json(tmp_path / "schema.json") == schema

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            pytest.param(lambda doc: doc.update(version=2),
                         "unknown key.*schema: version", id="unknown-key"),
            pytest.param(lambda doc: doc["columns"][1].update(type="x"),
                         "unknown key.*schema column 1: type", id="unknown-column-key"),
            pytest.param(lambda doc: doc.pop("positive_labels"),
                         "missing key.*schema: positive_labels", id="no-positive-labels"),
            pytest.param(lambda doc: doc["columns"][0].pop("name"),
                         "missing key.*schema column 0: name", id="column-without-name"),
            pytest.param(lambda doc: doc["columns"][2].pop("kind"),
                         "missing key.*schema column 2: kind", id="column-without-kind"),
            pytest.param(lambda doc: doc.update(positive_labels="pass"),
                         "list of strings", id="labels-as-string"),
            pytest.param(lambda doc: doc.update(positive_labels=[1]),
                         "list of strings", id="label-not-a-string"),
            pytest.param(lambda doc: doc.update(columns={"age": "numeric"}),
                         "columns must be a list", id="columns-as-object"),
        ],
    )
    def test_from_json_is_strict(self, tmp_path, edit, message):
        path = tmp_path / "schema.json"
        schema_age_region_result().to_json(path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            TabularSchema.from_json(path)


class TestLoadCsv:
    def test_three_row_ingestion(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n30,east,pass\n40,west,fail\n50,east,pass\n")
        raw = load_csv(p, schema_age_region_result())
        assert raw.n_rows == 3
        assert raw.numeric["age"].tolist() == [30.0, 40.0, 50.0]
        assert raw.categorical["region"] == ["east", "west", "east"]

    def test_missing_column_names_it(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region\n30,east\n")
        with pytest.raises(ValueError, match="'result'"):
            load_csv(p, schema_age_region_result())

    def test_unparsable_numeric_cites_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n30,east,pass\nN/A,west,fail\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(p, schema_age_region_result())

    def test_duplicate_schema_column_names_it(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,age,result\n30,east,31,pass\n")
        with pytest.raises(ValueError, match="column 'age' appears more than once"):
            load_csv(p, schema_age_region_result())

    def test_overlong_row_cites_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n30,east,pass\n40,west,fail,extra\n")
        with pytest.raises(ValueError, match="row 2 has 4 cells, expected 3"):
            load_csv(p, schema_age_region_result())

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(p, schema_age_region_result())


    def test_blank_line_is_a_row_of_zero_cells(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n30,east,pass\n\n40,west,fail\n")
        with pytest.raises(ValueError, match="row 2 has 0 cells, expected 3"):
            load_csv(p, schema_age_region_result())

    def test_first_of_several_short_rows_is_reported(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n30,east,pass\n40,west\n50\n60,east,pass,x\n")
        with pytest.raises(ValueError, match="row 2 has 2 cells, expected 3"):
            load_csv(p, schema_age_region_result())

    def test_cell_counts_are_checked_before_numbers(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\nN/A,east,pass\n40,west\n")
        with pytest.raises(ValueError, match="row 2 has 2 cells, expected 3"):
            load_csv(p, schema_age_region_result())

    def test_first_of_several_bad_numbers_is_reported(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n30,east,pass\n?,west,fail\nN/A,east,pass\n")
        with pytest.raises(ValueError, match=r"row 2, column 'age': cannot parse '\?'"):
            load_csv(p, schema_age_region_result())

    def test_bad_number_on_the_last_row_cites_it(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n30,east,pass\n40,west,fail\nforty,east,pass\n")
        with pytest.raises(ValueError, match="row 3, column 'age': cannot parse 'forty'"):
            load_csv(p, schema_age_region_result())

    def test_header_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(p, schema_age_region_result())

    @pytest.mark.parametrize("collecting", [True, False])
    def test_collector_state_is_restored(self, tmp_path, collecting):
        good, short = tmp_path / "good.csv", tmp_path / "short.csv"
        good.write_text("age,region,result\n30,east,pass\n")
        short.write_text("age,region,result\n30,east\n")
        before = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            load_csv(good, schema_age_region_result())
            assert gc.isenabled() is collecting
            with pytest.raises(ValueError, match="row 1 has 2 cells"):
                load_csv(short, schema_age_region_result())
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if before else gc.disable)()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "age,region,result\n30,east,pass\n40,west,fail\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want = load_csv(plain, schema_age_region_result())
        got = load_csv(marked, schema_age_region_result())
        assert got.n_rows == want.n_rows == 2
        assert got.numeric.keys() == want.numeric.keys()
        assert got.numeric["age"].tobytes() == want.numeric["age"].tobytes()
        assert got.categorical == want.categorical
        assert got.target == want.target

    def test_equal_category_cells_are_one_object(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 2)
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n1,east,pass\n2,west,fail\n3,east,pass\n4,west,pass\n")
        raw = load_csv(p, schema_age_region_result())
        region = raw.categorical["region"]
        assert region == ["east", "west", "east", "west"]
        assert region[0] is region[2] and region[1] is region[3]
        assert raw.target[0] is raw.target[2] is raw.target[3]


class TestLoadCsvInBlocks:
    """load_csv streams the file in blocks of _BLOCK_ROWS rows; with blocks of
    two rows, each check must still report what a whole-file read would."""

    @pytest.fixture(autouse=True)
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 2)

    def test_short_row_in_a_later_block_beats_an_earlier_bad_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\nN/A,east,pass\n2,west,fail\n3,east,pass\n"
                     "4,west,fail\n5,east\n6,west,fail\n")
        with pytest.raises(ValueError, match="row 5 has 2 cells, expected 3"):
            load_csv(p, schema_age_region_result())

    def test_bad_number_in_the_second_block_cites_its_file_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n1,east,pass\n2,west,fail\n3,east,pass\n"
                     "x4,west,fail\n5,east,pass\nx6,west,fail\n")
        with pytest.raises(ValueError, match="row 4, column 'age': cannot parse 'x4'"):
            load_csv(p, schema_age_region_result())

    def test_first_bad_column_in_schema_order_is_reported(self, tmp_path):
        schema = TabularSchema(
            columns=(
                ("age", ColumnKind.NUMERIC),
                ("score", ColumnKind.NUMERIC),
                ("result", ColumnKind.TARGET),
            ),
            positive_labels=frozenset({"pass"}),
        )
        p = tmp_path / "d.csv"
        # score fails in block 1, age only in block 2: age comes first in the schema.
        p.write_text("score,age,result\nbad,1,pass\n2,2,fail\n3,old,pass\n")
        with pytest.raises(ValueError, match="row 3, column 'age': cannot parse 'old'"):
            load_csv(p, schema)

    @pytest.mark.parametrize("blank_row", [2, 3])
    def test_blank_line_at_a_block_boundary(self, tmp_path, blank_row):
        rows = ["1,east,pass", "2,west,fail", "3,east,pass", "4,west,fail"]
        rows.insert(blank_row - 1, "")
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"row {blank_row} has 0 cells, expected 3"):
            load_csv(p, schema_age_region_result())

    def test_row_count_a_multiple_of_the_block_size(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n1,east,pass\n2,west,fail\n3,east,pass\n4,north,fail\n")
        raw = load_csv(p, schema_age_region_result())
        assert raw.n_rows == 4
        assert raw.numeric["age"].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert raw.categorical["region"] == ["east", "west", "east", "north"]
        assert raw.target == ["pass", "fail", "pass", "fail"]

    def test_header_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(p, schema_age_region_result())


def test_load_csv_peak_memory_is_bounded(tmp_path):
    """A 50k-row file must load without holding every cell as a row at once.

    tracemalloc peak of load_csv on this file (numpy 2.4, Python 3.11):
    24.2 MiB when the whole file is read as rows and then transposed, 4.5 MiB
    when it is streamed in blocks of 4096 rows; the 12 MiB bound sits between.
    """
    rng = np.random.default_rng(8)
    n = 50_000
    regions = ("North", "South", "East", "West")
    schema = TabularSchema(
        columns=(
            ("credits", ColumnKind.NUMERIC),
            ("score", ColumnKind.NUMERIC),
            ("region", ColumnKind.CATEGORICAL),
            ("band", ColumnKind.CATEGORICAL),
            ("gender", ColumnKind.CATEGORICAL),
            ("result", ColumnKind.TARGET),
        ),
        positive_labels=frozenset({"Pass"}),
    )
    p = tmp_path / "d.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([name for name, _ in schema.columns])
        for credits, score, region, band, gender, passed in zip(
            rng.choice([30, 60, 90, 120], size=n).tolist(),
            np.round(rng.normal(65.0, 15.0, size=n), 1).tolist(),
            rng.integers(len(regions), size=n).tolist(),
            rng.integers(3, size=n).tolist(),
            rng.integers(2, size=n).tolist(),
            rng.integers(2, size=n).tolist(),
        ):
            writer.writerow([credits, repr(score), regions[region],
                             ("0-30%", "30-70%", "70-100%")[band], "FM"[gender],
                             ("Fail", "Pass")[passed]])

    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        raw = load_csv(p, schema)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert raw.n_rows == n
    assert peak < 12 * 2**20, f"load_csv peak {peak / 2**20:.1f} MiB"


def reference_ingest(path, schema):
    """A plain per-row loader and preprocessor, kept as the behaviour that
    load_csv + preprocess must reproduce: (features, labels, names, bounds)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    at = {name: header.index(name) for name, kind in schema.columns if kind is not ColumnKind.DROP}
    columns, names, bounds = [], [], {}
    for name, kind in schema.columns:
        if kind is ColumnKind.NUMERIC:
            values = [float(row[at[name]]) for row in rows]
            lo, hi = min(values), max(values)
            bounds[name] = (lo, hi)
            columns.append([(v - lo) / (hi - lo) if hi > lo else 0.0 for v in values])
            names.append(name)
        elif kind is ColumnKind.CATEGORICAL:
            cells = [row[at[name]] for row in rows]
            for category in sorted(set(cells)):
                columns.append([1.0 if c == category else 0.0 for c in cells])
                names.append(f"{name}={category}")
    target = at[schema.target_column]
    labels = [1 if row[target] in schema.positive_labels else 0 for row in rows]
    return np.array(columns).T, np.array(labels), tuple(names), bounds


class TestIngestMatchesReference:
    def test_awkward_table(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 400
        cities = ("São Paulo", "Zürich", "東京", "a,b", 'say "hi"', "plain")
        schema = TabularSchema(
            columns=(
                ("note", ColumnKind.DROP),
                ("score", ColumnKind.NUMERIC),
                ("city", ColumnKind.CATEGORICAL),
                ("flat", ColumnKind.NUMERIC),
                ("kind", ColumnKind.CATEGORICAL),
                ("outcome", ColumnKind.TARGET),
            ),
            positive_labels=frozenset({"pass"}),  # never present: every label is 0
        )
        scores = []
        for v in rng.normal(50.0, 20.0, size=n).tolist():
            form = rng.integers(4)
            scores.append((repr(v), f"  {v:.3f} ", f"{int(abs(v)) * 1000:_}", str(int(v)))[form])
        with open(tmp_path / "d.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["note", "score", "extra", "city", "flat", "kind", "outcome"])
            for i in range(n):
                writer.writerow([f'n{i}, "quoted"', scores[i], "ignored", cities[rng.integers(6)],
                                 "7", "only", ("fail", "withdrawn")[rng.integers(2)]])

        ds = preprocess(load_csv(tmp_path / "d.csv", schema), schema)
        features, labels, names, bounds = reference_ingest(tmp_path / "d.csv", schema)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.features.shape == features.shape
        assert ds.labels.dtype == labels.dtype and ds.labels.tolist() == labels.tolist()
        assert not ds.labels.any()
        assert ds.feature_names == names
        assert ds.normalization_bounds == bounds
        assert "city=São Paulo" in names and "city=a,b" in names and 'city=say "hi"' in names
        assert "kind=only" in names and bounds["flat"] == (7.0, 7.0)

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_awkward_table_in_small_blocks(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows)
        self.test_awkward_table(tmp_path)


class TestPreprocess:
    def test_minmax_scaling(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n10,east,pass\n20,east,fail\n30,east,pass\n")
        ds = preprocess(load_csv(p, schema_age_region_result()), schema_age_region_result())
        assert ds.features[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert ds.normalization_bounds["age"] == (10.0, 30.0)

    def test_one_hot_encoding_sorted_categories(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n1,B,pass\n2,A,fail\n")
        ds = preprocess(load_csv(p, schema_age_region_result()), schema_age_region_result())
        assert ds.feature_names == ("age", "region=A", "region=B")
        assert ds.features[0, 1:].tolist() == [0.0, 1.0]
        assert ds.features[1, 1:].tolist() == [1.0, 0.0]

    def test_binary_target_mapping(self, tmp_path):
        schema = TabularSchema(
            columns=(("score", ColumnKind.NUMERIC), ("final_result", ColumnKind.TARGET)),
            positive_labels=frozenset({"Distinction", "Pass"}),
        )
        p = tmp_path / "d.csv"
        p.write_text(
            "score,final_result\n1,Distinction\n2,Pass\n3,Fail\n4,Withdrawn\n"
        )
        ds = preprocess(load_csv(p, schema), schema)
        assert ds.labels.tolist() == [1, 1, 0, 0]

    def test_constant_column_maps_to_zero(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,region,result\n5,east,pass\n5,east,fail\n")
        ds = preprocess(load_csv(p, schema_age_region_result()), schema_age_region_result())
        assert ds.features[:, 0].tolist() == [0.0, 0.0]

    def test_one_hot_blocks_sum_to_one_each_row(self):
        raw, schema = synth_generate(300, 2, 3, 1.0, seed=5)
        ds = preprocess(raw, schema)
        for j in range(3):
            cols = [i for i, n in enumerate(ds.feature_names) if n.startswith(f"c{j}=")]
            np.testing.assert_array_equal(ds.features[:, cols].sum(axis=1), np.ones(300))

    def test_rescaling_unit_interval_with_unit_bounds_is_identity(self):
        raw, schema = synth_generate(200, 3, 0, 1.0, seed=5)
        ds = preprocess(raw, schema)
        col = ds.features[:, 0]
        rescaled = (col - 0.0) / (1.0 - 0.0)
        np.testing.assert_array_equal(rescaled, col)


class TestFourWaySplit:
    def build(self, n, seed=0):
        labels = np.arange(n) % 2
        features = np.linspace(0, 1, n)[:, None]
        return Dataset(features, labels, ("x",), {})

    def test_even_quarters(self):
        split = four_way_split(self.build(100), seed=1)
        sizes = [len(v) for v in astuple(split)]
        assert sizes == [25, 25, 25, 25]

    def test_odd_remainder_policy(self):
        split = four_way_split(self.build(101), seed=1)
        victim = len(split.victim_train) + len(split.victim_test)
        attack = len(split.attack_train) + len(split.attack_test)
        assert (victim, attack) == (51, 50)
        assert len(split.victim_train) == 26  # train over test
        assert len(split.victim_test) == 25

    def test_deterministic(self):
        ds = self.build(64)
        a, b = four_way_split(ds, seed=9), four_way_split(ds, seed=9)
        for pa, pb in zip(astuple(a), astuple(b)):
            np.testing.assert_array_equal(pa, pb)

    def test_disjoint_and_covering(self):
        ds = self.build(97)
        split = four_way_split(ds, seed=3)
        combined = np.concatenate(astuple(split))
        assert len(set(combined.tolist())) == 97 == len(combined)

    def test_stratification_within_two_points(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(500) < 0.3).astype(int)
        ds = Dataset(np.zeros((500, 1)), labels, ("x",), {})
        split = four_way_split(ds, seed=4)
        global_rate = labels.mean()
        for part in astuple(split):
            assert abs(labels[part].mean() - global_rate) <= 0.02

    def test_too_small_errors(self):
        with pytest.raises(ValueError):
            four_way_split(self.build(7), seed=0)
        one_class = Dataset(np.zeros((20, 1)), np.zeros(20, dtype=int), ("x",), {})
        with pytest.raises(ValueError, match="each class"):
            four_way_split(one_class, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            four_way_split(self.build(100), seed=0, inner_train_fraction=1.0)


class TestSynthGenerate:
    def test_baseline_learnability_oracle(self):
        raw, schema = synth_generate(1000, 5, 2, 2.0, seed=7)
        ds = preprocess(raw, schema)
        split = four_way_split(ds, seed=0)
        model = train(ds.features[split.victim_train], ds.labels[split.victim_train], TrainConfig())
        acc = accuracy(predict(model, ds.features[split.victim_test]), ds.labels[split.victim_test])
        assert acc > 0.85

    def test_zero_separation_is_chance_level(self):
        raw, schema = synth_generate(1000, 5, 2, 0.0, seed=7)
        ds = preprocess(raw, schema)
        split = four_way_split(ds, seed=0)
        model = train(ds.features[split.victim_train], ds.labels[split.victim_train], TrainConfig())
        acc = accuracy(predict(model, ds.features[split.victim_test]), ds.labels[split.victim_test])
        assert acc == pytest.approx(0.5, abs=0.06)

    def test_byte_identical_emission(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            raw, schema = synth_generate(100, 3, 1, 1.5, seed=9)
            write_raw_csv(raw, schema, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_emission_bytes_are_pinned(self, tmp_path):
        schema = TabularSchema(
            columns=(
                ("x", ColumnKind.NUMERIC),
                ("note", ColumnKind.DROP),
                ("city", ColumnKind.CATEGORICAL),
                ("y", ColumnKind.NUMERIC),
                ("outcome", ColumnKind.TARGET),
            ),
            positive_labels=frozenset({"pos"}),
        )
        raw = RawTable(
            numeric={"x": np.array([0.1, -3.0, 1e-7]), "y": np.array([123456789.125, 2.0, 1 / 3])},
            categorical={"city": ["São Paulo", "a,b", 'say "hi"']},
            target=["pos", "neg", "pos, maybe"],
            n_rows=3,
        )
        write_raw_csv(raw, schema, tmp_path / "pinned.csv")
        assert (tmp_path / "pinned.csv").read_bytes() == (
            'x,city,y,outcome\n'
            '0.1,São Paulo,123456789.125,pos\n'
            '-3.0,"a,b",2.0,neg\n'
            '1e-07,"say ""hi""",0.3333333333333333,"pos, maybe"\n'
        ).encode("utf-8")

    def test_balanced_target(self):
        raw, _ = synth_generate(500, 2, 0, 1.0, seed=1)
        assert raw.target.count("pos") == 250

    @pytest.mark.parametrize("kwargs", [dict(n=4), dict(d_numeric=0), dict(d_categorical=-1)])
    def test_rejects_degenerate_dimensions(self, kwargs):
        args = dict(n=100, d_numeric=2, d_categorical=1, class_separation=1.0, seed=0)
        args.update(kwargs)
        with pytest.raises(ValueError):
            synth_generate(**args)

