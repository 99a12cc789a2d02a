"""Model persistence: exact JSON round trips."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffnb.boosting import TrainConfig, train
from diffnb.inference import batch_log_scores, posterior
from diffnb.modelfile import (
    FORMAT_NAME,
    FORMAT_VERSION,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)

from conftest import query_rows, small_problems, xor_dataset


def assert_models_equal(a, b):
    assert a.schema == b.schema
    assert a.topology == b.topology
    assert a.config == b.config
    assert a.trace == b.trace
    assert a.density.bin_specs == b.density.bin_specs
    assert a.density.n_train == b.density.n_train
    assert np.array_equal(a.density.counts, b.density.counts)
    assert np.array_equal(a.density.window_lo, b.density.window_lo)
    assert np.array_equal(a.density.window_hi, b.density.window_hi)
    assert np.array_equal(a.weights, b.weights)


class TestRoundTrip:
    def test_xor_model_survives_byte_for_byte(self, tmp_path):
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        path = tmp_path / "xor.model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert_models_equal(model, loaded)
        values = xor_dataset().value_matrix()
        assert np.array_equal(batch_log_scores(model, values), batch_log_scores(loaded, values))
        # a second save is byte-identical
        assert model_to_json(loaded) == model_to_json(model)

    def test_file_ends_with_newline(self, tmp_path):
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        path = tmp_path / "m.json"
        save_model(model, path)
        assert path.read_text().endswith("}\n")

    @given(small_problems(max_n=12, max_attrs=3))
    def test_any_trained_model_round_trips(self, problem):
        data, topology = problem
        model, _ = train(data, TrainConfig(max_rounds=3, topology=topology))
        assert_models_equal(model, model_from_json(model_to_json(model)))

    def test_awkward_weight_values_survive(self):
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        weights = model.weights.copy()
        weights[0, 0, 0] = np.nextafter(1.0, 2.0)
        weights[1, 1, 1] = 3.0000000000000004  # not shortest-decimal friendly
        import dataclasses

        tweaked = dataclasses.replace(model, weights=weights)
        loaded = model_from_json(model_to_json(tweaked))
        assert np.array_equal(loaded.weights, weights)

    def test_ragged_topologies_pad_back(self):
        # mixed bin counts exercise the ragged store and the rebuilt padding
        from diffnb.dataset import AttributeSpec, Dataset, Schema

        schema = Schema(
            (AttributeSpec("a", "continuous"), AttributeSpec("b", "continuous")),
            ("c0", "c1"),
        )
        rows = [((0.0, 0.0), 0), ((1.0, 3.0), 0), ((2.0, 1.0), 1), ((3.0, 2.0), 1)]
        model, _ = train(Dataset.build(schema, rows), TrainConfig(topology=(2, 4)))
        doc = json.loads(model_to_json(model))
        assert [len(per) for per in doc["counts"][0]] == [2, 4]
        loaded = model_from_json(model_to_json(model))
        assert_models_equal(model, loaded)
        assert loaded.weights.shape == (2, 2, 4)
        # padding cells stay at their neutral values
        assert np.all(loaded.weights[:, 0, 2:] == 1.0)
        assert np.all(loaded.density.counts[:, 0, 2:] == 0)

    @given(small_problems(max_n=12, max_attrs=3), st.data())
    def test_posteriors_survive_byte_for_byte(self, problem, extra):
        # the loaded model builds its scoring tables afresh from the file's
        # arrays; its posteriors must be the trained model's, bit for bit
        data, topology = problem
        model, _ = train(data, TrainConfig(max_rounds=3, topology=topology))
        loaded = model_from_json(model_to_json(model))
        m = data.schema.n_attributes
        rows = list(data.value_matrix()[:4])
        rows += extra.draw(st.lists(query_rows(m), min_size=1, max_size=4))
        for row in rows:
            want = np.array(posterior(model, row).probabilities)
            assert np.array(posterior(loaded, row).probabilities).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "array",
        [
            lambda m: m.density.counts,
            lambda m: m.density.window_lo,
            lambda m: m.density.window_hi,
            lambda m: m.weights,
        ],
        ids=["counts", "lo", "hi", "weights"],
    )
    def test_loaded_arrays_are_read_only(self, array):
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        target = array(model_from_json(model_to_json(model)))
        with pytest.raises(ValueError, match="read-only"):
            target[0] = target[1]


def reference_document(model) -> dict:
    """The model file's document as nested Python values, built cell by cell: the writer's oracle."""
    k_n, m_n = model.schema.n_classes, model.schema.n_attributes
    density, topology = model.density, model.topology

    def cells(array, kind):
        return [[[kind(v) for v in array[k, m, : topology[m]]] for m in range(m_n)] for k in range(k_n)]

    def tags(k, m, b):
        if density.counts[k, m, b] <= 0:
            return None
        return [None if j == m else [float(density.window_lo[k, m, b, j]), float(density.window_hi[k, m, b, j])]
                for j in range(m_n)]

    tokens = model.schema.class_tokens or model.schema.classes
    attributes = [dict({"name": a.name, "kind": a.kind}, **({} if a.values is None else {"values": list(a.values)}))
                  for a in model.schema.attributes]
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "schema": {"classes": [{"label": c, "token": t} for c, t in zip(model.schema.classes, tokens)],
                   "attributes": attributes},
        "topology": list(topology),
        "n_train": density.n_train,
        "bin_specs": [{"lo": s.lo, "hi": s.hi, "count": s.count} for s in density.bin_specs],
        "counts": cells(density.counts, int),
        "tags": [[[tags(k, m, b) for b in range(topology[m])] for m in range(m_n)] for k in range(k_n)],
        "weights": cells(model.weights, float),
        "config": {"alpha": model.config.alpha, "max_rounds": model.config.max_rounds,
                   "tag_gain": model.config.tag_gain, "epsilon_floor": model.config.epsilon_floor},
        "trace": {"miss_counts": list(model.trace.miss_counts)},
    }


class TestWriter:
    """model_to_json writes json.dumps(doc, indent=1)'s bytes, without json's pure-Python encoder."""

    def test_fitted_models_byte_for_byte(self):
        from diffnb.monks import MONKS_BINS, generate_monks

        texts = []
        for problem in (1, 2, 3):
            model, _ = train(generate_monks(problem)[0], TrainConfig(topology=MONKS_BINS, max_rounds=20))
            texts.append(model_to_json(model))
            assert texts[-1] == json.dumps(reference_document(model), indent=1)
        model, _ = train(xor_dataset(), TrainConfig(topology=(2, 5)))
        texts.append(model_to_json(model))
        assert texts[-1] == json.dumps(reference_document(model), indent=1)
        assert all("null" in text for text in texts)  # empty cells

    def test_infinite_window_bounds(self):
        import dataclasses

        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        lo, hi = model.density.window_lo.copy(), model.density.window_hi.copy()
        lo[0, 0, 0, 1], hi[1, 1, 1, 0] = -np.inf, np.inf
        density = dataclasses.replace(model.density, window_lo=lo, window_hi=hi)
        model = dataclasses.replace(model, density=density)
        text = model_to_json(model)
        assert text == json.dumps(reference_document(model), indent=1)
        assert "-Infinity" in text and "\n      Infinity" in text
        assert_models_equal(model, model_from_json(text))

    @given(small_problems(max_n=12, max_attrs=3))
    def test_any_trained_model_byte_for_byte(self, problem):
        data, topology = problem
        model, _ = train(data, TrainConfig(max_rounds=3, topology=topology))
        assert model_to_json(model) == json.dumps(reference_document(model), indent=1)

    def test_awkward_values(self):
        import dataclasses

        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        weights = model.weights.copy()
        weights[0, 0, 0] = np.nextafter(1.0, 2.0)
        weights[1, 1, 1] = 1e300
        weights[1, 0, 1] = 5e-324
        tweaked = dataclasses.replace(model, weights=weights)
        assert model_to_json(tweaked) == json.dumps(reference_document(tweaked), indent=1)


class TestSaveIsWholeOrNothing:
    """A save that fails partway leaves the old model file as it was, and no temporary file."""

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
    def test_a_write_that_fails_partway_keeps_the_old_file(self, tmp_path, monkeypatch, error):
        path = tmp_path / "model.json"
        old, _ = train(xor_dataset(), TrainConfig(topology=2))
        save_model(old, path)
        before = path.read_bytes()
        new, _ = train(xor_dataset(), TrainConfig(topology=2, tag_gain=0.5))
        assert model_to_json(new) != model_to_json(old)
        write_text = Path.write_text

        def half_then_fail(self, text, *args, **kwargs):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise error

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        with pytest.raises(type(error)):
            save_model(new, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        save_model(new, path)
        assert_models_equal(load_model(path), new)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_a_new_file_is_not_left_half_written(self, tmp_path, monkeypatch):
        def fail_after_one_byte(self, text, **kwargs):
            self.write_bytes(text[:1].encode())
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", fail_after_one_byte)
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        with pytest.raises(OSError):
            save_model(model, tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []


    def test_a_link_is_followed_and_kept(self, tmp_path):
        target, link = tmp_path / "models" / "model.json", tmp_path / "model.json"
        target.parent.mkdir()
        link.symlink_to(target)
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        for _ in range(2):
            save_model(model, link)
            assert link.is_symlink() and target.read_text() == model_to_json(model) + "\n"
        assert sorted(p.name for p in target.parent.iterdir()) == ["model.json"]


class TestFormatGuards:
    def test_wrong_format_name(self):
        with pytest.raises(ValueError, match=f"not a {FORMAT_NAME} file"):
            model_from_json(json.dumps({"format": "something-else", "version": 1}))

    def test_wrong_version(self):
        with pytest.raises(ValueError, match="unsupported model format version"):
            model_from_json(json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION + 1}))

    def test_header_fields_present(self):
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        doc = json.loads(model_to_json(model))
        assert doc["format"] == FORMAT_NAME
        assert doc["version"] == FORMAT_VERSION
        assert doc["topology"] == [2, 2]
        assert doc["n_train"] == 4
