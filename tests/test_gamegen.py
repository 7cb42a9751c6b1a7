"""Tests for game generation and the JSON on-disk format."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from zsmg.games import JointPolicy, evaluate_policy_pair, uniform_policy, validate_game
from zsmg.gamegen import (
    BUILTIN_NAMES,
    GameFormatError,
    builtin,
    game_from_dict,
    game_to_dict,
    load_game,
    load_policy,
    random_game,
    save_game,
    save_policy,
)

GOLDEN_SHA256 = {
    "chain2": "be93f9139ba68aba6fb52f0cf2a7f7af5c9bd37190762adf84a069a1b1b87109",
    "const": "394fe89e6a3c3e764fcdf4d3e37287e20c78f5ef472d06d752ee8da6531e7722",
    "mp1": "a7296680f55a8a19b218b4c052f41d78d72fe45a42cda9b99943e71bde3be2f0",
    "switching-mp": "d1389e83d68cbdf97c2de6909a79d2f8b0d39d546436861da11df0cacf10e6a8",
}


class TestBuiltins:
    def test_names_sorted_and_complete(self):
        assert BUILTIN_NAMES == ("chain2", "const", "mp1", "switching-mp")

    def test_all_builtins_validate(self):
        for name in BUILTIN_NAMES:
            assert validate_game(builtin(name)) == []

    def test_gamma_override(self):
        game = builtin("mp1", gamma=0.75)
        assert game.gamma == 0.75

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin("nonesuch")

    def test_serialized_builtins_are_frozen(self, tmp_path):
        # The exact bytes of the benchmark games are part of the contract:
        # results quoted against them must stay comparable across versions.
        for name, digest in GOLDEN_SHA256.items():
            path = tmp_path / f"{name}.json"
            save_game(builtin(name), path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


class TestRandomGame:
    def test_deterministic_in_seed(self, tmp_path):
        a = random_game(seed=5, n_states=3, n_actions_p1=2, n_actions_p2=3, gamma=0.9)
        b = random_game(seed=5, n_states=3, n_actions_p1=2, n_actions_p2=3, gamma=0.9)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_game(a, pa)
        save_game(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a = random_game(seed=1, n_states=2, n_actions_p1=2, n_actions_p2=2, gamma=0.9)
        b = random_game(seed=2, n_states=2, n_actions_p1=2, n_actions_p2=2, gamma=0.9)
        assert not np.array_equal(a.loss, b.loss)

    def test_valid_for_all_shapes(self):
        for seed in range(5):
            game = random_game(seed=seed, n_states=seed % 3 + 1, n_actions_p1=2,
                               n_actions_p2=seed % 2 + 1, gamma=0.9)
            assert validate_game(game) == []

    def test_full_mixing_gives_uniform_rows(self):
        game = random_game(seed=0, n_states=4, n_actions_p1=2, n_actions_p2=2,
                           gamma=0.9, kappa=1.0)
        np.testing.assert_array_equal(game.transition, np.full(game.transition.shape, 0.25))

    def test_kappa_floor_on_transitions(self):
        game = random_game(seed=3, n_states=2, n_actions_p1=2, n_actions_p2=2,
                           gamma=0.9, kappa=0.1)
        assert game.transition.min() >= 0.05

    def test_kappa_out_of_range(self):
        with pytest.raises(ValueError):
            random_game(seed=0, n_states=1, n_actions_p1=2, n_actions_p2=2,
                        gamma=0.9, kappa=1.5)

    @pytest.mark.parametrize("field, value", [
        ("n_states", 0), ("n_actions_p1", 0), ("n_actions_p2", -1), ("n_states", 2.0),
        ("n_actions_p1", True), ("n_actions_p2", "3"),
    ])
    def test_dimensions_must_be_positive_integers(self, field, value):
        sizes = {"n_states": 2, "n_actions_p1": 2, "n_actions_p2": 2, field: value}
        with pytest.raises(ValueError, match=rf"{field} must be an integer >= 1 .*{field}="):
            random_game(seed=0, gamma=0.9, **sizes)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # -1 raised numpy's bare "expected non-negative integer", 1.5 a
        # SeedSequence TypeError, and None drew an unseeded game.
        with pytest.raises(ValueError, match=rf"^seed must be >= 0 .*got seed={seed!r}$"):
            random_game(seed=seed, n_states=2, n_actions_p1=2, n_actions_p2=2, gamma=0.9)

    def test_numpy_integer_dimensions_accepted(self):
        a = random_game(seed=4, n_states=np.int64(2), n_actions_p1=np.int32(3),
                        n_actions_p2=2, gamma=0.9)
        b = random_game(seed=4, n_states=2, n_actions_p1=3, n_actions_p2=2, gamma=0.9)
        assert game_to_dict(a) == game_to_dict(b)

    def test_name_records_seed(self):
        game = random_game(seed=17, n_states=1, n_actions_p1=2, n_actions_p2=2,
                           gamma=0.9)
        assert game.name == "random(seed=17)"


class TestGameRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        game = random_game(seed=11, n_states=3, n_actions_p1=2, n_actions_p2=4,
                           gamma=0.9)
        path = tmp_path / "game.json"
        save_game(game, path)
        loaded = load_game(path)
        np.testing.assert_array_equal(loaded.loss, game.loss)
        np.testing.assert_array_equal(loaded.transition, game.transition)
        assert loaded.gamma == game.gamma
        assert loaded.name == game.name

    def test_round_trip_preserves_evaluation_bitwise(self, tmp_path):
        game = random_game(seed=12, n_states=2, n_actions_p1=3, n_actions_p2=2,
                           gamma=0.9)
        path = tmp_path / "game.json"
        save_game(game, path)
        loaded = load_game(path)
        pol = uniform_policy(game)
        np.testing.assert_array_equal(
            evaluate_policy_pair(game, pol),
            evaluate_policy_pair(loaded, JointPolicy(x=pol.x, y=pol.y)),
        )

    def test_save_twice_identical_bytes(self, tmp_path):
        game = builtin("switching-mp")
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        save_game(game, p1)
        save_game(game, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dict_round_trip(self):
        game = builtin("mp1")
        again = game_from_dict(game_to_dict(game))
        np.testing.assert_array_equal(again.loss, game.loss)


class TestFormatErrors:
    def _valid_payload(self):
        return game_to_dict(builtin("mp1"))

    def test_missing_field_named(self):
        payload = self._valid_payload()
        del payload["gamma"]
        with pytest.raises(GameFormatError, match="gamma"):
            game_from_dict(payload)

    def test_wrong_schema_version_named(self):
        payload = self._valid_payload()
        payload["schema_version"] = 99
        with pytest.raises(GameFormatError, match="schema_version"):
            game_from_dict(payload)

    def test_bad_gamma_type_named(self):
        payload = self._valid_payload()
        payload["gamma"] = "big"
        with pytest.raises(GameFormatError, match="gamma"):
            game_from_dict(payload)

    def test_bad_dims_named(self):
        payload = self._valid_payload()
        payload["n_states"] = 0
        with pytest.raises(GameFormatError, match="n_states"):
            game_from_dict(payload)

    def test_loss_shape_mismatch_named(self):
        payload = self._valid_payload()
        payload["loss"] = [[0.0, 1.0]]
        with pytest.raises(GameFormatError, match="loss"):
            game_from_dict(payload)

    def test_transition_not_numeric_named(self):
        payload = self._valid_payload()
        payload["transition"] = [[["x"]]]
        with pytest.raises(GameFormatError, match="transition"):
            game_from_dict(payload)

    def test_invalid_game_content_rejected(self):
        payload = self._valid_payload()
        payload["loss"] = (np.array(payload["loss"]) + 5.0).tolist()
        with pytest.raises(GameFormatError, match="invalid"):
            game_from_dict(payload)

    def test_nan_loss_in_file_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        save_game(builtin("mp1"), path)
        path.write_text(path.read_text().replace("0.0", "NaN", 1))
        with pytest.raises(GameFormatError, match=r"invalid: non-finite loss at \(s=0"):
            load_game(path)

    def test_gamma_outside_contract_tolerated_on_load(self):
        # Low discounts are fine for exploratory runs; the strict check lives
        # in the run driver, not the file format.
        payload = self._valid_payload()
        payload["gamma"] = 0.3
        assert game_from_dict(payload).gamma == 0.3

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GameFormatError, match="not valid JSON"):
            load_game(path)

    def test_top_level_not_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(GameFormatError, match="JSON object"):
            load_game(path)

    def test_format_error_is_value_error(self):
        assert issubclass(GameFormatError, ValueError)


class TestPolicyFiles:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        policy = rng.dirichlet(np.ones(3), size=2)
        path = tmp_path / "pol.json"
        save_policy(policy, path)
        np.testing.assert_array_equal(load_policy(path), policy)

    def test_rejects_non_distribution_rows(self, tmp_path):
        path = tmp_path / "pol.json"
        save_policy(np.array([[0.5, 0.5]]), path)
        import json

        data = json.loads(path.read_text())
        data["policy"] = [[0.7, 0.7]]
        path.write_text(json.dumps(data))
        with pytest.raises(GameFormatError, match="policy"):
            load_policy(path)

    def test_rejects_nan_rows(self, tmp_path):
        path = tmp_path / "pol.json"
        path.write_text('{"schema_version": 1, "policy": [[0.5, 0.5], [NaN, 1.0]]}')
        with pytest.raises(GameFormatError,
                           match=r"pol\.json: policy row 1 is not a probability"):
            load_policy(path)

    def test_rejects_wrong_rank(self, tmp_path):
        import json

        path = tmp_path / "pol.json"
        path.write_text(json.dumps({"schema_version": 1, "policy": [0.5, 0.5]}))
        with pytest.raises(GameFormatError, match="policy"):
            load_policy(path)
