import json

import numpy as np
import pytest

from avrs.adversary import load_jammers
from avrs.cli import _file_fingerprint
from avrs.errors import ConfigurationError
from avrs.model import (
    load_policy,
    load_problem_spec,
    policy_from_dict,
    problem_spec_from_dict,
)

from conftest import identity_policy, wz_spec


def spec_to_dict(spec):
    """The JSON document of a problem spec, as ``load_problem_spec`` reads it."""
    return {
        "name": spec.name,
        "alphabets": {
            "x": spec.x_alphabet.size,
            "j": spec.j_alphabet.size,
            "y": spec.y_alphabet.size,
            "z": spec.z_alphabet.size,
            "xhat": spec.xhat_alphabet.size,
        },
        "p_x": spec.p_x.mass.tolist(),
        "w": spec.w.kernel.tolist(),
        "d": spec.d.entries.tolist(),
    }


def policy_to_dict(policy):
    """The JSON document of a policy, as ``load_policy`` reads it."""
    return {"p_u_given_y": policy.p_u_given_y.matrix.tolist(), "zeta": policy.zeta.tolist()}


def spec_doc():
    return {
        "name": "toy",
        "alphabets": {"x": 2, "j": 1, "y": 2, "z": 1, "xhat": 2},
        "p_x": [0.5, 0.5],
        "w": [
            [[[1.0], [0.0]]],
            [[[0.0], [1.0]]],
        ],
        "d": [[0, 1], [1, 0]],
    }


class TestProblemSpecIO:
    def test_roundtrip(self, tmp_path):
        spec = problem_spec_from_dict(spec_doc())
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        again = load_problem_spec(path)
        assert spec_to_dict(again) == spec_to_dict(spec)
        assert again.name == "toy"

    def test_missing_field(self):
        doc = spec_doc()
        del doc["p_x"]
        with pytest.raises(ConfigurationError, match="p_x"):
            problem_spec_from_dict(doc)

    def test_bad_simplex(self):
        doc = spec_doc()
        doc["p_x"] = [0.6, 0.6]
        with pytest.raises(ConfigurationError, match="sums to"):
            problem_spec_from_dict(doc)

    def test_zero_mass_source_symbol_rejected(self):
        doc = spec_doc()
        doc["p_x"] = [1.0, 0.0]
        with pytest.raises(ConfigurationError, match="positive"):
            problem_spec_from_dict(doc)

    def test_wrong_kernel_shape(self):
        doc = spec_doc()
        doc["w"] = [[[1.0, 0.0]], [[0.0, 1.0]]]
        with pytest.raises(ConfigurationError, match="w must be nested"):
            problem_spec_from_dict(doc)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "alphabets": ??\n}\n')
        with pytest.raises(ConfigurationError, match=r"broken\.json:2"):
            load_problem_spec(path)

    def test_digest_tracks_content(self, tmp_path):
        # outputs identify a spec by its file name and a digest of its bytes
        doc = spec_doc()
        a = tmp_path / "a" / "spec.json"
        b = tmp_path / "b" / "spec.json"
        for path, p_x in ((a, [0.5, 0.5]), (b, [0.4, 0.6])):
            path.parent.mkdir()
            path.write_text(json.dumps({**doc, "p_x": p_x}))
        assert _file_fingerprint(str(a)) != _file_fingerprint(str(b))
        b.write_text(a.read_text())
        assert _file_fingerprint(str(a)) == _file_fingerprint(str(b))


class TestPolicyIO:
    def test_roundtrip(self, tmp_path):
        spec = wz_spec()
        policy = identity_policy(spec)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy_to_dict(policy)))
        again = load_policy(path, spec)
        assert np.array_equal(again.p_u_given_y.matrix, policy.p_u_given_y.matrix)
        assert np.array_equal(again.zeta, policy.zeta)

    def test_row_count_must_match_y(self):
        spec = wz_spec()
        doc = {"p_u_given_y": [[1.0, 0.0]], "zeta": [[0, 0], [1, 1]]}
        with pytest.raises(ConfigurationError, match="rows"):
            policy_from_dict(doc, spec)

    def test_zeta_range_checked(self):
        spec = wz_spec()
        doc = {"p_u_given_y": [[1.0, 0.0], [0.0, 1.0]], "zeta": [[0, 5], [1, 1]]}
        with pytest.raises(ConfigurationError, match="zeta"):
            policy_from_dict(doc, spec)

    def test_dict_roundtrip(self):
        spec = wz_spec()
        policy = identity_policy(spec)
        doc = policy_to_dict(policy)
        again = policy_from_dict(json.loads(json.dumps(doc)), spec)
        assert policy_to_dict(again) == doc


LOADERS = {
    "spec": load_problem_spec,
    "policy": lambda path: load_policy(path, wz_spec()),
    "jammers": lambda path: load_jammers(path, wz_spec()),
}


class TestReadJson:
    # the spec loader's invalid-JSON case is TestProblemSpecIO's
    @pytest.mark.parametrize("kind", ["policy", "jammers"])
    def test_invalid_json_reports_line(self, kind, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "kind": ??\n}\n')
        with pytest.raises(ConfigurationError, match=r"broken\.json:2:11: invalid JSON"):
            LOADERS[kind](path)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_missing_file(self, kind, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigurationError, match=r"absent\.json: cannot read"):
            LOADERS[kind](path)
