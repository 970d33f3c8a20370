import copy
import json

import numpy as np
import pytest

from avrs.adversary import (
    Jammer,
    deterministic_jammer,
    fixed_vector_jammer,
    jammer_from_dict,
    load_jammers,
)
from avrs.cli import _file_fingerprint
from avrs.errors import ConfigurationError
from avrs.model import (
    AuxiliaryPolicy,
    ProblemSpec,
    index_table,
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
            "x": spec.w.shape[0],
            "j": spec.w.shape[1],
            "y": spec.w.shape[2],
            "z": spec.w.shape[3],
            "xhat": spec.d.shape[1],
        },
        "p_x": spec.p_x.tolist(),
        "w": spec.w.tolist(),
        "d": spec.d.tolist(),
    }


def policy_to_dict(policy):
    """The JSON document of a policy, as ``load_policy`` reads it."""
    return {"p_u_given_y": policy.p_u_given_y.tolist(), "zeta": policy.zeta.tolist()}


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
        with pytest.raises(ConfigurationError, match=r"w has shape \(2, 1, 2\)"):
            problem_spec_from_dict(doc)

    def test_arrays_must_match_the_alphabets_block(self):
        doc = spec_doc()
        doc["alphabets"]["xhat"] = 3
        with pytest.raises(ConfigurationError, match=r"d has shape \(2, 2\), but the alphabets give \(2, 3\)"):
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
        assert np.array_equal(again.p_u_given_y, policy.p_u_given_y)
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


def _set(path, value):
    """A document edit: put ``value`` at the nested index ``path``."""

    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


# spec_doc() edits; each must be refused by the loader, and the last element
# says whether ``ProblemSpec`` alone, without the alphabets block, refuses it too
SPEC_CASES = {
    "x-size mismatch": (_set(["p_x"], [0.2, 0.3, 0.5]), "size of X", True),
    "negative p_x": (_set(["p_x"], [-0.5, 1.5]), "p_x has negative", True),
    "negative w": (_set(["w", 0, 0], [[1.1], [-0.1]]), "w has negative", True),
    "w row sum off": (_set(["w", 1, 0, 1, 0], 0.9), r"w at \(1, 0\) sums to 0.9", True),
    "p_x sum off": (_set(["p_x"], [0.6, 0.6]), "p_x sums to 1.2", True),
    "zero-mass source symbol": (_set(["p_x"], [1.0, 0.0]), "positive probability", True),
    "NaN p_x": (_set(["p_x"], [float("nan"), 0.5]), "p_x has non-finite", True),
    "NaN w": (_set(["w", 0, 0, 0, 0], float("nan")), "w has non-finite", True),
    "infinite d": (_set(["d", 0, 1], float("inf")), "d has non-finite", True),
    "negative d": (_set(["d", 0, 1], -1.0), "d has negative", True),
    "non-numeric d": (_set(["d", 0, 1], "one"), "d: not a numeric array", True),
    "quoted p_x": (_set(["p_x"], ["0.5", "0.5"]), "p_x: not a numeric array", True),
    "boolean d": (_set(["d"], [[False, True], [True, False]]), "d: not a numeric array", True),
    "boolean in numeric d": (_set(["d"], [[0, True], [True, 0]]), "d: not a numeric array", True),
    "boolean in numeric w": (_set(["w", 0, 0], [[True], [0.0]]), "w: not a numeric array", True),
    "boolean alphabet size": (_set(["alphabets", "j"], True), r"alphabets\['j'\] must be a positive integer", False),
}

# policy documents for wz_spec (|Y| = |Z| = |Xhat| = 2); the last element
# says whether ``AuxiliaryPolicy`` alone, without the spec, refuses it too
GOOD_POLICY = {"p_u_given_y": [[1.0, 0.0], [0.0, 1.0]], "zeta": [[0, 0], [1, 1]]}
POLICY_CASES = {
    "negative p(u|y)": (_set(["p_u_given_y", 0], [-0.1, 1.1]), "negative", True),
    "p(u|y) row sum off": (_set(["p_u_given_y", 1], [0.5, 0.6]), r"at \(1,\) sums to 1.1", True),
    "NaN p(u|y)": (_set(["p_u_given_y", 0], [float("nan"), 1.0]), "non-finite", True),
    "p(u|y) rows != |Y|": (_set(["p_u_given_y"], [[1.0, 0.0]]), "2 rows", False),
    "zeta rows != |U|": (_set(["zeta"], [[0, 0]]), "one row per u", True),
    "zeta columns != |Z|": (_set(["zeta"], [[0], [1]]), "2 columns", False),
    "zeta above Xhat": (_set(["zeta", 0, 1], 2), "reconstruction alphabet", False),
    "zeta negative": (_set(["zeta", 0, 1], -1), "outside", True),
    "zeta fractional": (_set(["zeta", 0, 0], 0.7), "0.7 is not an integer", True),
    "zeta string": (_set(["zeta", 0], ["0", "0"]), "'0' is not an integer", True),
    "zeta boolean": (_set(["zeta", 1], [True, True]), "True is not an integer", True),
}

# jammer documents for wz_spec (|X| = |J| = 2), with the direct construction
JAMMER_CASES = {
    "q row sum off": ({"kind": "memoryless", "q": [[0.5, 0.5], [0.9, 0.2]]}, "sums to 1.1"),
    "q negative": ({"kind": "memoryless", "q": [[-0.1, 1.1], [0.5, 0.5]]}, "negative"),
    "q NaN": ({"kind": "memoryless", "q": [[float("nan"), 0.5], [0.5, 0.5]]}, "non-finite"),
    "q not numeric": ({"kind": "memoryless", "q": "uniform"}, "not a numeric array"),
    "q strings": ({"kind": "memoryless", "q": [["0.5", "0.5"], ["1", "0"]]}, "not a numeric array"),
    "q booleans": ({"kind": "memoryless", "q": [[True, False], [False, True]]}, "not a numeric array"),
    "q boolean among floats": ({"kind": "memoryless", "q": [[True, 0.0], [0.5, 0.5]]}, "not a numeric array"),
    "map out of range": ({"kind": "deterministic", "map": [0, 2]}, "outside"),
    "map fractional": ({"kind": "deterministic", "map": [0.9, 1.2]}, "0.9 is not an integer"),
    "map boolean": ({"kind": "deterministic", "map": [True, 0]}, "True is not an integer"),
    "vector fractional": ({"kind": "fixed-vector", "vector": [0.5, 1.7, 0]}, "0.5 is not an integer"),
    "vector out of range": ({"kind": "fixed-vector", "vector": [0, 3, 1]}, "outside"),
}


def _direct_jammer(doc):
    if doc["kind"] == "memoryless":
        return Jammer(doc["q"])
    if doc["kind"] == "deterministic":
        return deterministic_jammer(tuple(doc["map"]), 2)
    return fixed_vector_jammer(doc["vector"], 2, 2, "v")


class TestValidation:
    @pytest.mark.parametrize("case", sorted(SPEC_CASES))
    def test_spec_rejected(self, case):
        edit, match, alone = SPEC_CASES[case]
        doc = spec_doc()
        edit(doc)
        with pytest.raises(ConfigurationError, match=match):
            problem_spec_from_dict(doc)
        if alone:
            with pytest.raises(ConfigurationError, match=match):
                ProblemSpec(doc["p_x"], doc["w"], doc["d"])

    @pytest.mark.parametrize("case", sorted(POLICY_CASES))
    def test_policy_rejected(self, case):
        edit, match, alone = POLICY_CASES[case]
        doc = copy.deepcopy(GOOD_POLICY)
        edit(doc)
        with pytest.raises(ConfigurationError, match=match):
            policy_from_dict(doc, wz_spec())
        if alone:
            with pytest.raises(ConfigurationError, match=match):
                AuxiliaryPolicy(doc["p_u_given_y"], doc["zeta"])

    @pytest.mark.parametrize("case", sorted(JAMMER_CASES))
    def test_jammer_rejected(self, case):
        doc, match = JAMMER_CASES[case]
        with pytest.raises(ConfigurationError, match=match):
            jammer_from_dict(doc, wz_spec())
        with pytest.raises(ConfigurationError, match=match):
            _direct_jammer(doc)

    def test_memoryless_shape_must_fit_the_spec(self):
        doc = {"kind": "memoryless", "q": [[1.0], [1.0]]}
        assert Jammer(doc["q"]).q.shape == (2, 1)
        with pytest.raises(ConfigurationError, match=r"shape \(2, 2\)"):
            jammer_from_dict(doc, wz_spec())

    def test_integral_floats_are_indices(self):
        assert index_table([[1.0, 0], [np.int8(1), 1]], "zeta").tolist() == [[1, 0], [1, 1]]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_json_constants_rejected(self, tmp_path, token):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_doc()).replace("0.5,", f"{token},", 1))
        with pytest.raises(ConfigurationError, match=f"{token} is not a JSON number"):
            load_problem_spec(path)

    def test_every_held_array_is_read_only(self):
        spec = problem_spec_from_dict(spec_doc())
        policy = policy_from_dict(GOOD_POLICY, wz_spec())
        held = [spec.p_x, spec.w, spec.d, policy.p_u_given_y, policy.zeta]
        held.append(Jammer([[0.5, 0.5], [1.0, 0.0]]).q)
        held.append(fixed_vector_jammer([0, 1, 1], 2, 2, "v").q)
        for a in held:
            assert not a.flags.writeable and a.flags.c_contiguous
            with pytest.raises(ValueError):
                a.flat[0] = 0
        assert [a.dtype for a in held] == [np.float64] * 4 + [np.int64, np.float64, np.float64]
