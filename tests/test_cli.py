import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from ordertopo.cli import main
from ordertopo.documents import DocumentError, parse_document

CLI_DOCS = Path(__file__).resolve().parent.parent / "perfbench" / "cli_docs"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def counterexample_doc():
    e1 = {"prefix": ["1"], "tail": "0"}
    neg_e1 = {"prefix": ["-1"], "tail": "0"}
    return {
        "carrier": {"kind": "tailseq"},
        "task": {
            "check-set": {
                "set": {"complement": {"interval": {"lo": neg_e1, "hi": e1,
                                                    "kind": "open"}}},
                "mode": "quasi-order-closed",
            }
        },
    }


def test_check_set_counterexample_document(tmp_path):
    doc = write_doc(tmp_path, "doc.json", counterexample_doc())
    out_path = str(tmp_path / "report.json")
    code, text = run_cli(["check-set", doc, "--output", out_path])
    assert code == 0
    assert "status: refuted" in text
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"]["status"] == "refuted"
    assert report["verdict"]["witness"]["in_set_from"] == 1


def test_check_set_certified_interval(tmp_path):
    doc = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 2},
        "task": {"check-set": {
            "set": {"interval": {"lo": ["0", "0"], "hi": ["1", "1"],
                                 "kind": "closed"}},
            "mode": "quasi-order-closed",
        }},
    })
    code, text = run_cli(["check-set", doc])
    assert code == 0
    assert "status: certified" in text


def test_check_set_solid_mode(tmp_path):
    doc = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "tailseq"},
        "task": {"check-set": {"set": {"tail-zero": True}, "mode": "solid"}},
    })
    code, text = run_cli(["check-set", doc])
    assert code == 0
    assert "status: certified" in text


def test_mismatched_dimension_is_input_error(tmp_path):
    doc = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 2},
        "task": {"check-set": {
            "set": {"interval": {"lo": ["0"], "hi": ["1", "1"], "kind": "closed"}},
            "mode": "quasi-order-closed",
        }},
    })
    code, _ = run_cli(["check-set", doc])
    assert code == 1


def test_unknown_field_rejected(tmp_path):
    doc = counterexample_doc()
    doc["surprise"] = 1
    path = write_doc(tmp_path, "doc.json", doc)
    code, _ = run_cli(["check-set", path])
    assert code == 1


def test_wrong_task_for_command(tmp_path):
    path = write_doc(tmp_path, "doc.json", counterexample_doc())
    code, _ = run_cli(["convergence", path])
    assert code == 1


def test_convergence_shift_document(tmp_path):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "tailseq"},
        "task": {"convergence": {
            "family": {"template": "shift"},
            "limit": {"prefix": [], "tail": "0"},
            "depth": 1,
        }},
    })
    code, text = run_cli(["convergence", path])
    assert code == 0
    assert "order convergence: certified" in text
    assert "refuted by the interval" in text


def test_convergence_scale_certified_with_sound_interval_refuter(tmp_path):
    # order convergence is certified; the thin interval (-e1, e1) is a
    # genuine neighborhood of the origin that the values never enter
    # (coordinate 2 would need to vanish exactly), so the interval-topology
    # probe soundly refutes
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 2},
        "task": {"convergence": {
            "family": {"template": "scale", "v": ["1", "1"], "lam": "1/2"},
            "limit": ["0", "0"],
            "depth": 3,
        }},
    })
    code, text = run_cli(["convergence", path])
    assert code == 0
    assert "order convergence: certified" in text
    assert "refuted by the interval [(-1, 0), (1, 0)]" in text


def test_convergence_rejects_bad_lambda(tmp_path):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 2},
        "task": {"convergence": {
            "family": {"template": "scale", "v": ["1", "1"], "lam": "2"},
            "limit": ["0", "0"],
        }},
    })
    code, _ = run_cli(["convergence", path])
    assert code == 1


def test_fit_document(tmp_path):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 2},
        "task": {"fit": {
            "set": {"intersection": [
                {"complement": {"half-space": {"coord": 1, "relation": "le",
                                               "bound": "0"}}},
                {"complement": {"half-space": {"coord": 2, "relation": "le",
                                               "bound": "0"}}},
            ]},
            "point": ["1", "1"],
        }},
    })
    code, text = run_cli(["fit", path])
    assert code == 0
    assert "fitted at shrink exponent 1" in text
    assert "[(1/2, 1/2), (3/2, 3/2)]" in text


def test_fit_outside_point_is_input_error(tmp_path):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 2},
        "task": {"fit": {
            "set": {"complement": {"half-space": {"coord": 1, "relation": "le",
                                                  "bound": "0"}}},
            "point": ["-1", "0"],
        }},
    })
    code, _ = run_cli(["fit", path])
    assert code == 1


def test_a_fit_between_two_open_gaps_stops_short_of_their_common_end(tmp_path):
    # (-1, 1/3) u (1/3, 1) at 0: the interval (-1, 1) would hold 1/3
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 1},
        "task": {"fit": {
            "set": {"union": [
                {"interval": {"lo": ["-1"], "hi": ["1/3"], "kind": "open"}},
                {"interval": {"lo": ["1/3"], "hi": ["1"], "kind": "open"}},
            ]},
            "point": ["0"],
        }},
    })
    out_path = tmp_path / "report.json"
    code, text = run_cli(["fit", path, "--output", str(out_path)])
    assert code == 0
    assert "result: fitted at shrink exponent 2 (exact)\n" in text
    assert "interval: [(-1/4), (1/4)]\n" in text
    got = json.loads(out_path.read_text())["fit"]["interval"]
    assert Fraction(got["hi"][0]) < Fraction(1, 3)


def test_a_fit_in_a_band_complement_misses_the_band(tmp_path):
    # the complement of the band of e1 is {z : z_2 != 0}
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 2},
        "task": {"fit": {
            "set": {"complement": {"band": {"gens": [["1", "0"]]}}},
            "point": ["0", "1/3"],
        }},
    })
    out_path = tmp_path / "report.json"
    code, text = run_cli(["fit", path, "--output", str(out_path)])
    assert code == 0
    assert "result: fitted at shrink exponent 2 (exact)\n" in text
    assert "interval: [(-1/4, 1/12), (1/4, 7/12)]\n" in text
    got = json.loads(out_path.read_text())["fit"]["interval"]
    assert Fraction(got["lo"][1]) > 0  # (0, 0) lies below the interval


FIT_OUTSIDE_BOX_REPORT = """{
  "carrier": {
    "dim": 2,
    "kind": "findim"
  },
  "fit": {
    "evidence": "exact",
    "interval": {
      "hi": [
        "7/4",
        "3/4"
      ],
      "kind": "open",
      "lo": [
        "5/4",
        "1/4"
      ]
    },
    "samples": 0,
    "steps": 2
  },
  "semantics": "strict-partial",
  "task": "fit"
}
"""


def test_a_box_complement_fit_report_keeps_its_bytes(tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["fit", str(CLI_DOCS / "fit-outside-box.json"), "--output", str(out_path)])
    assert code == 0
    assert out_path.read_text() == FIT_OUTSIDE_BOX_REPORT


def test_min_samples_is_an_unknown_fit_field(tmp_path, capsys):
    doc = box_complement_fit_doc(["1"])
    doc["task"]["fit"]["min-samples"] = 200
    path = write_doc(tmp_path, "doc.json", doc)
    code, text = run_cli(["fit", path])
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert "$.task.fit" in err and "min-samples" in err


def test_theorem_example_e1(tmp_path):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "tailseq"},
        "task": {"theorem": {"id": "example-e1"}},
    })
    code, text = run_cli(["theorems", path])
    assert code == 0
    assert "conclusion: confirmed" in text


def test_theorem_band_tail_zero(tmp_path):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "tailseq"},
        "task": {"theorem": {"id": "band", "set": {"tail-zero": True}}},
    })
    code, text = run_cli(["theorems", path])
    assert code == 0
    assert "conclusion: counterexample-found" in text


def test_theorem_short_alias_t1(tmp_path):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 2},
        "task": {"theorem": {
            "id": "t1",
            "family": {"template": "coord-decay", "c": ["0", "0"],
                       "p": ["1", "1"], "q": "0"},
            "limit": ["0", "0"],
            "depth": 10,
        }},
    })
    code, text = run_cli(["theorems", path])
    assert code == 0
    assert "conclusion: confirmed" in text


def test_theorem_unknown_id(tmp_path):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "tailseq"},
        "task": {"theorem": {"id": "mystery"}},
    })
    code, _ = run_cli(["theorems", path])
    assert code == 1


@pytest.mark.parametrize("carrier, family, limit, width", [
    ({"kind": "findim", "dim": 2},
     {"template": "coord-decay", "c": ["0", "0"], "p": ["1", "1"]},
     ["1/2", "0"], "(2/3, 2/3)"),
    ({"kind": "tailseq"}, {"template": "shift"}, {"prefix": [], "tail": "0"},
     "(tail 1)"),
], ids=["findim", "tailseq"])
def test_failed_hypothesis_writes_the_width_as_text(tmp_path, carrier, family,
                                                    limit, width):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": carrier,
        "task": {"theorem": {"id": "interval-convergence", "family": family,
                             "limit": limit, "depth": 3}},
    })
    out_path = tmp_path / "report.json"
    code, text = run_cli(["theorems", path, "--output", str(out_path)])
    assert code == 0
    detail = f"convergence refuted by the chain interval of width {width}"
    assert f"  step hypothesis: failed ({detail})\n" in text
    report = json.loads(out_path.read_text())
    assert report["theorem"]["steps"][0]["detail"] == detail


def test_a_bad_tau_subset_set_is_reported_at_its_index(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 2},
        "task": {"theorem": {"id": "tau-subset", "sets": [
            {"interval": {"lo": ["0", "0"], "hi": ["1", "1"], "kind": "open"}},
            {"blob": 1},
        ]}},
    })
    code, _ = run_cli(["theorems", path])
    assert code == 1
    assert ("error: $.task.theorem.sets[1]: unknown set constructor 'blob'"
            in capsys.readouterr().err)


def test_missing_document(capsys):
    code, _ = run_cli(["check-set", "/nonexistent/doc.json"])
    assert code == 1
    assert "error: no such document: /nonexistent/doc.json" in capsys.readouterr().err


def test_a_directory_as_document_is_an_input_error(tmp_path, capsys):
    code, text = run_cli(["check-set", str(tmp_path)])
    assert code == 1 and text == ""
    assert capsys.readouterr().err.startswith("error: cannot read document: ")


def test_a_document_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"carrier": "\xff"}')
    code, text = run_cli(["check-set", str(path)])
    assert code == 1 and text == ""
    assert capsys.readouterr().err.startswith("error: cannot read document: ")


def test_a_report_that_cannot_be_written_is_an_error(tmp_path, capsys):
    doc = write_doc(tmp_path, "doc.json", counterexample_doc())
    out_path = str(tmp_path / "missing" / "report.json")
    code, text = run_cli(["check-set", doc, "--output", out_path])
    assert code == 1
    assert "status: refuted" in text  # the verdict still prints
    assert capsys.readouterr().err.startswith("error: cannot write report: ")


def test_contradicting_theorem_report_maps_to_exit_3(tmp_path, monkeypatch):
    # no honest input contradicts the verified results, so stub the verifier
    # to check the reserved exit code end to end
    import ordertopo.documents as documents
    from ordertopo.theorems import TheoremReport

    fake = TheoremReport("example-e1", (), (), "inconclusive",
                         contradicts_expectations=True)
    monkeypatch.setattr(documents, "verify_example_e1", lambda *a, **k: fake)
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "tailseq"},
        "task": {"theorem": {"id": "example-e1"}},
    })
    code, text = run_cli(["theorems", path])
    assert code == 3
    assert "conclusion: inconclusive" in text


def test_byte_identical_reports_across_runs_and_workers(tmp_path):
    path = write_doc(tmp_path, "doc.json", counterexample_doc())
    outputs = []
    for run in (1, 2, 3):
        out_path = tmp_path / f"report{run}.json"
        code, text = run_cli(["check-set", path, "--output", str(out_path)])
        assert code == 0
        outputs.append((text, out_path.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_parse_document_strictness():
    with pytest.raises(DocumentError):
        parse_document({"carrier": {"kind": "tailseq"}})
    with pytest.raises(DocumentError):
        parse_document({
            "carrier": {"kind": "tailseq"},
            "task": {"check-set": {}, "fit": {}},
        })
    with pytest.raises(DocumentError):
        parse_document({
            "carrier": {"kind": "tailseq"},
            "task": {"check-set": {"set": {"tail-zero": True}, "mode": "solid"}},
            "search": {"threads": 2},
        })
    for search in ({"workers": 2}, {"horizon": 12}):
        with pytest.raises(DocumentError):
            parse_document({
                "carrier": {"kind": "tailseq"},
                "task": {"check-set": {"set": {"tail-zero": True}, "mode": "solid"}},
                "search": search,
            })


def open_box_complement_doc(search=None):
    doc = {
        "carrier": {"kind": "findim", "dim": 3},
        "task": {"check-set": {
            "set": {"complement": {"interval": {"lo": ["0", "0", "0"], "hi": ["1", "1", "1"],
                                                "kind": "open"}}},
            "mode": "order-closed",
        }},
    }
    if search is not None:
        doc["search"] = search
    return doc


def grids_of(tmp_path, doc, flags=()):
    path = write_doc(tmp_path, "doc.json", doc)
    out_path = tmp_path / "report.json"
    code, text = run_cli(["check-set", path, "--output", str(out_path), *flags])
    assert code == 0 and "status: unknown" in text
    return json.loads(out_path.read_text())["verdict"]["search_report"]["grids"]


def test_grid_scale_default_flag_and_document(tmp_path):
    assert grids_of(tmp_path, open_box_complement_doc()).endswith(" scale=1")
    by_flag = grids_of(tmp_path, open_box_complement_doc(), ["--grid-scale", "1/2"])
    by_doc = grids_of(tmp_path, open_box_complement_doc({"grid-scale": "1/2"}))
    assert by_flag == by_doc and by_doc.endswith(" scale=1/2")


def test_grid_scale_flag_overrides_the_document(tmp_path):
    doc = open_box_complement_doc({"grid-scale": "2"})
    assert grids_of(tmp_path, doc).endswith(" scale=2")
    assert grids_of(tmp_path, doc, ["--grid-scale", "1/2"]).endswith(" scale=1/2")


@pytest.mark.parametrize("bad", ["0", "-1", "abc"])
def test_bad_grid_scale_is_input_error(tmp_path, capsys, bad):
    path = write_doc(tmp_path, "doc.json", open_box_complement_doc())
    code, text = run_cli(["check-set", path, "--grid-scale", bad])
    assert code == 1 and text == ""
    assert "--grid-scale" in capsys.readouterr().err
    path = write_doc(tmp_path, "bad.json", open_box_complement_doc({"grid-scale": bad}))
    code, text = run_cli(["check-set", path])
    assert code == 1 and text == ""
    assert "$.search.grid-scale" in capsys.readouterr().err


def box_complement_fit_doc(hi):
    return {
        "carrier": {"kind": "findim", "dim": 1},
        "task": {"fit": {
            "set": {"complement": {"interval": {"lo": ["0"], "hi": hi, "kind": "closed"}}},
            "point": ["-1"],
        }},
    }


def test_zero_denominator_grid_scale_is_input_error(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", box_complement_fit_doc(["1"]))
    code, text = run_cli(["fit", path, "--grid-scale", "1/0"])
    assert code == 1 and text == ""
    assert "error: --grid-scale: zero denominator" in capsys.readouterr().err


def test_zero_denominator_in_a_document_is_input_error(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", box_complement_fit_doc(["1/0"]))
    code, text = run_cli(["fit", path])
    assert code == 1 and text == ""
    assert "error: $.task.fit.set: zero denominator" in capsys.readouterr().err


def test_a_mode_that_is_not_a_string_is_an_input_error(tmp_path, capsys):
    doc = counterexample_doc()
    doc["task"]["check-set"]["mode"] = ["solid"]
    path = write_doc(tmp_path, "doc.json", doc)
    code, text = run_cli(["check-set", path])
    assert code == 1 and text == ""
    assert "error: $.task.check-set.mode: unknown mode ['solid']" in capsys.readouterr().err


def test_a_theorem_id_that_is_not_a_string_is_an_input_error(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "tailseq"},
        "task": {"theorem": {"id": ["t1"]}},
    })
    code, text = run_cli(["theorems", path])
    assert code == 1 and text == ""
    assert "error: $.task.theorem.id: unknown theorem id ['t1']" in capsys.readouterr().err


def test_a_set_that_names_no_vector_is_searched_in_the_document_carrier(tmp_path):
    path = write_doc(tmp_path, "doc.json", {
        "carrier": {"kind": "findim", "dim": 2},
        "task": {"check-set": {
            "set": {"complement": {"half-space": {"coord": 1, "relation": "le",
                                                  "bound": "0"}}},
            "mode": "order-closed",
        }},
    })
    out_path = tmp_path / "report.json"
    code, text = run_cli(["check-set", path, "--output", str(out_path)])
    assert code == 0
    assert "status: refuted" in text
    assert "witness: decreasing family, limit (0, 0), in set from 0, limit outside" in text
    witness = json.loads(out_path.read_text())["verdict"]["witness"]
    assert witness["in_set_from"] == 0
