import math

import numpy as np
import pytest

from hcr import Model, build_full, evaluate, legendre, load_model, save_model, support
from hcr.cli import main

SQ3 = math.sqrt(3.0)
nan = float("nan")


def make_model(spec, coefs):
    full = {j: coefs.get(j, 0.0) for j in spec.selected}
    ev = {support(j): 25 for j in spec.selected}
    unc = {j: 0.01 for j in spec.selected}
    return Model(spec, full, ev, unc)


def write_sample(tmp_path, name="data.csv"):
    rng = np.random.default_rng(51)
    p = tmp_path / name
    lines = ["a,b"]
    for _ in range(80):
        x = rng.random()
        y = np.clip(0.6 * x + 0.2 + rng.normal(0, 0.1), 0, 1)
        lines.append(f"{float(x)!r},{float(y)!r}")
    lines.append("0.5,NA")
    lines.append("NA,0.25")
    p.write_text("\n".join(lines) + "\n")
    return p


def test_fit_writes_model_and_summary(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    assert main(["fit", "--input", str(data), "--out", str(out), "--orders", "2"]) == 0
    text = capsys.readouterr().out
    assert "records: 82, coordinates: 2" in text
    assert "presence: a 81/82, b 81/82" in text
    assert "basis:" in text and "(9 functions)" in text
    assert "evidence:" in text and "{a,b}: 80" in text
    assert "top coefficients" in text
    assert out.read_text().startswith("hcrmodel 1\n")
    m = load_model(out)
    assert m.coordinate_names() == ("a", "b")


def test_fit_report_labels(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(out), "--orders", "2"])
    capsys.readouterr()
    assert main(["report", "--model", str(out)]) == 0
    text = capsys.readouterr().out
    assert "model: 2 coordinates, 9 functions" in text
    assert "level 1 (4 functions):" in text
    assert "a: trend" in text
    assert "b: focus/spread" in text
    # correlated columns: the 1,1 term reads as joint movement
    assert "coordinates 1,2: co-increase" in text


def test_fit_short_order_list_leaves_deeper_levels_empty(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    assert main(["fit", "--input", str(data), "--out", str(out), "--orders", "2,0"]) == 0
    m = load_model(out)
    assert all(len(support(j)) < 2 for j in m.spec.selected)
    capsys.readouterr()


def test_fit_usage_errors(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    base = ["fit", "--input", str(data), "--out", str(out)]
    assert main(base + ["--orders", "x"]) == 1
    assert main(base + ["--orders", "1,1,1"]) == 1
    assert main(base + ["--orders", "-1"]) == 1
    capsys.readouterr()


def test_missing_subcommand_and_flags_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", "x.csv"])  # --out and --orders missing
    assert exc.value.code == 1
    capsys.readouterr()


def test_unreadable_input_exits_2(tmp_path, capsys):
    out = tmp_path / "m.model"
    code = main(["fit", "--input", str(tmp_path / "absent.csv"),
                 "--out", str(out), "--orders", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fit_uniform_warning(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    assert main(["fit", "--input", str(data), "--out", str(out), "--orders", "0"]) == 0
    assert "warning: uniform model" in capsys.readouterr().out


def test_fit_fully_missing_column_warning(tmp_path, capsys):
    p = tmp_path / "gap.csv"
    p.write_text("u,v\n0.5,NA\n0.25,NA\n0.75,NA\n")
    out = tmp_path / "m.model"
    assert main(["fit", "--input", str(p), "--out", str(out), "--orders", "1"]) == 0
    text = capsys.readouterr().out
    assert "fully-missing columns" in text and "'v'" in text
    m = load_model(out)
    assert m.flags[(0, 1)] == "no-evidence"


def test_density_scalar(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(out), "--orders", "2"])
    capsys.readouterr()
    assert main(["density", "--model", str(out), "--point", "0.3,0.4"]) == 0
    printed = capsys.readouterr().out.strip()
    m = load_model(out)
    assert float(printed) == evaluate(m, (0.3, 0.4))


def test_density_scalar_clamped(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(out), "--orders", "2"])
    capsys.readouterr()
    assert main(["density", "--model", str(out), "--point", "0.3,0.4",
                 "--epsilon", "5"]) == 0
    assert capsys.readouterr().out.strip() == "5.0"


def test_density_slice_table(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(out), "--orders", "2"])
    capsys.readouterr()
    assert main(["density", "--model", str(out), "--point", "0.4,?",
                 "--grid", "11"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,b,density"
    assert len(lines) == 12
    cells = [ln.split(",") for ln in lines[1:]]
    xs = [float(c[0]) for c in cells]
    assert xs[0] == 0.0 and xs[-1] == 1.0
    from hcr import conditional_slice
    m = load_model(out)
    sl = conditional_slice(m, {0: 0.4}, 1)
    for c in cells:
        assert float(c[2]) == pytest.approx(float(sl.evaluate(float(c[0]))), abs=1e-12)


def test_density_point_validation(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(out), "--orders", "1"])
    capsys.readouterr()
    assert main(["density", "--model", str(out), "--point", "0.5"]) == 1
    assert main(["density", "--model", str(out), "--point", "?,?"]) == 1
    assert main(["density", "--model", str(out), "--point", "q,0.5"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("point, bad", [("nan,?", 1), ("0.3,nan", 2), ("inf,0.3", 1),
                                        ("?,-inf", 2), ("NaN,0.4", 1)])
def test_density_point_rejects_non_finite_cells(tmp_path, capsys, point, bad):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(out), "--orders", "1"])
    capsys.readouterr()
    assert main(["density", "--model", str(out), "--point", point]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"coordinate {bad}:" in captured.err and "not a finite number" in captured.err


def test_density_point_rejects_infinity_under_a_clipping_rescale(tmp_path, capsys):
    data = write_sample(tmp_path)
    schema = tmp_path / "schema.txt"
    schema.write_text("a: legendre rescale 0 10\n")
    out = tmp_path / "m.model"
    assert main(["fit", "--input", str(data), "--out", str(out), "--orders", "1",
                 "--schema", str(schema)]) == 0
    capsys.readouterr()
    assert main(["density", "--model", str(out), "--point", "20,0.5"]) == 0  # clipped to 1
    capsys.readouterr()
    assert main(["density", "--model", str(out), "--point", "inf,0.5"]) == 1
    assert "coordinate 1:" in capsys.readouterr().err


def test_density_discrete_slice_uses_grid(tmp_path, capsys):
    p = tmp_path / "mix.csv"
    rng = np.random.default_rng(52)
    lines = ["g,y"]
    for _ in range(60):
        g = int(rng.integers(0, 3))
        y = rng.random()
        lines.append(f"{g},{float(y)!r}")
    p.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "schema.txt"
    schema.write_text("g: discrete 0 1 2\n")
    out = tmp_path / "m.model"
    assert main(["fit", "--input", str(p), "--out", str(out),
                 "--schema", str(schema), "--orders", "1"]) == 0
    capsys.readouterr()
    assert main(["density", "--model", str(out), "--point", "?,0.3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,g,density"
    assert len(lines) == 4  # one row per category
    originals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert originals == [0.0, 1.0, 2.0]


def test_impute_complete_rows_pass_through(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(out), "--orders", "2"])
    p = tmp_path / "query.csv"
    p.write_text("a,b\n0.3,0.7\n")
    capsys.readouterr()
    assert main(["impute", "--model", str(out), "--input", str(p)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.3,0.7"


def test_impute_fills_missing_cells(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(out), "--orders", "2"])
    p = tmp_path / "query.csv"
    p.write_text("a,b\n0.8,NA\n0.2,NA\n")
    result = tmp_path / "filled.csv"
    capsys.readouterr()
    assert main(["impute", "--model", str(out), "--input", str(p),
                 "--out", str(result)]) == 0
    lines = result.read_text().strip().splitlines()
    # the fitted quadratic slice dips negative, so a note column shows up
    assert lines[0] == "a,b,__hcr_note"
    filled = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(0 <= v <= 1 for v in filled)
    assert lines[1].split(",")[2] == "negative-region:b"
    # the data trends upward, so the fill should follow the evidence
    assert filled[0] > filled[1]


def test_impute_report_adds_variance_columns(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(out), "--orders", "2"])
    p = tmp_path / "query.csv"
    p.write_text("a,b\n0.8,NA\n")
    capsys.readouterr()
    assert main(["impute", "--model", str(out), "--input", str(p), "--report"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,b,__hcr_note,__hcr_var_a,__hcr_var_b"
    cells = lines[1].split(",")
    assert cells[3] == ""  # a was known
    assert float(cells[4]) > 0


def test_impute_cluster_split_weight_column(tmp_path, capsys):
    spec = build_full(2, legendre(2), 2)
    m = make_model(spec, {(0, 2): 0.3})
    model_path = tmp_path / "bimodal.model"
    save_model(m, model_path)
    p = tmp_path / "query.csv"
    p.write_text("x1,x2\n0.5,NA\n")
    capsys.readouterr()
    assert main(["impute", "--model", str(model_path), "--input", str(p),
                 "--policy", "cluster-split"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x1,x2,__hcr_weight"
    assert len(lines) == 3  # two branches for one input row
    weights = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    fills = sorted(float(ln.split(",")[1]) for ln in lines[1:])
    assert fills[0] < 0.5 < fills[1]


def test_impute_nonpositive_mass_row_left_unfilled(tmp_path, capsys):
    spec = build_full(2, legendre(2), 2)
    m = make_model(spec, {(0, 2): 0.9})
    model_path = tmp_path / "broken.model"
    save_model(m, model_path)
    p = tmp_path / "query.csv"
    p.write_text("x1,x2\nNA,0.5\n0.5,NA\n")
    capsys.readouterr()
    assert main(["impute", "--model", str(model_path), "--input", str(p)]) == 0
    captured = capsys.readouterr()
    assert "1 rows left unfilled" in captured.err
    lines = captured.out.strip().splitlines()
    assert lines[0] == "x1,x2,__hcr_note"
    first = lines[1].split(",")
    assert first[0] == "" and first[1] == "0.5"
    assert first[2].startswith("nonpositive-mass:")
    second = lines[2].split(",")
    assert second[2] == "negative-region:x2"  # fill crosses a negative dip
    assert 0 <= float(second[1]) <= 1


def test_refine_trace_and_improvement(tmp_path, capsys):
    data = write_sample(tmp_path)
    out = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(out), "--orders", "1"])
    refined_path = tmp_path / "r.model"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["refine", "--model", str(out), "--input", str(data),
              "--steps", "5"])  # --out missing
    assert exc.value.code == 1
    capsys.readouterr()
    assert main(["refine", "--model", str(out), "--input", str(data),
                 "--out", str(refined_path), "--steps", "5", "--rate", "0.2"]) == 0
    text = capsys.readouterr().out
    lines = text.strip().splitlines()
    assert lines[0] == "step loglik objective step_scale"
    assert len(lines) == 6
    logliks = [float(ln.split()[1]) for ln in lines[1:]]
    assert logliks[-1] >= logliks[0] - 1e-12
    assert load_model(refined_path).coefficients[(0, 0)] == 1.0


def test_refine_negative_model_exits_3(tmp_path, capsys):
    spec = build_full(1, legendre(2), 2)
    m = make_model(spec, {(2,): 0.9})
    model_path = tmp_path / "neg.model"
    save_model(m, model_path)
    p = tmp_path / "data.csv"
    p.write_text("x1\n0.5\n0.4\n0.6\n")
    out = tmp_path / "r.model"
    capsys.readouterr()
    code = main(["refine", "--model", str(model_path), "--input", str(p),
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "negative-density witness" in err
    assert "0.5" in err
    assert not out.exists()


def test_transform_round_trip(tmp_path, capsys):
    p = tmp_path / "raw.csv"
    rng = np.random.default_rng(53)
    heights = rng.normal(170, 8, 40)
    scores = rng.uniform(0, 100, 40)
    lines = ["height,score"]
    for h, s in zip(heights, scores):
        lines.append(f"{float(h)!r},{float(s)!r}")
    p.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "schema.txt"
    schema.write_text("height: legendre cdf\nscore: legendre rescale 0 100\n")
    unit_path = tmp_path / "unit.csv"
    tr_path = tmp_path / "maps.txt"
    assert main(["transform", "--input", str(p), "--schema", str(schema),
                 "--out", str(unit_path), "--transforms", str(tr_path)]) == 0
    unit = np.loadtxt(unit_path, delimiter=",", skiprows=1)
    assert unit.min() >= 0.0 and unit.max() <= 1.0
    assert tr_path.read_text().startswith("hcrtransforms 1\n")
    back_path = tmp_path / "back.csv"
    assert main(["transform", "--input", str(unit_path), "--direction", "backward",
                 "--transforms", str(tr_path), "--out", str(back_path)]) == 0
    back = np.loadtxt(back_path, delimiter=",", skiprows=1)
    orig = np.column_stack([heights, scores])
    assert np.max(np.abs(back - orig) / np.maximum(np.abs(orig), 1.0)) < 1e-9
    capsys.readouterr()


def test_transform_usage_errors(tmp_path, capsys):
    p = tmp_path / "raw.csv"
    p.write_text("x\n1\n2\n")
    assert main(["transform", "--input", str(p)]) == 1  # no schema
    assert main(["transform", "--input", str(p), "--direction", "backward"]) == 1
    capsys.readouterr()


def test_custom_separator_and_missing_tokens(tmp_path, capsys):
    p = tmp_path / "alt.csv"
    p.write_text("u;v\n0.5;miss\n0.25;0.75\n0.8;0.1\n")
    out = tmp_path / "m.model"
    assert main(["fit", "--input", str(p), "--out", str(out), "--orders", "1",
                 "--sep", ";", "--missing-tokens", "miss"]) == 0
    text = capsys.readouterr().out
    assert "presence: u 3/3, v 2/3" in text


def test_transform_backward_malformed_line_exits_2(tmp_path, capsys):
    table = tmp_path / "unit.csv"
    table.write_text("x\n0.5\n")
    maps = tmp_path / "maps.txt"
    maps.write_text("hcrtransforms 1\ncolumn\n")
    assert main(["transform", "--input", str(table), "--direction", "backward",
                 "--transforms", str(maps)]) == 2
    assert "transforms file line 2" in capsys.readouterr().err


def test_report_blank_dim_line_exits_2(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text("hcrmodel 1\n\ncolumn 0 x1 legendre 1 - none\ncoef 0 1 4 0 -\n")
    assert main(["report", "--model", str(model)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_report_duplicate_coef_line_exits_2(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text("hcrmodel 1\ndim 1\ncolumn 0 x1 legendre 1 - none\n"
                     "coef 0 1 4 0 -\ncoef 1 0.5 4 0.1 -\ncoef 1 0.7 4 0.1 -\n")
    assert main(["report", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert "line 6" in err and "line 5" in err and "duplicate" in err


def test_report_bad_version_token_exits_2(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text("hcrmodel x\ndim 1\ncolumn 0 x1 legendre 1 - none\ncoef 0 1 4 0 -\n")
    assert main(["report", "--model", str(model)]) == 2
    assert "model file line 1: bad format version 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("command, point, extra, flag", [
    ("density", "0.4,?", ["--grid", "-1"], "--grid"),
    ("density", "0.4,?", ["--grid", "0"], "--grid"),
    ("density", "0.4,?", ["--grid", "1"], "--grid"),
    ("density", "0.3,0.4", ["--epsilon", "0"], "--epsilon"),
    ("density", "0.4,?", ["--epsilon", "-1"], "--epsilon"),
    ("density", "0.3,0.4", ["--epsilon", "nan"], "--epsilon"),
    ("refine", None, ["--steps", "-1"], "--steps"),
    ("refine", None, ["--rate", "0"], "--rate"),
    ("refine", None, ["--rate", "-0.1"], "--rate"),
    ("refine", None, ["--rate", "nan"], "--rate"),
    ("refine", None, ["--ridge", "-1"], "--ridge"),
    ("refine", None, ["--ridge", "nan"], "--ridge"),
    ("refine", None, ["--epsilon", "-1"], "--epsilon"),
])
def test_out_of_range_numeric_flags_exit_1(tmp_path, capsys, command, point, extra, flag):
    data = write_sample(tmp_path)
    model = tmp_path / "m.model"
    main(["fit", "--input", str(data), "--out", str(model), "--orders", "2"])
    out = tmp_path / "out"
    capsys.readouterr()
    argv = [command, "--model", str(model), "--out", str(out), *extra]
    argv += ["--point", point] if command == "density" else ["--input", str(data)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"usage error: {flag}" in captured.err
    assert captured.out == "" and not out.exists()


def test_seed_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--model", str(tmp_path / "m.model"), "--seed", "1"])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


def test_transform_backward_duplicate_column_exits_2(tmp_path, capsys):
    table = tmp_path / "unit.csv"
    table.write_text("x\n0.5\n")
    maps = tmp_path / "maps.txt"
    maps.write_text("hcrtransforms 1\ncolumn 0 x rescale 0 10\ncolumn 0 x logistic\n")
    out = tmp_path / "back.csv"
    assert main(["transform", "--input", str(table), "--direction", "backward",
                 "--transforms", str(maps), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "transforms file line 3: duplicate column 0 (first on line 2)" in err
    assert not out.exists()


@pytest.mark.parametrize("body, message", [
    ("dim 1\ncolumn 0 x legendre 2 - none\ncolumn 0 x legendre 2 - none\n",
     "model file line 4: duplicate column 0 (first on line 3)"),
    ("dim 1\ncolumn 0 x legendre 2 - none\ncoef 0 1 4 0 -\ncoef 3 0.5 4 0.1 -\n",
     "model file line 5: order 3 exceeds coordinate 0 family capacity"),
    ("dim 1\ncolumn 0 x legendre 2 - none\ncoef -1 0.5 4 0.1 -\n",
     "model file line 4: multi-index (-1,) is not 1 non-negative orders"),
    ("dim 1\ncolumn 0 x legendre 2 - none\ncoef 1 0.5 5 0.1 -\ncoef 2 0.1 4 0.1 -\n",
     "model file line 5: evidence 4 disagrees with 5 on line 4, which has the same support"),
    # far more coordinates than memory could hold one list entry for
    ("dim 2000000000000000000\ncolumn 0 x legendre 2 - none\n",
     "model file has column lines for 1 of 2000000000000000000 coordinates"),
])
def test_malformed_model_file_exits_2_naming_the_problem(tmp_path, capsys, body, message):
    model = tmp_path / "m.model"
    model.write_text("hcrmodel 1\n" + body)
    assert main(["report", "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("transform, message", [
    ("cdf 0 0 0.25 1 0.75", "cdf sample size must be an integer >= 1, got 0"),
    ("cdf 2 0 nan 1 0.75", "cdf support points must be finite"),
])
def test_density_on_a_model_with_a_bad_cdf_exits_2_naming_the_line(tmp_path, capsys,
                                                                     transform, message):
    model = tmp_path / "m.model"
    model.write_text(f"hcrmodel 1\ndim 1\ncolumn 0 x legendre 1 - {transform}\n"
                     "coef 0 1 4 0 -\ncoef 1 0.1 4 0.01 -\n")
    assert main(["density", "--model", str(model), "--point", "0.5"]) == 2
    captured = capsys.readouterr()
    assert f"model file line 3: {message}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("line, message", [
    ("a: discrete 1 2 x", "'x' is not a number"),
    ("a: discrete 1 2 inf", "'inf' is not a finite number"),
    ("a: legendre rescale 0 nan", "'nan' is not a finite number"),
    ("a: legendre rescale 5 1", "rescale needs hi > lo"),
    ("a: discrete 1 2 1", "duplicate category values"),
    ("zz: trig", "schema names not in table: ['zz']"),  # the table's columns are a and b
])
def test_fit_schema_with_a_bad_number_exits_2_naming_the_line(tmp_path, capsys, line, message):
    data = write_sample(tmp_path)
    schema, model = tmp_path / "schema.txt", tmp_path / "m.model"
    schema.write_text("# a comment, then a blank line\n\n" + line + "\n")
    assert main(["fit", "--input", str(data), "--out", str(model), "--orders", "1",
                 "--schema", str(schema)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: schema line 3: {message}\n"
    assert captured.out == "" and not model.exists()
