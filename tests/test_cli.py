"""Tests for config parsing, scan reports, and the command line."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lpakit.analysis
import lpakit.linalg
import lpakit.operators
import lpakit.scan
import lpakit.suites
from lpakit.analysis import (
    PreconditionError,
    diagnose,
    kernel_core,
    kernel_verdict,
    make_lpa,
)
from lpakit.cli import main
from lpakit.config import (
    ConfigError,
    ScanConfig,
    Tolerances,
    load_scan_config,
    resolve_m,
    scan_config_from_dict,
)
from lpakit.operators import get_family
from lpakit.scan import CSV_HEADER, ScanNumericalError, render_csv, render_json, run_scan

# ---------------------------------------------------------------- tolerances


def test_resolve_m_rules():
    assert resolve_m(None, 4) == 36
    assert resolve_m(None, 16) == 64
    assert resolve_m("factor:4", 8) == 32
    assert resolve_m("fixed:20", 8) == 20
    with pytest.raises(ConfigError):
        resolve_m("factor:0", 4)
    with pytest.raises(ConfigError):
        resolve_m("every:2", 4)
    with pytest.raises(ConfigError):
        resolve_m("factor:x", 4)


# -------------------------------------------------------------------- config


def minimal_config(**overrides) -> dict:
    data = {"operator": {"name": "du"}, "n_list": [2, 4]}
    data.update(overrides)
    return data


def test_config_minimal_accepted():
    cfg = scan_config_from_dict(minimal_config())
    assert cfg.operator_name == "du"
    assert cfg.n_list == (2, 4)
    assert cfg.m_rule is None
    assert cfg.seed == 0
    assert cfg.outputs == ()


@pytest.mark.parametrize("broken, fragment", [
    ({"operator": "du"}, "operator"),
    ({"n_list": []}, "n_list"),
    ({"n_list": [4, 2]}, "ascending"),
    ({"n_list": [0, 2]}, "positive"),
    ({"m_rule": "factor"}, "m_rule"),
    ({"m_rule": "fixed:3"}, "below max"),
    ({"tolerances": {"wat": 1}}, "tolerance"),
    ({"seed": "zero"}, "seed"),
    ({"outputs": [{"path": "x.csv"}]}, "outputs"),
    ({"outputs": [{"path": "x.csv", "format": "yaml"}]}, "format"),
    ({"surprise": 1}, "unknown"),
    ({"operator": {"name": "du", "extra": 1}}, "operator"),
    ({"n_list": [True, 2]}, "n_list"),
    ({"seed": False}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": -1}, "seed"),
    ({"outputs": 5}, "outputs"),
    ({"outputs": {"path": "x.csv", "format": "csv"}}, "outputs"),
    ({"outputs": ["x.csv"]}, "outputs"),
    ({"outputs": [{"path": "y.csv", "format": "csv", "extra": 1}]}, "outputs"),
    ({"outputs": [{"path": 5, "format": "csv"}]}, "path"),
    ({"outputs": [{"path": "", "format": "csv"}]}, "path"),
    ({"outputs": [{"path": None, "format": "json"}]}, "path"),
    ({"outputs": [{"path": "a/x.out", "format": "csv"},
                  {"path": "a/./x.out", "format": "json"}]}, r"outputs\[1\]\.path"),
    ({"operator": {"name": "du", "params": [1]}}, "'operator.params' must be an object"),
    ({"m_rule": 4}, "'m_rule' must be a string"),
    ({"tolerances": [1e-8]}, "'tolerances' must be an object"),
])
def test_config_rejects_malformed_fields(broken, fragment):
    with pytest.raises(ConfigError, match=fragment):
        scan_config_from_dict(minimal_config(**broken))


def test_config_rejects_a_root_that_is_not_an_object():
    with pytest.raises(ConfigError, match="root must be an object"):
        scan_config_from_dict([minimal_config()])


def test_config_accepts_tolerances_at_their_limits():
    cfg = scan_config_from_dict(minimal_config(tolerances={
        "rank": None, "check": 0.5, "route_warn": 3, "identity_rel": 1e300,
        "bound_rel": 0, "bound_abs": 0.0}))
    assert cfg.tolerances.rank is None and cfg.tolerances.check == 0.5
    assert cfg.tolerances.bound_rel == 0 and cfg.tolerances.bound_abs == 0.0
    assert scan_config_from_dict(
        minimal_config(tolerances={"rank": 1e-10})).tolerances.rank == 1e-10


def test_load_scan_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scan_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scan_config(str(bad))


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(minimal_config()).encode()[:-1] + b', "seed": "\xe9"}')
    with pytest.raises(ConfigError, match="not valid UTF-8"):
        load_scan_config(str(path))
    assert main(["analyze", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


# ---------------------------------------------------------------------- scan


def test_run_scan_row_per_n_and_verdicts():
    cfg = scan_config_from_dict(minimal_config(n_list=[2, 4, 8, 16]))
    rep = run_scan(cfg)
    assert [r.n for r in rep.rows] == [2, 4, 8, 16]
    assert rep.verdicts["kernel_approximability"] == "violated"
    assert rep.verdicts["sup_theta_bounded"] == "bounded"
    assert rep.verdicts["bound_checks_passed"] == "0/0"


def test_run_scan_seidman_verdicts():
    cfg = scan_config_from_dict({
        "operator": {"name": "seidman"},
        "n_list": [8, 16, 32],
        "m_rule": "factor:4",
    })
    rep = run_scan(cfg)
    assert rep.verdicts["kernel_approximability"] == "holds"
    assert rep.verdicts["sup_theta_bounded"] == "degrading"
    assert rep.verdicts["bound_checks_passed"] == "3/3"
    sines = [r.sin_theta_gap for r in rep.rows]
    assert sines == sorted(sines)


@pytest.mark.parametrize("n_list, verdict, passed", [
    ([40, 41], "violated", "0/0"),
    ([40, 41, 42], "holds", "1/1"),
])
def test_du_kernel_verdict_flips_at_the_precision_horizon(n_list, verdict, passed):
    # This pins today's reading, not the verdict du should get: e's tail
    # past n, dist(N(T), X_n) ~ 2^-n, falls under the factor's cutoff
    # (10 m eps, 3.7e-13 at m = 4n) from n = 42, so the kernel core reads
    # 1-dimensional there and kernel_gap 2.27e-13, and the scan reads the
    # kernel as captured. A rule that tells containment from a tail
    # crossing the cutoff would change both cases
    rep = run_scan(scan_config_from_dict({"operator": {"name": "du"}, "n_list": n_list}))
    assert rep.verdicts["kernel_approximability"] == verdict
    assert rep.verdicts["bound_checks_passed"] == passed
    if n_list[-1] == 42:
        assert rep.rows[-1].kernel_gap == pytest.approx(2.27e-13, rel=0.01)


@pytest.mark.parametrize("params, n_list, passed", [
    ({}, [2, 4, 8, 12], "4/4"),
    ({"sigmas": [1, 0.5, 1e-14]}, [1, 2, 3], "1/1"),
], ids=["default", "sigma-near-the-cutoff"])
def test_run_scan_best_lpa_verdicts(params, n_list, passed):
    # sigma = 1e-14 lies under the cutoff 10 m eps (m = 20), so T's rank is
    # 2 and X_3 holds the whole kernel; the core never outgrows N(T)
    cfg = scan_config_from_dict({
        "operator": {"name": "best-lpa", "params": params},
        "n_list": n_list,
        "m_rule": "fixed:20",
    })
    rep = run_scan(cfg)
    assert rep.verdicts["kernel_approximability"] == "holds"
    assert rep.verdicts["sup_theta_bounded"] == "bounded"
    assert rep.verdicts["bound_checks_passed"] == passed
    assert all(r.theta_n <= 1e-8 for r in rep.rows)
    assert all(r.kernel_core_dim <= r.kernel_dim for r in rep.rows)


@pytest.mark.parametrize("factors, want", [
    ((math.inf, 1.0), "inconclusive"),
    ((1.0, math.inf, 1.05), "inconclusive"),
    ((1.0, 1.05), "bounded"),
    ((1.0, math.inf), "degrading"),
])
def test_theta_verdict_never_bounded_with_an_infinite_factor(factors, want):
    # a row at sin theta = 1 has an infinite bound factor; the ratio of the
    # last factor to the first must not read such a scan as bounded
    rows = [SimpleNamespace(bound_factor=f, sin_theta_gap=1.0 if math.isinf(f) else 0.0)
            for f in factors]
    if want == "degrading":
        rows[0].sin_theta_gap = 0.5
    assert lpakit.scan._theta_verdict(rows) == want


def test_run_scan_unknown_operator_is_config_error():
    cfg = scan_config_from_dict(minimal_config(operator={"name": "wat"}))
    with pytest.raises(ConfigError, match="wat"):
        run_scan(cfg)


def test_run_scan_bad_params_is_config_error():
    cfg = scan_config_from_dict(minimal_config(
        operator={"name": "random", "params": {"bogus": 1}}))
    with pytest.raises(ConfigError, match="bogus"):
        run_scan(cfg)


def test_run_scan_out_of_range_n_is_config_error():
    cfg = scan_config_from_dict({
        "operator": {"name": "best-lpa"},
        "n_list": [16],
        "m_rule": "fixed:20",
    })
    with pytest.raises(ConfigError, match="n=16"):
        run_scan(cfg)


def test_run_scan_checks_every_row_before_factoring(monkeypatch):
    # a bad row late in n_list is a config error, raised before any SVD
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k))
    for n_list, m_rule, fragment in [([2, 16], "fixed:20", "n=16"),
                                     ([2, 4], "fixed:10", "minimum 14")]:
        cfg = scan_config_from_dict({"operator": {"name": "best-lpa"},
                                     "n_list": n_list, "m_rule": m_rule})
        with pytest.raises(ConfigError, match=fragment):
            run_scan(cfg)
    assert calls == []


_SHARED_SCANS = [
    ("seidman", {}, [2, 4, 8], "fixed:32"),
    ("du", {}, [2, 4, 8], "factor:4"),
    ("best-lpa", {}, [2, 4, 8, 12], "fixed:20"),
    ("random", {"kernel_dim": 2, "seed": 1}, [2, 3, 4, 5], "fixed:12"),
    ("seidman", {}, [2, 4, 8], "fixed:192"),
    ("random", {"kernel_dim": 0, "seed": 3}, [2, 3, 4, 5], "fixed:12"),
]


def _count_t_factorizations(monkeypatch, ms, family=None):
    # (kind, m) for every SVD ("svd" with vectors, "values" without), QR
    # ("qr") and inverse ("inv") of a square matrix equal to the family's
    # truncation at its m, or, without a family, of any matrix whose order,
    # its smaller dimension m, is at least min(ms), through np.linalg or
    # numpy's internal binding (norm(ord=2) calls the latter). An inverted
    # factor decides full rank on the extreme singular values handed with
    # the inverse and takes T's singular values only when read, so a
    # "values" entry means something read them.
    # Also returned: the flop count of every matrix product that a factor's
    # T enters, as itself or as a view of it (a slice or T^T); the factor's
    # T is made a view that records them
    truncations = {m: family.truncate(m) for m in ms} if family else {}
    internal = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    counted, products = [], []

    def counting(kind_of, real):
        def wrapper(a, *args, **kwargs):
            m = min(np.shape(a))
            if family is None and m >= min(ms) or (
                    m in truncations and np.shape(a) == (m, m)
                    and np.array_equal(a, truncations[m])):
                counted.append((kind_of(kwargs), m))
            return real(a, *args, **kwargs)
        return wrapper

    kinds = {"svd": lambda kw: "svd" if kw.get("compute_uv", True) else "values",
             "qr": lambda kw: "qr", "inv": lambda kw: "inv"}
    for name, kind_of in kinds.items():
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, counting(kind_of, real))
        if getattr(internal, name, None) is real:
            monkeypatch.setattr(internal, name, counting(kind_of, real))

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [x.view(np.ndarray) if isinstance(x, Recording) else x for x in inputs]
            if ufunc is np.matmul:
                a, b = (np.shape(x) for x in inputs)
                products.append(math.prod(a) * (b[-1] if len(b) == 2 else 1))
            return getattr(ufunc, method)(*inputs, **kwargs)

    real_as_matrix = lpakit.analysis.as_matrix
    monkeypatch.setattr(lpakit.analysis, "as_matrix", lambda a: real_as_matrix(a).view(Recording))
    return counted, products


@pytest.mark.parametrize("name, params, n_list, m_rule", _SHARED_SCANS,
                         ids=["seidman", "du", "best-lpa", "random", "seidman-192",
                              "random-injective"])
def test_scans_factor_t_once_per_m(monkeypatch, name, params, n_list, m_rule):
    # consecutive rows at one m share one factor of T, and every row is
    # bitwise the row a fresh instance gives. The factor is one SVD of T, or
    # none: seidman knows T^{-1} and T's extreme singular values in closed
    # form (inverse), which decide full rank, and no row reads T's singular
    # values, so T takes no SVD, QR or inverse; best-lpa's and du's factors are read off the SVD they know
    # (singular_triplets). Any other family takes LAPACK's SVD of T, random
    # with kernel_dim 0 included: N(T) = {0} alone does not invert T.
    cfg = scan_config_from_dict({"operator": {"name": name, "params": params},
                                 "n_list": n_list, "m_rule": m_rule})
    family = get_family(name, **params)
    ms = [cfg.m_for(n) for n in n_list]
    fresh = [diagnose(make_lpa(family, n, m)) for n, m in zip(n_list, ms)]
    insts = [make_lpa(family, n, m) for n, m in zip(n_list, ms)]
    want = [(kernel_core(inst).dim, inst.kernel_gap) for inst in insts]
    counted, _ = _count_t_factorizations(monkeypatch, ms, family)
    rows = run_scan(cfg).rows
    assert list(rows) == fresh
    known = family.products and family.products(ms[0])
    kinds = [] if known and (known.inverse or known.singular_triplets) else ["svd"]
    assert sorted(counted) == sorted((kind, m) for m in set(ms) for kind in kinds)
    assert [(r.kernel_core_dim, r.kernel_gap) for r in rows] == want


def _recording_products(products, widths):
    # products with every map call recorded in widths: n, or the columns of
    # a matrix (1 for a vector)
    def log(f):
        return lambda a: widths.append(a if isinstance(a, int) else a[0].size) or f(a)

    def recording(k):
        p = products(k)
        return p._replace(columns=log(p.columns), times=log(p.times), t_times=log(p.t_times))

    return recording


@pytest.mark.parametrize("operator, n_list, m, want", [
    ("seidman", [32, 64, 80], 768, [32, 64, 80]),
    ("best-lpa", [2, 4, 8, 12], 512, [12, 2, 4, 8, 12]),
])
def test_scan_forms_t_transpose_u_r_once_per_row(monkeypatch, operator, n_list, m, want):
    # a row forms T^T U_r once, with its r columns (LpaInstance.tt_ur),
    # which its T^*T image, its Q_n route and norm_tn_dag_t all read;
    # best-lpa's factor adds U_rho^T T, one call with rho = 12 columns per m
    fam, widths = get_family(operator), []

    def recording(k):
        p = fam.products(k)
        return p._replace(t_times=lambda u: widths.append(u.shape[1]) or p.t_times(u))

    monkeypatch.setattr(lpakit.scan, "get_family", lambda name, **params: dataclasses.replace(
        fam, products=recording))
    run_scan(scan_config_from_dict({"operator": {"name": operator}, "n_list": n_list,
                                    "m_rule": f"fixed:{m}", "seed": 0}))
    assert widths == want


@pytest.mark.parametrize("m", [64, 512])
def test_best_lpa_scan_takes_no_m_cubed_step(monkeypatch, m):
    # best-lpa's model draws U_r by a reduced QR of m x r and V by a raw
    # QR of m x r, its factor reads T's SVD off the model, T X_n's SVD is
    # taken of (U_rho^T T) X_n, and a row reads T through the model's
    # products, U_r (Sigma (V_r^T x)) and its transpose: no
    # m x m matrix is factored, truncate is never called, no product takes
    # a dense T, and each product map takes at most rho = 12 columns, never
    # X_n's dim X_n = m - 12 + n
    fam, widths = get_family("best-lpa", seed=0), []

    def refuse(k):
        raise AssertionError(f"best-lpa's truncate({k}) called")

    monkeypatch.setattr(lpakit.scan, "get_family", lambda name, **params: dataclasses.replace(
        fam, truncate=refuse, products=_recording_products(fam.products, widths)))
    cfg = scan_config_from_dict({"operator": {"name": "best-lpa"},
                                 "n_list": [2, 4, 8, 12], "m_rule": f"fixed:{m}", "seed": 0})
    factorizations, products = _count_t_factorizations(monkeypatch, [m])
    report = run_scan(cfg)
    assert [row.kernel_core_dim for row in report.rows] == [m - 12] * 4
    assert factorizations == [] and products == []
    assert widths and max(widths) <= 12, widths


@pytest.mark.parametrize("m_rule, ms", [("fixed:512", [512]), ("factor:10", [20, 40, 80, 120])])
def test_best_lpa_scan_checks_no_wide_basis(monkeypatch, m_rule, ms):
    # X_n and the factor's row space and kernel are columns of the model's
    # V, held as its r reflectors (r = 12), which the factor certifies in
    # place of a Gram check: the scan checks no basis of m - r or more
    # columns at any of its m
    shapes, real = [], lpakit.linalg._gram_defect
    monkeypatch.setattr(lpakit.linalg, "_gram_defect",
                        lambda b: shapes.append(b.shape) or real(b))
    report = run_scan(scan_config_from_dict({"operator": {"name": "best-lpa"},
                                             "n_list": [2, 4, 8, 12], "m_rule": m_rule}))
    assert sorted({row.m for row in report.rows}) == ms
    assert [(k, j) for k, j in shapes if j >= k - 12] == []


def test_du_scan_takes_no_m_cubed_step(monkeypatch):
    # du's factor applies its reflector (singular_triplets) and never forms
    # it, and a row reads T through du's products (T's first n columns, T V
    # and T^T U, O(m) per column), so neither T, H nor T's leading
    # 511 x 511 block, where its coupling ends, is formed or factored: no
    # SVD, QR or inverse of an input of order 511 or more, and no product
    # with a dense T. Each product map takes at most n columns
    m = 768
    cfg = scan_config_from_dict({"operator": {"name": "du"},
                                 "n_list": [2, 4, 8, 16], "m_rule": f"fixed:{m}"})
    factorizations, products = _count_t_factorizations(monkeypatch, [511])
    widths = []

    def refuse(k):
        raise AssertionError(f"du({k}) formed")

    monkeypatch.setattr(lpakit.operators, "_du_products",
                        _recording_products(lpakit.operators._du_products, widths))
    monkeypatch.setattr(lpakit.operators, "du", refuse)
    report = run_scan(cfg)
    assert [(row.kernel_dim, row.kernel_core_dim) for row in report.rows] == [(1, 0)] * 4
    assert factorizations == [] and products == []
    assert widths and max(widths) <= 16, widths


def _fresh_python(code: str) -> str:
    """The last line code prints in a new interpreter that imports this
    checkout's lpakit."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("operator, loads_random", [("du", False), ("seidman", True)])
def test_scan_loads_numpy_random_only_for_a_bound_check(operator, loads_random):
    # du never captures its kernel, so no row draws a right-hand side;
    # seidman is injective, so every row does. numpy imports numpy.random
    # lazily, on first use, so the module's presence shows whether a scan drew
    code = ("import sys\n"
            "from lpakit.config import scan_config_from_dict\n"
            "from lpakit.scan import run_scan\n"
            f"cfg = scan_config_from_dict({{'operator': {{'name': {operator!r}}}, "
            "'n_list': [2, 4]})\n"
            "print(run_scan(cfg).verdicts['bound_checks_passed'], "
            "'numpy.random' in sys.modules)\n")
    assert _fresh_python(code).split() == ["2/2" if loads_random else "0/0", str(loads_random)]


def test_scan_draws_y_by_seed_and_n_for_eligible_rows_only(monkeypatch):
    seen = []
    real = lpakit.scan.error_bound_check
    monkeypatch.setattr(lpakit.scan, "error_bound_check",
                        lambda inst, y, tol: seen.append((inst.n, y)) or real(inst, y, tol))
    run_scan(scan_config_from_dict(minimal_config(n_list=[2, 4])))
    assert seen == []
    run_scan(scan_config_from_dict({"operator": {"name": "seidman"}, "n_list": [2, 4],
                                    "m_rule": "fixed:20", "seed": 5}))
    assert [n for n, _ in seen] == [2, 4]
    for n, y in seen:
        assert np.array_equal(y, np.random.default_rng([5, n]).standard_normal(20))


@pytest.mark.parametrize("operator, n_list, m_rule, m, bound", [
    ("du", [16], "factor:48", 768, 0.25),
    ("seidman", [32, 64, 80], "fixed:768", 768, 1.0),
    ("best-lpa", [2, 4, 8, 12], "fixed:512", 512, 0.45),
], ids=["du", "seidman", "best-lpa"])
def test_scan_holds_little_beyond_t_and_its_factor(operator, n_list, m_rule, m, bound):
    # at m = 768 du and seidman rows hold no m x m array: T is read through
    # its products, du's factor keeps its reflector's y and S, and
    # seidman's is vectors of length m (T^{-1} in closed form), so a row
    # holds m x n arrays (0.16 and 0.77 x 8 m^2 measured); at m = 512 a
    # best-lpa model keeps U_r and V's 12 reflectors, O(m r), and a row
    # reads T through its factors and X_n, m - 12 + n of V's columns,
    # through its reflectors, forming only the 12 columns of the row space
    # (0.32 x 8 m^2 measured). No m x m or m x ~m temporary (T, mask, |v|,
    # |T|, Gram matrix, T^{-1}, normal draw, V, X_n's basis, T X_n's square
    # V) is added on top of them
    cfg = scan_config_from_dict({"operator": {"name": operator}, "n_list": n_list,
                                 "m_rule": m_rule})
    assert {cfg.m_for(n) for n in n_list} == {m}
    np.random.default_rng  # numpy imports numpy.random on first use: not in the trace
    tracemalloc.start()
    try:
        run_scan(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * m * m, peak / (8 * m * m)


def _matrix_free_scan(monkeypatch, operator, n_list, m):
    # run_scan at fixed m with the family's truncate refusing to run, the
    # factors it built and the tracemalloc peak of the scan
    fam = get_family(operator)

    def refuse(k):
        raise AssertionError(f"{operator}'s truncate({k}) called")

    monkeypatch.setattr(lpakit.scan, "get_family",
                        lambda name, **params: dataclasses.replace(fam, truncate=refuse))
    factors, real = [], lpakit.scan.shared_factors

    def recording(family, rank_tol=None):
        build = real(family, rank_tol)
        return lambda k: factors.append(build(k)) or factors[-1]

    monkeypatch.setattr(lpakit.scan, "shared_factors", recording)
    cfg = scan_config_from_dict({"operator": {"name": operator}, "n_list": n_list,
                                 "m_rule": f"fixed:{m}"})
    np.random.default_rng  # numpy imports numpy.random on first use: not in the trace
    tracemalloc.start()
    try:
        report = run_scan(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factors and all("t" not in vars(f) for f in factors)  # T never formed
    return report, peak


def test_seidman_scan_at_2_14_is_matrix_free(monkeypatch):
    # at m = 2^14 a dense T would be 2 GB; the rows read T through its
    # products and its closed-form inverse. norm_tn_dag_t reproduces the
    # values a matrix-free prototype measured there (ROADMAP item 15), both
    # routes agree within route_warn, and the scan's allocations peak under
    # 10 x 8 m n_max bytes (7.1 measured)
    m, n_list = 2**14, [8, 64]
    report, peak = _matrix_free_scan(monkeypatch, "seidman", n_list, m)
    assert [row.norm_tn_dag_t for row in report.rows] == pytest.approx(
        [1.5600605329, 8.5118352038], rel=1e-9, abs=0)
    assert not any(row.route_disagreement for row in report.rows)
    assert report.verdicts["bound_checks_passed"] == "2/2"
    assert peak <= 10 * 8 * m * max(n_list), peak / (8 * m * max(n_list))


def test_du_scan_at_2_14_is_matrix_free(monkeypatch):
    # du's kernel direction e, with e_k ~ 2^-k, lies outside X_n by about
    # 2^-n, far above the cutoff at these n, so no row captures it, and the
    # offset angle is 0: both sines read roundoff
    report, _ = _matrix_free_scan(monkeypatch, "du", [4, 8, 16], 2**14)
    assert report.verdicts["kernel_approximability"] == "violated"
    assert all(max(row.sin_theta_gap, row.sin_theta_qn) <= 1e-14 for row in report.rows)


def test_identity_scan_at_2_14_is_matrix_free(monkeypatch):
    # identity's products are I's columns and copies, and its factor is its
    # inverse, a copy: no row forms T, every diagnostic is trivial, and the
    # scan's allocations peak under 10 x 8 m n_max bytes (7.0 measured)
    report, peak = _matrix_free_scan(monkeypatch, "identity", [4, 8], 2**14)
    assert [(row.sin_theta_gap, row.norm_tn_dag_t) for row in report.rows] == [(0.0, 1.0)] * 2
    assert report.verdicts["bound_checks_passed"] == "2/2"
    assert peak <= 10 * 8 * 2**14 * 8, peak / (8 * 2**14 * 8)


def test_best_lpa_scan_at_2_14_is_matrix_free(monkeypatch):
    # at m = 2^14 V, or X_n's m x (m - 12 + n) basis, would be 2 GB; the
    # rows read T through U_r Sigma V_r^T and X_n through V's 12
    # reflectors. The offset angle is 0 and ||T_n^+ T|| = 1 by
    # construction, the kernel lies in every X_n, and the scan's
    # allocations peak under 10 x 8 m (r + n_max) bytes (6.7 measured)
    m, n_list, r = 2**14, [2, 12], 12
    report, peak = _matrix_free_scan(monkeypatch, "best-lpa", n_list, m)
    assert [report.verdicts[k] for k in ("kernel_approximability", "sup_theta_bounded",
                                         "bound_checks_passed")] == ["holds", "bounded", "2/2"]
    assert all(max(row.sin_theta_gap, row.sin_theta_qn) <= 1e-8 for row in report.rows)
    assert [row.norm_tn_dag_t for row in report.rows] == pytest.approx([1, 1], rel=0, abs=1e-8)
    assert peak <= 10 * 8 * m * (r + max(n_list)), peak / (8 * m * (r + max(n_list)))


def _out_of_memory_family(monkeypatch):
    # seidman whose products, at any m, fail as numpy fails to allocate;
    # nothing is allocated
    fam = get_family("seidman")

    def products(m):
        raise MemoryError(f"Unable to allocate 116. TiB for an array with shape ({m}, {m}) "
                          "and data type float64")

    monkeypatch.setattr(lpakit.scan, "get_family",
                        lambda name, **params: dataclasses.replace(fam, products=products))


def test_run_scan_reports_an_allocation_failure_as_numerical(monkeypatch):
    _out_of_memory_family(monkeypatch)
    cfg = scan_config_from_dict({"operator": {"name": "seidman"}, "n_list": [8],
                                 "m_rule": "fixed:4000000"})
    with pytest.raises(ScanNumericalError, match="'seidman' at n=8, m=4000000") as info:
        run_scan(cfg)
    assert isinstance(info.value.__cause__, MemoryError) and info.value.m == 4000000


def test_cli_analyze_allocation_failure_exits_3(tmp_path, capsys, monkeypatch):
    _out_of_memory_family(monkeypatch)
    path = write_config(tmp_path, operator={"name": "seidman"}, n_list=[8],
                        m_rule="fixed:4000000")
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    for fragment in ("'seidman'", "n=8", "m=4000000", "Unable to allocate 116. TiB"):
        assert fragment in err


@pytest.mark.parametrize("m_rule, ms", [("fixed:20", 1), ("factor:10", 2)])
def test_best_lpa_builds_its_model_once_per_m(monkeypatch, m_rule, ms):
    calls = []
    real = lpakit.operators.from_singular_system
    monkeypatch.setattr(lpakit.operators, "from_singular_system",
                        lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    run_scan(scan_config_from_dict({"operator": {"name": "best-lpa"},
                                    "n_list": [2, 4], "m_rule": m_rule}))
    assert len(calls) == ms == len(set(calls))


def test_run_scan_wraps_numerical_failures(monkeypatch):
    def explode(inst, tol):
        raise ArithmeticError("solution leaked")

    monkeypatch.setattr(lpakit.scan, "diagnose", explode)
    cfg = scan_config_from_dict(minimal_config())
    with pytest.raises(ScanNumericalError, match="'du' at n=2"):
        run_scan(cfg)


def test_csv_layout():
    cfg = scan_config_from_dict(minimal_config())
    text = render_csv(run_scan(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "34"
    assert len(first) == 10


def test_csv_header_is_the_frozen_schema():
    # derived from LpaDiagnostics' fields; the header the benchmark's
    # checks (perfbench/checks.py) and every committed CSV hold
    assert CSV_HEADER == ("n,m,theta_n,sin_theta_gap,sin_theta_qn,norm_tn_dag_t,"
                          "kernel_core_dim,kernel_dim,kernel_gap,bound_factor")


def test_csv_determinism():
    cfg = scan_config_from_dict(minimal_config(n_list=[2, 4, 8]))
    assert render_csv(run_scan(cfg)) == render_csv(run_scan(cfg))


# ----------------------------------------------------------------------- cli


def write_config(tmp_path, **overrides):
    data = {
        "operator": {"name": "du"},
        "n_list": [2, 4],
        "outputs": [{"path": "rows.csv", "format": "csv"},
                    {"path": "rows.json", "format": "json"}],
    }
    data.update(overrides)
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_analyze_writes_outputs(tmp_path, capsys):
    code = main(["analyze", write_config(tmp_path), "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert CSV_HEADER in out
    assert "kernel_approximability: violated" in out
    csv_text = (tmp_path / "rows.csv").read_text()
    assert csv_text.startswith(CSV_HEADER)
    payload = json.loads((tmp_path / "rows.json").read_text())
    assert [row["n"] for row in payload["rows"]] == [2, 4]
    assert payload["verdicts"]["bound_checks_passed"] == "0/0"
    assert payload["config"]["operator"]["name"] == "du"


def test_cli_analyze_names_route_disagreements_on_stderr(tmp_path, capsys):
    # a route_warn below the routes' roundoff flags rows, named in one
    # stderr line; stdout and the CSV are those of a run that flags none
    flagged_cfg = write_config(tmp_path, operator={"name": "seidman"}, n_list=[2, 4, 8],
                               tolerances={"route_warn": 1e-300})
    rows = run_scan(load_scan_config(flagged_cfg)).rows
    flagged = [row.n for row in rows if abs(row.sin_theta_gap - row.sin_theta_qn) > 1e-300]
    assert flagged
    assert main(["analyze", flagged_cfg, "--out-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ("warning: the two offset-angle routes differ by more than route_warn = "
                   f"1e-300 at n = {', '.join(map(str, flagged))}\n")
    csv_text = (tmp_path / "rows.csv").read_bytes()
    quiet_cfg = write_config(tmp_path, operator={"name": "seidman"}, n_list=[2, 4, 8])
    assert main(["analyze", quiet_cfg, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr() == (out, "")
    assert (tmp_path / "rows.csv").read_bytes() == csv_text


@pytest.mark.parametrize("name", ["seidman", "du", "best_lpa"])
def test_cli_analyze_shipped_configs_print_no_warning(tmp_path, capsys, name):
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    assert main(["analyze", str(config), "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_analyze_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, n_list=[2, 4, 8])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", cfg, "--out-dir", str(out1)]) == 0
    assert main(["analyze", cfg, "--out-dir", str(out2)]) == 0
    assert (out1 / "rows.csv").read_bytes() == (out2 / "rows.csv").read_bytes()
    assert (out1 / "rows.json").read_bytes() == (out2 / "rows.json").read_bytes()


def test_cli_analyze_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"operator": {"name": "du"}, "n_list": [4, 2]}))
    assert main(["analyze", str(path)]) == 2
    assert "n_list" in capsys.readouterr().err


def test_cli_analyze_outputs_not_a_list_exits_2(tmp_path, capsys):
    assert main(["analyze", write_config(tmp_path, outputs=5)]) == 2
    err = capsys.readouterr().err
    assert "outputs" in err and "Traceback" not in err


def test_cli_analyze_unwritable_output_exits_2(tmp_path, capsys):
    # an output path under a regular file cannot be made: a usage error
    # named on stderr, not a traceback
    (tmp_path / "plain").write_text("")
    cfg = write_config(tmp_path, outputs=[{"path": "plain/rows.csv", "format": "csv"}])
    assert main(["analyze", cfg, "--out-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write an output: ") and "plain" in err
    assert "wrote" not in out
    # an output written before the failing one is named, and only it
    cfg = write_config(tmp_path, outputs=[{"path": "ok.csv", "format": "csv"},
                                          {"path": "plain/x.json", "format": "json"}])
    assert main(["analyze", cfg, "--out-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write an output: ") and "plain" in err
    assert [line for line in out.splitlines() if line.startswith("wrote")] == [
        f"wrote {tmp_path / 'ok.csv'}"]
    assert (tmp_path / "ok.csv").read_text().startswith(CSV_HEADER)


def test_cli_analyze_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("sigmas, fragment", [
    ("[1e400]", "finite"),
    ("[NaN]", "finite"),
    ("[1e-320]", "finite"),
    ("[true, 0.5]", "real numbers"),
    ('["1", "0.5"]', "real numbers"),
    ('"12"', "real numbers"),
    ("[1%s]" % ("0" * 400), "finite"),
], ids=["1e400", "NaN", "1e-320", "bool", "numeric-strings", "bare-string", "int-past-float"])
def test_cli_analyze_non_finite_sigmas_exit_2(tmp_path, capsys, sigmas, fragment):
    # json reads 1e400 as inf and NaN as nan, and 1e-320 is a subnormal
    # whose reciprocal, which T^+ divides by, overflows, as would float() of
    # an integer past float range; a boolean, a numeric string or a bare
    # string is no list of real numbers: a config problem, not a numerical
    # failure of the scan, and no numpy warning (which the test settings
    # make an error)
    path = tmp_path / "scan.json"
    path.write_text('{"operator": {"name": "best-lpa", "params": {"sigmas": %s}}, '
                    '"n_list": [1]}' % sigmas)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "sigmas" in err and fragment in err


def test_cli_analyze_unknown_operator_exits_2(tmp_path, capsys):
    assert main(["analyze", write_config(tmp_path, operator={"name": "wat"})]) == 2
    assert "wat" in capsys.readouterr().err


def test_cli_analyze_kernel_core_beyond_the_kernel_exits_3(tmp_path, capsys, monkeypatch):
    # a family certifying T = diag(1, 1e-15) injective by its exact inverse:
    # at n = m = 2, T X_n = T has a singular value under the cutoff, a kernel
    # core that N(T) = {0} cannot hold, so the row is a numerical failure
    t = np.diag([1.0, 1e-15])
    fam = lpakit.operators.OperatorFamily(
        name="identity", truncate=lambda m: t, kernel_dim_hint=0, notes="",
        products=lambda m: lpakit.operators.Products.dense(t)._replace(
            inverse=(np.diag([1.0, 1e15]).__matmul__, 1.0)))
    monkeypatch.setattr(lpakit.scan, "get_family", lambda name, **params: fam)
    path = write_config(tmp_path, operator={"name": "identity"}, n_list=[2], m_rule="fixed:2")
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n=2" in err and "dim N(T) = 0" in err


def test_cli_analyze_too_coarse_rank_tolerance_exits_2(tmp_path, capsys):
    # at n = 128 (m = 512) T X_n has singular values under the cutoff that
    # rank 1e-6 sets, though N(T) = {0}; the rule's default cutoff keeps
    # them all, so the setting, not the arithmetic, is at fault
    path = write_config(tmp_path, operator={"name": "seidman"}, n_list=[64, 128],
                        tolerances={"rank": 1e-6})
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "tolerances.rank" in err and "n=128" in err
    # a library caller still gets an ArithmeticError
    fam = get_family("seidman")
    inst = make_lpa(fam, 128, 512, lpakit.analysis.shared_factors(fam, 1e-6)(512))
    with pytest.raises(ArithmeticError, match="default cutoff"):
        diagnose(inst, Tolerances(rank=1e-6))


def test_cli_analyze_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def explode(inst, tol):
        raise ArithmeticError("took a wrong turn")

    monkeypatch.setattr(lpakit.scan, "diagnose", explode)
    assert main(["analyze", write_config(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "'du'" in err and "n=2" in err


def test_cli_analyze_subspace_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a ValueError raised while computing (here the orthonormality check on
    # an offset-angle image) is numerical, not a config problem
    real_qr = np.linalg.qr

    def skewed_qr(a, *args, **kwargs):
        q, r = real_qr(a, *args, **kwargs)
        return 2.0 * q, r

    monkeypatch.setattr(np.linalg, "qr", skewed_qr)
    assert main(["analyze", write_config(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "n=2" in err and "not orthonormal" in err


def test_cli_analyze_out_of_range_n_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, operator={"name": "best-lpa"}, n_list=[2, 13],
                       m_rule="fixed:20")
    assert main(["analyze", cfg]) == 2
    assert "n=13" in capsys.readouterr().err


@pytest.mark.parametrize("tolerances", [
    {"check": "abc"},
    {"check": -1},
    {"check": 0},
    {"check": 1.0},
    {"check": None},
    {"check": [1e-8]},
    {"rank": -1.0},
    {"rank": 0.0},
    {"rank": 1},
    {"rank": True},
    {"route_warn": 0},
    {"route_warn": float("inf")},
    {"identity_rel": -1e-7},
    {"identity_rel": float("nan")},
    {"bound_rel": -1e-6},
    {"bound_abs": -1e-9},
    {"bound_abs": False},
    {"bound_abs": 10**400},
], ids=lambda tol: "-".join(f"{k}={v!r}"[:24] for k, v in tol.items()))
def test_cli_analyze_rejects_bad_tolerance(tmp_path, capsys, tolerances):
    assert main(["analyze", write_config(tmp_path, tolerances=tolerances)]) == 2
    err = capsys.readouterr().err
    assert f"tolerance '{next(iter(tolerances))}'" in err
    assert "Traceback" not in err and not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("overrides", [{"n_list": [True, 2]}, {"seed": False}])
def test_cli_analyze_rejects_booleans_as_integers(tmp_path, capsys, overrides):
    assert main(["analyze", write_config(tmp_path, **overrides)]) == 2
    assert next(iter(overrides)) in capsys.readouterr().err


def test_cli_verify_all_suites_pass(capsys):
    for suite in ("penrose", "projectors", "lemma30", "eq37", "eq20",
                  "bounds", "du", "seidman", "best"):
        assert main(["verify", suite]) == 0, suite
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


def test_cli_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "nope"]) == 2
    err = capsys.readouterr().err
    assert "penrose" in err and "seidman" in err


def test_cli_analyze_imports_no_suites(tmp_path):
    config = str(Path(__file__).resolve().parents[1] / "configs" / "du.json")
    last = _fresh_python(
        "import sys\n"
        "from lpakit.cli import main\n"
        f"code = main(['analyze', {config!r}, '--out-dir', {str(tmp_path)!r}])\n"
        "print(code, 'lpakit.suites' in sys.modules)\n")
    assert last == "0 False"


def test_importing_the_cli_makes_at_most_three_dataclasses():
    # each @dataclass generates and runs its methods' source at import; the
    # value records are NamedTuples, which do not
    last = _fresh_python(
        "import dataclasses\n"
        "real, made = dataclasses.dataclass, []\n"
        "def counting(cls=None, /, **kw):\n"
        "    if cls is None:\n"
        "        return lambda cls: counting(cls, **kw)\n"
        "    made.append(f'{cls.__module__}.{cls.__qualname__}')\n"
        "    return real(cls, **kw)\n"
        "dataclasses.dataclass = counting\n"
        "import lpakit.cli\n"
        "print(*[name for name in made if name.startswith('lpakit.')])\n")
    assert len(last.split()) <= 3, last


def test_cli_verify_help_names_every_suite(capsys):
    # cli spells the names out, so that analyze does not import the suites
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "one of: " + ", ".join(lpakit.suites.SUITE_NAMES) in help_text


def test_cli_verify_bounds_reports_a_failed_bound_check(capsys, monkeypatch):
    real = lpakit.suites.error_bound_check
    monkeypatch.setattr(lpakit.suites, "error_bound_check",
                        lambda inst, y: real(inst, y)._replace(passed=False))
    assert main(["verify", "bounds"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL bounds.bound_holds_on_seeded_instances: 0/30 passed"
    assert lines[-1] == "1/2 checks passed"


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'nope'; valid suites: best, "):
        lpakit.suites.run_suite("nope")


@pytest.mark.parametrize("error", [
    PreconditionError("kernel not contained in the subspace"),
    ZeroDivisionError("float division by zero"),
    ScanNumericalError("du", 4, "SVD did not converge"),
], ids=["precondition", "arithmetic", "scan"])
def test_cli_verify_error_inside_a_suite_exits_3(capsys, monkeypatch, error):
    # an error that stops a named suite is a numerical failure, not a usage
    # error, and the message names the suite
    def stopped():
        raise error

    monkeypatch.setitem(lpakit.suites.SUITES, "best", stopped)
    assert main(["verify", "best"]) == 3
    err = capsys.readouterr().err
    assert "'best'" in err and str(error) in err


def test_tolerances_come_only_from_the_config(tmp_path, capsys, monkeypatch):
    # the removed tolerance override, set to a value it accepted or to one
    # it rejected, changes neither the fixed suites nor a scan's outputs
    cfg = write_config(tmp_path, operator={"name": "best-lpa"}, n_list=[2, 4],
                       m_rule="fixed:20")
    assert main(["analyze", cfg, "--out-dir", str(tmp_path / "unset")]) == 0
    for value in ("1e-17", "banana"):
        monkeypatch.setenv("LPAKIT_TOL", value)
        assert main(["verify", "best"]) == 0
        out = tmp_path / value
        assert main(["analyze", cfg, "--out-dir", str(out)]) == 0
        for name in ("rows.csv", "rows.json"):
            assert (out / name).read_bytes() == (tmp_path / "unset" / name).read_bytes()
    assert capsys.readouterr().err == ""


def test_python_m_lpakit_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "lpakit", "verify", "penrose"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS penrose." in proc.stdout


def test_cli_gallery_lists_families(capsys):
    assert main(["gallery"]) == 0
    out = capsys.readouterr().out
    for name in ("seidman", "du", "best-lpa"):
        assert name in out


def test_scan_report_fields_mirror_rows():
    cfg = scan_config_from_dict(minimal_config())
    rep = run_scan(cfg)
    payload = lpakit.scan.report_to_dict(rep)
    for row, raw in zip(rep.rows, payload["rows"]):
        assert raw["theta_n"] == row.theta_n
        assert raw["bound_factor"] == row.bound_factor
        assert not math.isnan(raw["theta_n"])


@pytest.mark.parametrize("operator, n_list, m_rule, verdict", [
    ({"name": "du"}, [2, 4, 8, 16], None, "violated"),
    ({"name": "random", "params": {"kernel_dim": 2, "seed": 1}}, [2, 4, 8], None, "holds"),
    # the core grows from 2 to 3 of 4 dimensions: neither captured nor stuck
    ({"name": "random", "params": {"kernel_dim": 4, "seed": 0}}, [2, 3], "fixed:12",
     "inconclusive"),
], ids=["du", "random-captured", "random-growing-core"])
def test_kernel_verdict_same_in_scan_and_rows(operator, n_list, m_rule, verdict):
    cfg = scan_config_from_dict({"operator": operator, "n_list": n_list, "m_rule": m_rule})
    rep = run_scan(cfg)
    assert rep.verdicts["kernel_approximability"] == verdict
    assert kernel_verdict(rep.rows, cfg.tolerances.check) == verdict


def test_render_json_is_strict_with_non_finite_values():
    rep = run_scan(scan_config_from_dict(minimal_config(n_list=[2, 4])))
    tol = rep.config.tolerances._replace(bound_abs=math.inf)
    rep = rep._replace(
        config=rep.config._replace(tolerances=tol),
        rows=(rep.rows[0]._replace(bound_factor=math.inf),
              rep.rows[1]._replace(kernel_gap=math.nan)))

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(render_json(rep), parse_constant=reject)
    assert payload["rows"][0]["bound_factor"] == "inf"
    assert payload["rows"][1]["kernel_gap"] == "nan"
    assert payload["config"]["tolerances"]["bound_abs"] == "inf"
    # the JSON text of a non-finite value is its CSV cell
    assert render_csv(rep).splitlines()[1].endswith(",inf")


def test_scan_config_m_for():
    cfg = ScanConfig(operator_name="du", operator_params={}, n_list=(2,),
                     m_rule="factor:5", tolerances=Tolerances())
    assert cfg.m_for(2) == 10
