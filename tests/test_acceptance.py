"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  All randomness is seeded; expected values come from independent
oracles (midpoint Riemann sums through eigendecompositions, closed forms,
eigenvalue counting) rather than from the code paths under test.
"""
import math

import numpy as np

from ncerg import (
    BesicovitchWeight,
    GeneratorExp,
    Identity,
    MaximalParams,
    Operator,
    ScalarDecay,
    SchurDecay,
    TracialAlgebra,
    TrigTerm,
    UnitaryFlow,
    assemble_certificate,
    bau_cauchy_certify,
    besicovitch_error,
    cesaro_average,
    cesaro_map_family,
    double_average_certificate,
    lp_limit_check,
    make_dense_certifier,
    make_maximal_oracle,
    maximal_projection,
    perturbation_transfer,
    pnorm,
    random_positive,
    random_self_adjoint,
    sandwich_check,
    scheme_from_semigroup,
    substitution_bound_check,
    trig_average,
    weighted_average,
)
from ncerg.algebra import unvec, vec
from ncerg.averaging import residual_from_config
from ncerg.cli import main as cli_main
from ncerg.semigroups import lindblad_generator

SEED = 20240810
ALG = TracialAlgebra((2, 2), (1.0, 0.5))
_CACHE: dict = {}


def _report(cid: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid} failed: {detail}"


def variants():
    if "variants" not in _CACHE:
        rng = np.random.default_rng(SEED)
        rates = []
        for n in ALG.blocks:
            idx = np.arange(n)
            rates.append(np.abs(idx[:, None] - idx[None, :]).astype(float))
        lind = lindblad_generator(
            ALG,
            random_self_adjoint(ALG, rng, norm=0.5),
            [random_self_adjoint(ALG, rng, norm=0.5)],
        )
        _CACHE["variants"] = {
            "identity": Identity(ALG),
            "scalar_decay": ScalarDecay(ALG, 1.0),
            "unitary_flow": UnitaryFlow(ALG, random_self_adjoint(ALG, rng, norm=1.0)),
            "schur_decay": SchurDecay(ALG, rates),
            "generator_exp": GeneratorExp(ALG, 0.5 * lind),
        }
    return _CACHE["variants"]


# ---------------------------------------------------------------------------
# independent oracle: 1e5-point midpoint Riemann sum via eigendecompositions
# ---------------------------------------------------------------------------

def riemann_cesaro(sg, x: Operator, T: float, n: int = 100_000) -> Operator:
    ts = (np.arange(n) + 0.5) * (T / n)
    if isinstance(sg, Identity):
        return x
    if isinstance(sg, ScalarDecay):
        return float(np.mean(np.exp(-sg.rate * ts))) * x
    if isinstance(sg, UnitaryFlow):
        blocks = []
        for h, a in zip(sg.hamiltonian.blocks, x.blocks):
            w, v = np.linalg.eigh(h)
            xt = v.conj().T @ a @ v
            gaps = w[:, None] - w[None, :]
            mean_ph = np.exp(1j * ts[:, None, None] * gaps[None]).mean(axis=0)
            blocks.append(v @ (mean_ph * xt) @ v.conj().T)
        return Operator(x.algebra, blocks)
    if isinstance(sg, SchurDecay):
        blocks = []
        for c, a in zip(sg.rates, x.blocks):
            mean_s = np.exp(-ts[:, None, None] * c[None]).mean(axis=0)
            blocks.append(mean_s * a)
        return Operator(x.algebra, blocks)
    if isinstance(sg, GeneratorExp):
        vals, wmat = np.linalg.eig(np.asarray(sg.matrix))
        assert np.linalg.cond(wmat) < 1e8
        coeff = np.linalg.solve(wmat, vec(x))
        mean_e = np.exp(np.outer(ts, vals)).mean(axis=0)
        return unvec(x.algebra, wmat @ (mean_e * coeff))
    raise TypeError(sg)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c1_quadrature_matches_riemann_oracle():
    rng = np.random.default_rng([SEED, 1])
    worst = 0.0
    for name, sg in variants().items():
        x = random_self_adjoint(ALG, rng, norm=1.0)
        for T in (1.0, 0.37):
            got = cesaro_average(sg, x, T)
            oracle = riemann_cesaro(sg, x, T)
            rel = (got - oracle).norm_inf() / max(oracle.norm_inf(), 1e-300)
            worst = max(worst, rel)
    _report("C1 oracle-equivalence", worst <= 1e-8, f"worst rel gap {worst:.2e}")


def test_c2_sandwich_slacks():
    rng = np.random.default_rng([SEED, 2])
    worst = math.inf
    for name, sg in variants().items():
        xs = [random_positive(ALG, rng, norm=1.0) for _ in range(20)]
        for x in xs:
            for a in (0.1, 0.5, 1.0):
                for b in (0.1, 0.5, 1.0):
                    lo, up = sandwich_check(sg, x, a, b)
                    worst = min(worst, lo, up)
    _report("C2 sandwich", worst >= -1e-8, f"worst slack {worst:.2e}")


def test_c3_local_convergence():
    rng = np.random.default_rng([SEED, 3])
    ok = True
    details = []
    for name, sg in variants().items():
        x = random_self_adjoint(ALG, rng, norm=1.0)
        Ts = [2.0**-k for k in range(13)]
        family = [(T, cesaro_average(sg, x, T)) for T in Ts]
        for p in (1.0, 2.0):
            errs = [pnorm(ALG, y - x, p) for _, y in family]
            mono = all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(errs, errs[1:]))
            final = errs[-1] < 1e-3 * pnorm(ALG, x, p)
            ok &= mono and final
            if not (mono and final):
                details.append(f"{name} p={p}")
        cert = bau_cauchy_certify(
            family, epsilon=0.1 * ALG.trace_of_identity, tol=1e-3 * x.norm_inf()
        )
        ok &= cert.ok and cert.cotrace <= 0.1 * ALG.trace_of_identity
        if not cert.ok:
            details.append(f"{name} cert flags {cert.flags}")
    _report("C3 local-convergence", ok, "; ".join(details))


def test_c4_window_construction():
    rng = np.random.default_rng([SEED, 4])
    eps = 0.3
    ok = True
    details = []
    for name, sg in variants().items():
        x = random_positive(ALG, rng, norm=1.0)
        sched = np.geomspace(0.25, 1e-7, 22)
        cert = double_average_certificate(
            sg, x, b=1.0, p=1.0, epsilon=eps, a_schedule=sched
        )
        head_budget = sum(
            eps / 2.0 ** (k + 1)
            for tag, k, *_ in cert.params["levels"]
            if tag == "head"
        )
        cuts_exact = all(
            level == eps / 2.0 ** (k + 1)
            for tag, k, a_k, tr, level, cot in cert.params["levels"]
        )
        checks = (
            cert.cotrace < eps
            and cuts_exact
            and cert.params["head_cotrace"] <= head_budget + 1e-12
            and cert.params["final_decay"] < 1e-6
            and cert.ok
        )
        ok &= checks
        if not checks:
            details.append(name)
    _report("C4 window-construction", ok, "; ".join(details))


def _maximal_sweep():
    if "maximal" in _CACHE:
        return _CACHE["maximal"]
    rng = np.random.default_rng([SEED, 5])
    T_grid = np.geomspace(1e-5, 10.0, 48)
    results = {}
    for name, sg in variants().items():
        xs = [random_self_adjoint(ALG, rng, norm=1.0) for _ in range(20)]
        families = [
            {float(T): cesaro_average(sg, x, T) for T in T_grid} for x in xs
        ]
        per_eps = {}
        worst_bound = 0.0
        for eps in (0.5, 0.2, 0.1):
            cs = []
            for x, fam in zip(xs, families):
                cert = maximal_projection(
                    sg, x, MaximalParams(C=1.0, p=1.0, epsilon=eps), T_grid, family=fam
                )
                cs.append(cert.params["empirical_C"])
                worst_bound = max(worst_bound, cert.achieved_bound - eps)
            per_eps[eps] = max(cs)
        results[name] = {"per_eps": per_eps, "worst_bound_excess": worst_bound}
    _CACHE["maximal"] = results
    return results


def test_c5_maximal_shape():
    ok = True
    details = []
    for name, res in _maximal_sweep().items():
        cs = list(res["per_eps"].values())
        finite = all(math.isfinite(c) and c > 0 for c in cs)
        stable = finite and max(cs) / min(cs) < 10.0
        bounds = res["worst_bound_excess"] <= 1e-8
        ok &= finite and stable and bounds
        details.append(
            f"{name} C={['%.3f' % c for c in cs]} ratio="
            f"{(max(cs) / min(cs)):.2f}" if finite else f"{name} non-finite"
        )
    _report("C5 maximal-shape", ok, "; ".join(details))


def test_c6_substitution_bound_sweep():
    rng = np.random.default_rng([SEED, 6])
    names = list(variants())
    T_list = np.geomspace(1e-3, 1.0, 10)
    worst = -math.inf
    for case in range(200):
        sg = variants()[names[case % len(names)]]
        n_terms = int(rng.integers(1, 4))
        amps = rng.uniform(0.05, 1.0, n_terms)
        amps *= 0.85 / amps.sum()
        terms = tuple(
            TrigTerm(complex(a * math.cos(ph), a * math.sin(ph)), float(th))
            for a, ph, th in zip(
                amps,
                rng.uniform(0, 2 * math.pi, n_terms),
                rng.uniform(-0.45, 0.45, n_terms),
            )
        )
        amp = float(rng.uniform(0.0, 0.1))
        freq = float(rng.uniform(0.5, 9.0))
        residual = (lambda ts, A=amp, W=freq: A * np.cos(W * np.asarray(ts)))
        b = BesicovitchWeight(terms, residual if amp > 0 else None, amp if amp > 0 else 0.0)
        assert b.sup_bound <= 1.0
        x = random_positive(ALG, rng, norm=1.0)
        T = float(T_list[case % len(T_list)])
        lhs, rhs, _ = substitution_bound_check(sg, b, x, T)
        worst = max(worst, lhs - rhs)
    _report("C6 substitution-bound", worst <= 1e-8, f"worst lhs-rhs {worst:.2e}")


def test_c7_weighted_pipeline():
    rng = np.random.default_rng([SEED, 7])
    sg = variants()["unitary_flow"]
    residual, sup = residual_from_config(
        {"name": "cos", "amplitude": 0.04, "frequency": 7.0}
    )
    b = BesicovitchWeight(
        (TrigTerm(0.55, 0.3), TrigTerm(0.25 + 0.1j, -0.21)), residual, sup
    )
    assert b.sup_bound <= 1.0
    gap_table = besicovitch_error(b, np.geomspace(1.0, 1e-5, 32))
    tail_ok = gap_table.tail_sup < 0.05

    x = random_positive(ALG, rng, norm=1.0)
    Ts = [2.0**-k for k in range(11)]
    base = [(T, trig_average(sg, b.terms, x, T)) for T in Ts]
    tilde = [(T, weighted_average(sg, b, x, T)) for T in Ts]
    base_cert = bau_cauchy_certify(
        base, epsilon=0.1 * ALG.trace_of_identity, tol=1e-3 * x.norm_inf()
    )
    moved = perturbation_transfer(tilde, base, base_cert, [0.1 * x.norm_inf()])
    limit = tilde[-1][1]
    lp_ok = True
    for p in (1.0, 2.0):
        rep = lp_limit_check(tilde, p, limit)
        cap = 2.0 * b.sup_bound * pnorm(ALG, x, p)
        lp_ok &= rep.passed and rep.limit_norm <= cap + 1e-8
    ok = tail_ok and base_cert.ok and moved.ok and lp_ok
    _report(
        "C7 weighted-pipeline",
        ok,
        f"tail_sup={gap_table.tail_sup:.4f} transfer_flags={moved.flags}",
    )


def test_c8_extension_engine():
    rng = np.random.default_rng([SEED, 8])
    sweep = _maximal_sweep()
    ok = True
    details = []
    for name in ("scalar_decay", "unitary_flow"):
        sg = variants()[name]
        c_emp = max(max(sweep[name]["per_eps"].values()), 1e-6)
        eps = 0.5
        T_maps = [2.0**-k for k in range(1, 9)]
        maps = cesaro_map_family(sg, T_maps)
        oracle = make_maximal_oracle(sg, T_maps, p=1.0, C=c_emp, alpha=1.0)
        scheme = scheme_from_semigroup(sg, p=1.0, alpha=1.0)
        certifier = make_dense_certifier(maps, tol=eps / 3.0)
        x = random_self_adjoint(ALG, rng, norm=1.0)
        asm = assemble_certificate(maps, x, eps, scheme, oracle, certifier, n_approx=3)
        devs = asm.replay(maps, x)
        replay_ok = max(devs.values()) <= 1e-10
        budget_ok = asm.cotrace < eps * (c_emp + 1.0) / 2.0
        ok &= replay_ok and budget_ok
        details.append(
            f"{name} C={c_emp:.3f} cotrace={asm.cotrace:.3g} replay={max(devs.values()):.1e}"
        )
    _report("C8 extension-engine", ok, "; ".join(details))


def test_c9_full_suite_determinism(tmp_path):
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        code = cli_main(["run", "--suite", "full", "--out", str(out), "--seed", "11"])
        assert code == 0
        outs.append(out)
    files_a = {p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file()}
    files_b = {p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file()}
    same_names = files_a == files_b
    same_bytes = all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        for rel in sorted(files_a)
    )
    _report(
        "C9 determinism",
        same_names and same_bytes,
        f"{len(files_a)} files compared",
    )
