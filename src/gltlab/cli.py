"""`verify` command: run a named check suite and emit a JSON report.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error,
3 configuration rejected by the resource guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from . import __version__
from .field import T_POLY, check_prime
from . import centralizer, diagrams, invariants, tensor_eval, ugl, yangian

SCHEMA_VERSION = 1

SUITES = ("brauer", "evalfunctor", "ugl", "yangian", "centralizer",
          "invariants", "all")


@dataclass
class RunConfig:
    n: int = 1
    N: list[int] = field(default_factory=lambda: [2, 3])
    m: int = 3
    field_name: str = "Q"
    prime: int = 5
    seed: int = 0
    pairs: int = 20
    out: str | None = None

    def validate(self, suite: str):
        if not self.N or min(self.n, self.m, self.pairs, *self.N) < 1:
            raise ValueError("n, N, m and pairs must be positive")
        if self.field_name not in ("Q", "GF"):
            raise ValueError(f"unknown field {self.field_name!r}")
        check_prime(self.prime)
        if self.field_name == "GF" and suite != "yangian":
            raise ValueError(f"--field is for yangian only, not {suite}")


class ResourceGuard(Exception):
    """Configuration exceeds the precomputed cost caps."""


def guard(cfg: RunConfig):
    """Reject configurations whose exact-arithmetic cost explodes."""
    # Cost drivers: relation-table words grow like (n^2 m)!-ish in the
    # straightening, invariant ranks like (N+n)^(2m) monomials.
    if cfg.n > 2:
        raise ResourceGuard(f"n={cfg.n} beyond cap (n <= 2)")
    if cfg.m > 4 or (cfg.n == 2 and cfg.m > 3):
        raise ResourceGuard(f"(n,m)=({cfg.n},{cfg.m}) beyond cap")
    if max(cfg.N) > 8:
        raise ResourceGuard(f"N={max(cfg.N)} beyond cap (N <= 8)")
    if cfg.pairs > 500:
        raise ResourceGuard("too many randomized pairs (cap 500)")


# ---------------------------------------------------------------------------
# Suites.  Each returns a list of check dicts.

def suite_brauer(cfg: RunConfig) -> list[dict]:
    checks = []
    for k, l in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        sig = (diagrams.V,) * k + (diagrams.VDUAL,) * l
        got = diagrams.hom_dim(sig, sig)
        checks.append({"check": "endomorphism dimension is (k+l)!",
                       "parameters": {"k": k, "l": l},
                       "expected": math.factorial(k + l), "got": got,
                       "pass": got == math.factorial(k + l)})
    loop = diagrams.coev().then(diagrams.ev(diagrams.V))
    want = diagrams.Morphism((), (), {diagrams.BrauerDiagram((), (), ()): T_POLY})
    checks.append({"check": "ev o coev = t", "parameters": {},
                   "expected": "t", "got": repr(loop),
                   "pass": loop == want})
    _, gram = diagrams.gram_matrix(diagrams.word("VVV*V*"))
    r_sym = diagrams.poly_matrix_rank(gram)
    r_point = diagrams.poly_matrix_rank(gram, Fraction(7, 2))
    checks.append({"check": "Gram rank of End(VVV*V*)",
                   "parameters": {"t0": ["generic", "7/2"]},
                   "expected": [24, 24], "got": [r_sym, r_point],
                   "pass": (r_sym, r_point) == (24, 24)})
    checks.extend(diagrams.lie_structure_check())
    checks.extend(diagrams.rtt_degree1_check())
    return checks


def suite_evalfunctor(cfg: RunConfig) -> list[dict]:
    checks = [tensor_eval.functoriality_suite(cfg.pairs, cfg.seed,
                                              tuple(cfg.N))]
    for k, l in [(1, 0), (1, 1), (2, 1)]:
        sig = (diagrams.V,) * k + (diagrams.VDUAL,) * l
        want = math.factorial(k + l)
        got = tensor_eval.faithfulness_rank(sig, k + l)
        checks.append({"check": "realization is faithful for N >= k+l",
                       "parameters": {"k": k, "l": l, "N": k + l},
                       "expected": want, "got": got, "pass": got == want})
    return checks


def suite_ugl(cfg: RunConfig) -> list[dict]:
    checks = []
    bad = []
    for m_size in (2, 3):
        for k in range(1, 4):
            g = ugl.gelfand(k, m_size)
            for a in range(1, m_size + 1):
                for b in range(1, m_size + 1):
                    if not g.commutator(ugl.UElement.gen(m_size, a, b)).is_zero():
                        bad.append([m_size, k, a, b])
    checks.append({"check": "Gelfand invariants are central",
                   "parameters": {"M": [2, 3], "k": [1, 2, 3]},
                   "expected": [], "got": bad, "pass": not bad})
    x = ugl.straighten([(1, 2), (2, 1)], 2)
    y = ugl.straighten([(2, 1), (1, 2)], 2) + ugl.UElement.gen(2, 1, 1) \
        - ugl.UElement.gen(2, 2, 2)
    checks.append({"check": "straightening satisfies the defining bracket",
                   "parameters": {"word": "E[1,2]E[2,1]"},
                   "expected": y.to_text(), "got": x.to_text(),
                   "pass": x == y})
    got = [len(ugl.filtration_basis(m, 2)) for m in (2, 3)]
    checks.append({"check": "filtration monomial counts",
                   "parameters": {"M": 2, "m": [2, 3]},
                   "expected": [15, 35], "got": got,
                   "pass": got == [15, 35]})
    return checks


def suite_yangian(cfg: RunConfig) -> list[dict]:
    rep = yangian.pbw_report(cfg.n, cfg.m,
                             cfg.prime if cfg.field_name == "GF" else None)
    checks = [{"check": "PBW: normal-form span equals monomial count",
               "parameters": {"n": cfg.n, "m": cfg.m, "field": rep["field"]},
               "expected": rep["expected"], "got": rep["dims"],
               "pass": rep["pass"]}]
    for kind, params in [("shift", {"s": Fraction(1)}), ("negate-u", {}),
                         ("invert", {}), ("omega", {"c": Fraction(2)})]:
        for c in yangian.automorphism_check(kind, cfg.n, min(cfg.m, 3), **params):
            c.setdefault("parameters", {"n": cfg.n, "m": min(cfg.m, 3)})
            c.setdefault("expected", True)
            c.setdefault("got", c["pass"])
            checks.append(c)
    return checks


def suite_centralizer(cfg: RunConfig) -> list[dict]:
    checks = []
    for n_big in cfg.N:
        conv = centralizer.BlockConvention(cfg.n, n_big)
        checks.append(centralizer.membership_check(conv, cfg.m))
        checks.append(centralizer.homomorphism_check(conv, cfg.m))
        checks.append(centralizer.zed_central_check(conv, min(cfg.m, 3)))
        checks.append(centralizer.zed_commutes_psi_check(conv, min(cfg.m, 3),
                                                         cfg.m))
        checks.append(centralizer.injectivity_check(min(cfg.m, 2), conv))
    checks.append(centralizer.interpolation_check(cfg.n))
    return checks


def suite_invariants(cfg: RunConfig) -> list[dict]:
    checks = []
    for m in range(1, cfg.m + 1):
        checks.append(invariants.dim_match_check(m, cfg.n, max(cfg.N) + m))
    checks.append(invariants.roundtrip_check(min(cfg.m, 3), cfg.n,
                                             max(cfg.N)))
    conv = centralizer.BlockConvention(cfg.n, max(cfg.N))
    checks.append(invariants.leading_symbol_check(conv, min(cfg.m, 3)))
    return checks


SUITE_FNS = {
    "brauer": suite_brauer,
    "evalfunctor": suite_evalfunctor,
    "ugl": suite_ugl,
    "yangian": suite_yangian,
    "centralizer": suite_centralizer,
    "invariants": suite_invariants,
}


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Run a validated, guarded config (see `main`)."""
    names = list(SUITE_FNS) if name == "all" else [name]
    checks = []
    for sub in names:
        for c in SUITE_FNS[sub](cfg):
            c["suite"] = sub
            checks.append(c)
    checks.sort(key=lambda c: (c["suite"], c["check"],
                               json.dumps(c.get("parameters", {}),
                                          sort_keys=True, default=str)))
    passed = sum(1 for c in checks if c["pass"])
    cfg_dict = asdict(cfg)
    cfg_dict.pop("out")  # output path must not affect report bytes
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "suite": name,
        "config": cfg_dict,
        "checks": checks,
        "summary": {"total": len(checks), "passed": passed,
                    "failed": len(checks) - passed,
                    "pass": passed == len(checks)},
    }


def emit_report(report: dict, path: str | None) -> str:
    text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="verify",
        description="Run exact verification suites and emit a JSON report.")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--n", type=int)
    p.add_argument("--N", type=int, nargs="+")
    p.add_argument("--m", type=int)
    p.add_argument("--field", choices=["Q", "GF"])
    p.add_argument("--prime", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--pairs", type=int)
    p.add_argument("--out")
    return p


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _well_typed(key: str, value) -> bool:
    """Whether a config-file value has the type of its RunConfig field."""
    if key == "N":
        return isinstance(value, list) and all(map(_is_int, value))
    if key == "field_name":
        return isinstance(value, str)
    if key == "out":
        return value is None or isinstance(value, str)
    return _is_int(value)


def load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        names = {f.name for f in fields(RunConfig)}
        for key, value in data.items():
            if key == "field":
                key = "field_name"
            if key not in names:
                raise ValueError(f"unknown config key {key!r}")
            if not _well_typed(key, value):
                raise ValueError(f"config key {key!r} has the wrong type")
            setattr(cfg, key, value)
    overrides = {"n": args.n, "N": args.N, "m": args.m,
                 "field_name": args.field, "prime": args.prime,
                 "seed": args.seed, "pairs": args.pairs, "out": args.out}
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        cfg.validate(args.suite)
        guard(cfg)
        if cfg.out:  # an unwritable --out fails here, before any suite runs
            open(cfg.out, "a").close()
    except ResourceGuard as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_suite(args.suite, cfg)
    sys.stdout.write(emit_report(report, cfg.out))
    return 0 if report["summary"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
