"""Seeded inputs for the four benchmark workloads.

`build(workload, seed, index, workdir)` returns the requests of pass `index`
in the order they run: the `splice-sig` arguments, a check from `oracles`,
and the inputs drawn from the seed.  Hopf family files are written into
`workdir` with `SeifertFamily.dumps`.  The same seed and index give the same
requests; each pass of a run draws afresh.

The seed draws inputs of matched cost: fixture spellings, characters with a
fixed common level, lattice pairs near a fixed product.  Which fixture, which
level and how many cells are fixed per workload, so that the work of a pass,
and with it `cpu_s` and the latencies, depends little on the seed.
"""

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple

from splicesig.hopf import hopf_seifert_family
from splicesig.torus import Angle

import oracles

WORKLOADS = ("sweep", "eval-highlevel", "verify", "torus-lattice")

# each request is a fresh process; a request still running after this many
# seconds is killed and counted as failed
TIMEOUT_S = {"sweep": 60.0, "eval-highlevel": 60.0, "verify": 120.0,
             "torus-lattice": 60.0}

SPLICE_DOC = {"splice": [{"fixture": "torus-2-4"}, [2],
                         {"fixture": "cable-4-2"}, [1, 1]]}

# interchangeable names of each fixture, as a user may type them
SPELLINGS = {
    "torus(2,4)": ["torus-2-4", "referee-K'L'", "referee-KL1", "torus(2,4)"],
    "cable(4,2)+core": ["cable-4-2", "referee-K''L''", "referee-KL2",
                        "cable(4,2)+core"],
    "torus(3,6)": ["torus-3-6", "referee-L", "torus(3,6)"],
}
ARITY = {"torus(2,4)": 2, "cable(4,2)+core": 3, "torus(3,6)": 3}

# (expression, order) of one sweep pass: 2648 cells at levels <= 24, in four
# sweeps of about one second each, so that the latency median and tail do not
# sit on the edge between two very different request sizes
SWEEP_PASS = (("torus(2,4)", 24), ("cable(4,2)+core", 9), ("torus(3,6)", 7),
              ("splice", 10))
# (target, common level) of one eval-highlevel pass: half fixtures, half Hopf
# Seifert families, in three cost groups of four (cheap, middle, heavy) so that
# the median and the tail latency each fall inside one group; level 420 has
# degree 96
EVAL_PASS = (("torus(3,6)", 60), ("cable(4,2)+core", 60), ((2, 3), 84), ((3, 4), 84),
             ("torus(3,6)", 120), ("cable(4,2)+core", 210), ((4, 4), 120), ((3, 4), 120),
             ("torus(3,6)", 210), ("torus(2,4)", 420), ((4, 4), 210), ((2, 3), 420))
# p*q of the lattice pairs of one torus-lattice pass; each pair is asked as
# (p, q) and as (q, p)
LATTICE_PRODUCTS = (10_000, 15_000, 20_000, 30_000, 40_000, 50_000)
VERIFY_CRITERIA = 9
# about the wall seconds of one pass and its share of the set-up samples on
# the reference machine (2 cores, Python 3.11); a run makes
# round(--seconds / PASS_S) passes, so that both commits of a comparison do
# the same work and the latency percentiles stay comparable
PASS_S = {"sweep": 5.0, "eval-highlevel": 6.5, "verify": 30.0, "torus-lattice": 6.5}

TINY_SWEEP_PASS = (("torus(2,4)", 5), ("cable(4,2)+core", 4), ("torus(3,6)", 4),
                   ("splice", 4))
TINY_EVAL_PASS = (("torus(3,6)", 12), ("cable(4,2)+core", 10), ((2, 3), 12),
                  ((3, 4), 10))
TINY_LATTICE_PRODUCTS = (200, 300)


@dataclass(frozen=True)
class Request:
    label: str
    args: Tuple[str, ...]
    check: oracles.Check = field(compare=False, repr=False)
    inputs: dict = field(compare=False)


def _spell(rng: random.Random, name: str) -> List[str]:
    """A fixture as bare name, `fixture NAME`, or inline JSON."""
    word = rng.choice(SPELLINGS[name])
    return rng.choice([[word], ["fixture", word], [json.dumps({"fixture": word})]])


def _sweep(rng: random.Random, plan) -> List[Request]:
    out = []
    for name, order in plan:
        if name == "splice":
            doc = json.loads(json.dumps(SPLICE_DOC))
            doc["splice"][0]["fixture"] = rng.choice(SPELLINGS["torus(2,4)"])
            doc["splice"][2]["fixture"] = rng.choice(SPELLINGS["cable(4,2)+core"])
            expr = [json.dumps(doc)]
            check = oracles.sweep_check(order, 3, lambda ks, o=order: oracles.splice_cell(ks, o))
        else:
            expr = _spell(rng, name)
            check = oracles.sweep_check(
                order, ARITY[name],
                lambda ks, o=order, n=name: str(oracles.fixture_value(
                    n, tuple(Angle(Fraction(k, o)) for k in ks))))
        out.append(Request(f"sweep {name} order {order}",
                           ("sweep", *expr, "--order", str(order)), check,
                           {"expr": expr, "order": order}))
    return out


def _character(rng: random.Random, level: int, arity: int) -> Tuple[Angle, ...]:
    """Angles k/level with every k a unit mod level, so the common level is exact."""
    units = [k for k in range(1, level) if math.gcd(k, level) == 1]
    return tuple(Angle(Fraction(rng.choice(units), level)) for _ in range(arity))


def _fmt(omega) -> str:
    return ",".join(str(a) for a in omega)


def _eval(rng: random.Random, plan, workdir: Path) -> List[Request]:
    out = []
    for target, level in plan:
        if isinstance(target, tuple):
            m, n = target
            path = workdir / f"hopf-family-{m}-{n}.json"
            if not path.exists():
                path.write_text(hopf_seifert_family(m, n).dumps(), encoding="utf-8")
            omega = _character(rng, level, 2)
            expr = [json.dumps({"seifert": path.name})]
            want = oracles.hopf_value(m, n, *omega)
            label = f"eval hopf_family({m},{n}) level {level}"
        else:
            omega = _character(rng, level, ARITY[target])
            expr = _spell(rng, target)
            want = oracles.fixture_value(target, omega)
            label = f"eval {target} level {level}"
        out.append(Request(label, ("eval", *expr, "--at", _fmt(omega)),
                           oracles.value_check(want),
                           {"expr": expr, "at": _fmt(omega), "want": want}))
    return out


def _coprime_near(rng: random.Random, target: int) -> Tuple[int, int]:
    root = math.isqrt(target)
    p = rng.randint(max(2, root * 2 // 3), root * 3 // 2)
    q = max(2, round(target / p))
    step = 0
    while math.gcd(p, q + step) != 1:
        step = -step if step > 0 else 1 - step  # 0, 1, -1, 2, -2, ...
    return p, q + step


def _lattice(rng: random.Random, products) -> List[Request]:
    out = []
    for target in products:
        p, q = _coprime_near(rng, target)
        b = rng.randint(3, 60)
        a = rng.choice([k for k in range(1, b) if math.gcd(k, b) == 1])
        theta = Fraction(a, b)
        want = oracles.lattice_signature(p, q, theta)
        if want != oracles.lattice_signature(q, p, theta):
            raise AssertionError(f"lattice oracle not symmetric at ({p}, {q}, {theta})")
        for x, y in ((p, q), (q, p)):
            out.append(Request(f"torus-sig {x} {y}",
                               ("torus-sig", str(x), str(y), str(theta)),
                               oracles.value_check(want),
                               {"p": x, "q": y, "angle": str(theta), "want": want}))
    return out


def build(workload: str, seed: int, index: int, workdir: Path,
          tiny: bool = False) -> List[Request]:
    """The requests of pass `index` of `workload`; `tiny` shrinks them for tests."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "sweep":
        requests = _sweep(rng, TINY_SWEEP_PASS if tiny else SWEEP_PASS)
    elif workload == "eval-highlevel":
        requests = _eval(rng, TINY_EVAL_PASS if tiny else EVAL_PASS, workdir)
    elif workload == "verify":
        # verify takes no input; the seed only appears in the results
        args = ("verify", "hirzebruch") if tiny else ("verify",)
        criteria = 1 if tiny else VERIFY_CRITERIA
        requests = [Request(" ".join(args), args, oracles.verify_check(criteria), {})]
    elif workload == "torus-lattice":
        requests = _lattice(rng, TINY_LATTICE_PRODUCTS if tiny else LATTICE_PRODUCTS)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(requests)
    return requests
