"""Seeded inputs, jobs and answer checks for the four benchmark workloads.

Each workload runs *decks*: a deck is a fixed list of job slots whose size
mix is the same for every seed.  Slot counts are chosen so that, over whole
decks, the median sits inside the 13th of 25 slots (32nd of 63 for
``enumerate``) and p90 inside the 23rd (57th), never where two job sizes
meet.  The seed picks the concrete input of each slot and the order in
which a deck runs; deck ``d`` draws from its own stream, so a run's inputs
depend only on the seed and the deck index.

The library only ever sees the generated inputs: (g, B) lists, ``.mono``
texts, presentations and argv lists.  Answer checks run outside the timed
span and never call the code under test: they use the benchmark's own
integer arithmetic, or reference files in ``refs/`` captured from the seed
commit by ``make_refs.py``.

A job is ``(kind, payload)``.  ``run(job, tr)`` does the timed work and
records its layer calls through the tracer ``tr``; ``check(job, result)``
returns whether the answer is right.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

# Directory, relative to the checkout root, that holds the exported
# .mono files the ``cli`` workload verifies.  The path is relative so that
# ``verify --json`` output, which echoes it, matches the references.
CLI_TMP = ".bench-tmp"


def _rng(workload: str, seed: int, deck: int | str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{deck}")


class Workload:
    name = ""
    # Wall time of one deck on the seed commit; sets how many decks a
    # traced run makes, so traced runs of a given length do equal work.
    nominal_deck_s = 1.0

    def __init__(self, root: Path, seed: int, smoke: bool = False):
        self.root = root
        self.seed = seed
        self.smoke = smoke

    def setup(self, tr) -> None:
        """Build inputs the decks share; runs inside the timed set-up."""

    def slots(self) -> list:
        raise NotImplementedError

    def make_job(self, slot, rng: random.Random):
        return slot

    def deck(self, d: int) -> list:
        rng = _rng(self.name, self.seed, d)
        jobs = [self.make_job(slot, rng) for slot in self.slots()]
        rng.shuffle(jobs)
        return jobs

    def warmup(self) -> list:
        """A few small jobs run, unchecked and untimed, at the end of set-up."""
        return []

    def run(self, job, tr):
        raise NotImplementedError

    def check(self, job, result) -> bool:
        raise NotImplementedError

    def after_traced(self, job, tr) -> bool:
        """Extra traced-only work for a job; returns whether it was right."""
        return True

    def close(self) -> None:
        pass


# -- enumerate ---------------------------------------------------------------


def expected_rows(g: int, bound: int) -> int:
    """Count vectors (n, s_1..s_w) with n + sum(s) < bound, not all zero."""
    w = g // 2
    return math.comb(bound + w, w + 1) - 1


def load_enumerate_refs() -> dict:
    return json.loads((REFS / "enumerate.json").read_text())


class Enumerate(Workload):
    """(g, B) queries over the feasibility enumerator plus bounds queries.

    Genus 2-3 queries (one separating count, a few hundred rows) use every
    other B, with the parity picked by the seed; genus 4-5 queries (two
    separating counts, up to ~6000 rows) use every B in [14, 32].  Five
    ``min_fiber_bounds`` queries ride along.  63 slots.
    """

    name = "enumerate"
    nominal_deck_s = 2.6

    def setup(self, tr) -> None:
        self.refs = load_enumerate_refs()
        parity = _rng(self.name, self.seed, "parity").randrange(2)
        if self.smoke:
            self._slots = [("rows", (2, 14 + parity)), ("rows", (3, 16)), ("bounds", 2)]
            return
        slots = [("rows", (g, b)) for g in (2, 3) for b in range(14 + parity, 34, 2)]
        slots += [("rows", (g, b)) for g in (4, 5) for b in range(14, 33)]
        slots += [("bounds", g) for g in range(1, 6)]
        self._slots = slots

    def slots(self):
        return self._slots

    def warmup(self):
        return [("rows", (2, 14)), ("rows", (4, 14)), ("bounds", 3)]

    def run(self, job, tr):
        from lefschetz.feasibility import (
            ADMITTED,
            REJECT_CHI_H,
            ConstraintProfile,
            enumerate_feasible,
            min_fiber_bounds,
        )

        kind, arg = job
        if kind == "bounds":
            r = tr.call("feasibility.bounds", min_fiber_bounds, arg)
            return [r.n_lower, r.n_upper, r.m_lower, r.m_upper]
        g, bound = arg
        rows = tr.call(
            "feasibility.enumerate", enumerate_feasible,
            ConstraintProfile(g, bound, hyperelliptic=True),
        )
        tr.count("feasibility.enumerate.calls")
        tr.count("feasibility.enumerate.rows", len(rows))
        # Consume every row with its verdict, as --show-rejected does.
        hist: Counter = Counter()
        pre_chi = []
        admitted = []
        for row in rows:
            verdict = row.verdict
            hist[verdict] += 1
            if verdict == ADMITTED or verdict == REJECT_CHI_H:
                vector = [row.counts.n, *row.counts.s]
                pre_chi.append(vector)
                if verdict == ADMITTED:
                    admitted.append(vector)
        return len(rows), dict(hist), pre_chi, admitted

    def check(self, job, result) -> bool:
        kind, arg = job
        if kind == "bounds":
            return result == self.refs["bounds"][str(arg)]
        g, bound = arg
        n_rows, hist, pre_chi, admitted = result
        ref = self.refs["rows"][f"{g},{bound}"]
        return (
            n_rows == expected_rows(g, bound)
            and hist == ref["hist"]
            and pre_chi == ref["pre_chi"]
            and admitted == ref["admitted"]
        )


# -- monodromy ---------------------------------------------------------------

WALK_MOVES = (20, 180)


def chain_classes(g: int) -> list[tuple[int, ...]]:
    """Homology classes of the standard chain c_1..c_{2g+1} on genus g.

    c_1 = a_1, c_2i = b_i, c_2i+1 = a_{i+1} - a_i, c_{2g+1} = a_g, so
    consecutive classes pair to +-1 and all others to 0.
    """

    def vec(*terms):
        v = [0] * (2 * g)
        for index, coef in terms:
            v[index] += coef
        return tuple(v)

    classes = [vec((0, 1))]
    for i in range(g):
        classes.append(vec((2 * i + 1, 1)))
        if i < g - 1:
            classes.append(vec((2 * i + 2, 1), (2 * i, -1)))
    classes.append(vec((2 * g - 2, 1)))
    return classes


def chain_word(g: int, family: str) -> list[tuple[int, int]]:
    """(t_c1...t_c(2g+1))^(2g+2) for family "a", (t_c1...t_c2g)^(4g+2) for "b"."""
    if family == "a":
        return [(k, 1) for k in range(2 * g + 1)] * (2 * g + 2)
    return [(k, 1) for k in range(2 * g)] * (4 * g + 2)


def random_primitive(g: int, rng: random.Random) -> tuple[int, ...]:
    """A sparse class: each coordinate is -1, 0 or 1, most of them 0."""
    while True:
        v = tuple(rng.choice((-1, 0, 0, 0, 1)) for _ in range(2 * g))
        if any(v) and math.gcd(*v) == 1:
            return v


def pairing(x, y) -> int:
    return sum(x[i] * y[i + 1] - x[i + 1] * y[i] for i in range(0, len(x), 2))


def seeded_walk(classes, word, moves: int, rng: random.Random) -> list[tuple[int, str]]:
    """Positions and directions of a Hurwitz walk of up to ``moves`` moves.

    Moves only act on adjacent letters whose classes pair to 0 or +-1, so a
    moved class changes by at most one other class and entries stay small;
    unbounded moves grow entries exponentially, which would make job sizes
    depend on the seed.  The walk is simulated in the benchmark's own
    arithmetic: right (a, b) -> (b, a - s_b <a, b> b), left (a, b) ->
    (b + s_a <b, a> a, a).
    """
    letters = [(classes[k], sign) for k, sign in word]
    walk: list[tuple[int, str]] = []
    for _ in range(20 * moves):
        if len(walk) == moves:
            break
        i = rng.randrange(1, len(letters))
        (a, sa), (b, sb) = letters[i - 1], letters[i]
        p = pairing(a, b)
        if abs(p) > 1:
            continue
        if rng.random() < 0.5:
            moved = tuple(x - sb * p * y for x, y in zip(a, b))
            letters[i - 1:i + 1] = [(b, sb), (moved, sa)]
            walk.append((i, "right"))
        else:
            moved = tuple(y - sa * p * x for x, y in zip(a, b))
            letters[i - 1:i + 1] = [(moved, sb), (a, sa)]
            walk.append((i, "left"))
    return walk


def render_mono(g: int, prefix: str, classes, word) -> str:
    lines = [f"genus {g}", "boundary 0"]
    for k, c in enumerate(classes, start=1):
        lines.append(f"curve {prefix}{k} kind nonsep hom " + " ".join(map(str, c)))
    for k, sign in word:
        lines.append(f"twist {prefix}{k + 1}" + ("" if sign == 1 else " -"))
    lines.append("target identity")
    return "\n".join(lines) + "\n"


def own_product(g: int, classes, word) -> tuple[tuple[int, ...], ...]:
    """Left-to-right product of transvections by rank-1 updates.

    Right-multiplying by t_a^s (x -> x + s<x, a>a) adds s (M a)(J a)^T.
    """
    n = 2 * g
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k, sign in word:
        a = classes[k]
        ja = [0] * n
        for i in range(g):
            ja[2 * i] = a[2 * i + 1]
            ja[2 * i + 1] = -a[2 * i]
        for row in m:
            coef = sign * sum(x * y for x, y in zip(row, a))
            if coef:
                for j in range(n):
                    row[j] += coef * ja[j]
    return tuple(tuple(row) for row in m)


def own_is_symplectic(m) -> bool:
    """M^T J M == J with J block diagonal [[0, 1], [-1, 0]]."""
    n = len(m)
    jm = []
    for i in range(0, n, 2):
        jm.append(m[i + 1])
        jm.append(tuple(-x for x in m[i]))
    for r in range(n):
        for c in range(n):
            value = sum(m[k][r] * jm[k][c] for k in range(n))
            want = 1 if (r % 2 == 0 and c == r + 1) else -1 if (r % 2 == 1 and c == r - 1) else 0
            if value != want:
                return False
    return True


def identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class Monodromy(Workload):
    """Factorizations as .mono text: chain relators and random words.

    Each job parses the text, verifies it as a homological relator, makes a
    seeded walk of Hurwitz moves, multiplies out the walked word, and
    serializes and re-parses it.  25 slots: 12 chain relators at g = 2..6
    and 13 random words over 8 primitive classes at g = 2..8 plus one short
    g = 10 word.  Walk lengths are drawn per job, so job sizes form a
    continuum around the median and p90 rather than plateaus whose median
    would jump when the machine's speed changes during a run.
    """

    name = "monodromy"
    nominal_deck_s = 1.1

    CHAINS = [(2, "a"), (2, "b"), (3, "a"), (3, "b"), (4, "a"), (4, "b"), (4, "b"),
              (5, "a"), (5, "b"), (6, "a"), (6, "a"), (6, "b")]
    RANDOMS = [(2, 40), (2, 40), (3, 40), (3, 40), (4, 24), (4, 40), (5, 24),
               (5, 40), (6, 24), (6, 40), (7, 40), (8, 40), (10, 20)]

    def slots(self):
        if self.smoke:
            return [("chain", (2, "a")), ("random", (2, 12))]
        return [("chain", c) for c in self.CHAINS] + [("random", r) for r in self.RANDOMS]

    def warmup(self):
        rng = _rng(self.name, self.seed, "warmup")
        return [self.make_job(("chain", (2, "a")), rng), self.make_job(("random", (3, 16)), rng)]

    def make_job(self, slot, rng):
        kind, (g, arg) = slot
        if kind == "chain":
            classes, word, prefix = chain_classes(g), chain_word(g, arg), "c"
        else:
            classes = [random_primitive(g, rng) for _ in range(8)]
            word = [(rng.randrange(8), rng.choice((1, -1))) for _ in range(arg)]
            prefix = "r"
        moves = 10 if self.smoke else rng.randint(*WALK_MOVES)
        walk = seeded_walk(classes, word, moves, rng)
        return kind, (g, classes, word, render_mono(g, prefix, classes, word), walk)

    def run(self, job, tr):
        from lefschetz.mono import parse_mono, serialize_mono
        from lefschetz.twists import (
            factorization_matrix,
            hurwitz_move,
            verify_homological_relator,
        )

        _kind, (_g, _classes, _word, text, walk) = job
        f = tr.call("mono.parse", parse_mono, text)
        report = tr.call("twists.product", verify_homological_relator, f)
        walked = f
        for i, direction in walk:
            walked = tr.call("twists.hurwitz", hurwitz_move, walked, i, direction)
        m = tr.call("twists.product", factorization_matrix, walked)
        text2 = tr.call("mono.serialize", serialize_mono, walked)
        again = tr.call("mono.parse", parse_mono, text2)
        if tr.enabled:
            tr.count("mono.parse.bytes", len(text.encode()) + len(text2.encode()))
            tr.count("twists.product.letters", len(f.letters) + len(walked.letters))
            tr.count("twists.hurwitz.moves", len(walk))
            tr.peak("twists.product.max_entry_bits",
                    max(abs(x) for row in m for x in row).bit_length())
        return report.matrix_ok, m, f, walked, again

    def check(self, job, result) -> bool:
        kind, (g, classes, word, _text, _walk) = job
        matrix_ok, m, f, walked, again = result
        expected = own_product(g, classes, word)
        one = identity(2 * g)
        if kind == "chain" and expected != one:
            return False

        def kinds(fact):
            return Counter(
                (fact.curve(letter.curve).kind_label(), letter.sign) for letter in fact.letters
            )

        return (
            m == expected
            and matrix_ok == (expected == one)
            and own_is_symplectic(m)
            and len(f.letters) == len(word)
            and kinds(walked) == kinds(f)
            and again == walked
        )


# -- groups ------------------------------------------------------------------


def coxeter_text(names: list[str]) -> list[str]:
    """Coxeter relators of S_n on generators s_1..s_{n-1} (given names)."""
    rels = [f"{x} {x}" for x in names]
    rels += [f"{x} {y} {x} {y} {x} {y}" for x, y in zip(names, names[1:])]
    rels += [f"{names[i]} {names[j]} {names[i]} {names[j]}"
             for i in range(len(names)) for j in range(i + 2, len(names))]
    return rels


def surface_text(a: list[str], b: list[str]) -> str:
    """The chain-form surface relator b_g~ ... b_1~ (a_1 b_1 a_1~) ... (a_g b_g a_g~)."""
    head = " ".join(f"{y}~" for y in reversed(b))
    tail = " ".join(f"{x} {y} {x}~" for x, y in zip(a, b))
    return head + " " + tail


class Groups(Workload):
    """Coset enumeration and Smith form on three kinds of presentation.

    Catalog W1/W2 presentations (trivial group), Coxeter presentations of
    S_4..S_7 parsed from text, and genus-2/3 surface groups stopped at
    coset limits of 2000 to 20000.  The seed renames generators (which
    leaves the work unchanged) and orders each deck.  25 slots: S_6 three
    times around the median; p90 falls in the genus-2 run stopped at 20000
    cosets, with the two S_7 slots above it.
    """

    name = "groups"
    nominal_deck_s = 0.55
    VARIANTS = 4

    SLOTS = ([("catalog", "W1")] * 2 + [("catalog", "W2")] * 2
             + [("coxeter", 5)] * 2 + [("coxeter", 4)]
             + [("surface", (2, 2000)), ("surface", (3, 2000)),
                ("surface", (2, 5000)), ("surface", (3, 5000))]
             + [("coxeter", 6)] * 3
             + [("surface", (g, lim)) for lim in (10000, 12000, 14000) for g in (2, 3)]
             + [("surface", (3, 17000)), ("surface", (3, 20000)), ("surface", (2, 20000))]
             + [("coxeter", 7)] * 2)

    def setup(self, tr) -> None:
        from lefschetz.catalog import pi1_presentation
        from lefschetz.fpgroup import GroupPresentation
        from lefschetz.words import parse_word

        rng = _rng(self.name, self.seed, "names")

        def fresh(count):
            pool = rng.sample(range(10, 100), count)
            return [f"{rng.choice('xyzuvw')}{k}" for k in pool]

        self.presentations: dict = {}
        for name in ("W1", "W2"):
            self.presentations[("catalog", name)] = [
                tr.call("catalog.presentation", pi1_presentation, name)]
        for n in (4, 5, 6, 7):
            variants = []
            for _ in range(self.VARIANTS):
                names = fresh(n - 1)
                rels = tuple(tr.call("words.parse", parse_word, r) for r in coxeter_text(names))
                variants.append(GroupPresentation(tuple(names), rels))
            self.presentations[("coxeter", n)] = variants
        for g in (2, 3):
            variants = []
            for _ in range(self.VARIANTS):
                names = fresh(2 * g)
                rel = tr.call("words.parse", parse_word, surface_text(names[:g], names[g:]))
                variants.append(GroupPresentation(tuple(names), (rel,)))
            self.presentations[("surface", g)] = variants

    def slots(self):
        if self.smoke:
            return [("catalog", "W2"), ("coxeter", 4), ("surface", (2, 500))]
        return self.SLOTS

    def warmup(self):
        rng = _rng(self.name, self.seed, "warmup")
        return [self.make_job(s, rng)
                for s in (("catalog", "W2"), ("coxeter", 5), ("surface", (2, 2000)))]

    def make_job(self, slot, rng):
        kind, arg = slot
        if kind == "surface":
            g, limit = arg
            p = rng.choice(self.presentations[("surface", g)])
            return kind, (p, limit, None, (0,) * (2 * g))
        p = rng.choice(self.presentations[slot])
        if kind == "catalog":
            return kind, (p, 10**6, 1, ())
        return kind, (p, 10**6, math.factorial(arg), (2,))

    def run(self, job, tr):
        from lefschetz.fpgroup import abelianization, todd_coxeter

        _kind, (p, limit, _order, _divisors) = job
        result = tr.call("fpgroup.coset", todd_coxeter, p, max_cosets=limit)
        invariants = tr.call("fpgroup.smith", abelianization, p)
        if tr.enabled:
            tr.count("fpgroup.coset.cosets_defined", result.cosets_defined)
            tr.count("fpgroup.coset.exceeded", 0 if result.closed else 1)
            if result.closed:
                tr.count("fpgroup.coset.closed_order", result.order)
                tr.count("fpgroup.coset.closed_defined", result.cosets_defined)
        return result.order, result.closed, invariants.divisors

    def check(self, job, result) -> bool:
        _kind, (_p, _limit, order, divisors) = job
        got_order, closed, got_divisors = result
        return got_order == order and closed == (order is not None) and got_divisors == divisors


# -- cli ---------------------------------------------------------------------

ENTRIES = ("T", "V2", "V4", "W", "W1", "W2")
INVARIANTS = (
    ("invariants", "--genus", "4", "--n", "18", "--s1", "5",
     "--ledger", "mats*1,block:-6*1,sep*-3"),
    ("invariants", "--genus", "4", "--n", "18", "--s1", "6", "--s2", "0", "--hyperelliptic"),
    ("invariants", "--genus", "3", "--n", "12", "--s1", "6", "--hyperelliptic"),
    ("invariants", "--genus", "2", "--n", "8", "--s1", "1", "--hyperelliptic"),
)
ENUM_G3 = tuple(range(14, 23))
ENUM_G4 = 26


def _enum(g: int, bound: int) -> tuple[str, ...]:
    return ("enumerate", "--genus", str(g), "--max-fibers", str(bound), "--hyperelliptic")


def cli_commands() -> list[tuple[str, ...]]:
    """Every argv the cli workload can issue, without and with --json."""
    base = [("catalog", "list")]
    base += [("catalog", "show", e) for e in ENTRIES]
    base += [("catalog", "export", e) for e in ENTRIES]
    base += [("verify", f"{CLI_TMP}/{e}.mono") for e in ENTRIES]
    base += list(INVARIANTS)
    base += [("pi1", "W1"), ("pi1", "W2")]
    base += [("bounds", "--genus", str(g)) for g in range(1, 6)]
    base += [_enum(3, b) for b in ENUM_G3] + [_enum(4, ENUM_G4)]
    return [argv + extra for argv in base for extra in ((), ("--json",))]


def cli_key(argv) -> str:
    return " ".join(argv)


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    """The README commands, one ``python -m lefschetz`` subprocess per job.

    25 slots: 20 light commands (catalog list/show/export, verify of an
    exported file, invariants, pi1 W1/W2, bounds g != 4, survivors-only
    enumerate at genus 3), then ``bounds --genus 4`` and four
    ``enumerate --genus 4 --max-fibers 26``, so p90 lands among the last.
    The seed picks entries, variants and ``--json``.
    """

    name = "cli"
    nominal_deck_s = 3.9

    def setup(self, tr) -> None:
        self.refs = json.loads((REFS / "cli.json").read_text())
        self.env = cli_env(self.root)
        tmp = self.root / CLI_TMP
        tmp.mkdir(exist_ok=True)
        for e in ENTRIES:
            (tmp / f"{e}.mono").write_text(self.refs[cli_key(("catalog", "export", e))]["stdout"])

    def close(self) -> None:
        tmp = self.root / CLI_TMP
        for e in ENTRIES:
            (tmp / f"{e}.mono").unlink(missing_ok=True)
        if tmp.is_dir() and not any(tmp.iterdir()):
            tmp.rmdir()

    def slots(self):
        if self.smoke:
            return ["catalog-list", "pi1"]
        return (["catalog-list"] * 2 + ["show"] * 3 + ["export"] * 3 + ["verify"] * 3
                + ["invariants"] * 2 + ["pi1"] * 2 + ["bounds"] * 3 + ["enum3"] * 2
                + ["bounds4"] + ["enum4"] * 4)

    def warmup(self):
        return [("catalog", "list"), ("pi1", "W2", "--json")]

    def make_job(self, slot, rng):
        if slot == "catalog-list":
            argv = ("catalog", "list")
        elif slot in ("show", "export"):
            argv = ("catalog", slot, rng.choice(ENTRIES))
        elif slot == "verify":
            argv = ("verify", f"{CLI_TMP}/{rng.choice(ENTRIES)}.mono")
        elif slot == "invariants":
            argv = rng.choice(INVARIANTS)
        elif slot == "pi1":
            argv = ("pi1", rng.choice(("W1", "W2")))
        elif slot == "bounds":
            argv = ("bounds", "--genus", str(rng.choice((1, 2, 3, 5))))
        elif slot == "bounds4":
            argv = ("bounds", "--genus", "4")
        elif slot == "enum3":
            argv = _enum(3, rng.choice(ENUM_G3))
        else:
            argv = _enum(4, ENUM_G4)
        return argv + (("--json",) if rng.random() < 0.5 else ())

    def run(self, job, tr):
        proc = tr.call(
            "cli.process", subprocess.run,
            [sys.executable, "-m", "lefschetz", *job],
            cwd=self.root, env=self.env, capture_output=True, timeout=60,
        )
        return proc.returncode, proc.stdout

    def check(self, job, result) -> bool:
        ref = self.refs[cli_key(job)]
        code, stdout = result
        return code == ref["exit"] and stdout == ref["stdout"].encode()

    def after_traced(self, job, tr) -> bool:
        """Run the same command in-process through ``cli.main``, stdout captured."""
        from lefschetz.cli import main

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = tr.call("cli.main", main, list(job))
        return self.check(job, (code, out.getvalue().encode()))


WORKLOADS = {w.name: w for w in (Enumerate, Monodromy, Groups, Cli)}
