"""The four benchmark workloads.

Each workload builds its inputs from a seed during set-up, then hands out
items one at a time; ``check(item)`` runs the library on one item and tests
the result against an independent relation.  A check returns True when the
item passes and False on a mismatch; exceptions are left to the caller, which
counts them as failures too.

``corrupt`` makes the first item checked carry one wrong expected value, so
the self-test can prove that the checks catch a mismatch.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))


def xor_sum(c) -> int:
    acc = 0
    for x in c:
        acc ^= x
    return acc


class Workload:
    name = ""
    items: list  # the seeded inputs, in the order they are checked
    # how the host's current speed is sampled, and that sample's reference time
    calibrate = staticmethod(calibration.sample)
    reference_s = calibration.REFERENCE_S

    def __init__(self, seed: int, corrupt: bool = False):
        self.rng = random.Random(seed)
        self.corrupt = corrupt
        self.sizes: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def stream(self):
        """Items in seeded order, cycling if a run outlasts the input list."""
        return itertools.cycle(self.items)

    def _take_corrupt(self) -> bool:
        hit, self.corrupt = self.corrupt, False
        return hit

    def check(self, item) -> bool:
        raise NotImplementedError

    def describe(self, item) -> str:
        return repr(item)


# ---------- balance-sweep: a slice of criterion 05 ----------


def criterion05_words(max_carets: int = 5, max_len: int = 6) -> list:
    """Every rotation word of length <= max_len that is a directed edge path
    from some tree with <= max_carets carets, in sorted order."""
    from treecolor.thompson import RotationSymbol
    from treecolor.trees import all_trees, rotate

    words = set()

    def dfs(T, w):
        if len(w) == max_len:
            return
        for u in sorted(T.internal):
            for inv in (False, True):
                if u + ("1" if inv else "0") in T.internal:
                    w2 = w + (RotationSymbol(u, inv),)
                    words.add(w2)
                    dfs(rotate(T, u, inv), w2)

    for n in range(1, max_carets + 1):
        for T in all_trees(n):
            dfs(T, ())
    return sorted(words)


class BalanceSweep(Workload):
    """Balance of Sigma(w) against the brute-force compatible-colouring count."""

    name = "balance-sweep"

    def setup(self) -> None:
        from treecolor import trees

        for n in range(6):
            trees.all_trees(n)
        words = criterion05_words()
        self.items = list(words)
        self.rng.shuffle(self.items)
        self.sizes = {"word_set": len(words), "max_carets": 5, "max_len": 6}

    def check(self, w) -> bool:
        from treecolor import paths

        ss = paths.sign_structure(w)
        bal, p = paths.is_balanced(ss)
        found = paths.compatible_colorings(w, ss.support)
        want = 2 ** (p - 1) if bal else 0
        if self._take_corrupt():
            want += 1
        return len(found) == want

    def describe(self, w) -> str:
        from treecolor.thompson import format_word

        return format_word(w)


# ---------- colorgraph-sweep: a slice of criteria 04 and 11 ----------

VECTOR_LENGTHS = (6, 7, 8, 9)
FAMILY = [(m, n) for m in range(1, 5) for n in range(1, 5)]


class ColorGraphSweep(Workload):
    """Connected-or-edgeless, edges iff flexible, and diameter m*n on 1^m 2 1^n."""

    name = "colorgraph-sweep"
    ROUNDS = 5000

    def setup(self) -> None:
        from treecolor import trees

        for n in range(max(VECTOR_LENGTHS)):
            trees.all_trees(n)
        # rounds of one vector per length plus one family member: two seeds
        # differ in which vectors are drawn, not in the mix of sizes
        items = []
        for r in range(self.ROUNDS):
            if r % len(FAMILY) == 0:
                family = FAMILY[:]
                self.rng.shuffle(family)
            m, n = family[r % len(FAMILY)]
            rnd = [((1,) * m + (2,) + (1,) * n, m * n)]
            for L in VECTOR_LENGTHS:
                c = (1,) + tuple(self.rng.choice((1, 2, 3)) for _ in range(L - 1))
                rnd.append((c, None))
            self.rng.shuffle(rnd)
            items.extend(rnd)
        self.items = items
        self.sizes = {
            "rounds": self.ROUNDS,
            "vectors_per_round": len(VECTOR_LENGTHS) + 1,
            "random_lengths": list(VECTOR_LENGTHS),
            "family": "1^m 2 1^n, m,n <= 4",
        }

    def check(self, item) -> bool:
        from treecolor import assoc, coloring

        c, diameter = item
        g = assoc.color_graph(c)
        cls = coloring.classify_vector(c)
        acceptable = xor_sum(c) != 0 and len(set(c)) > 1
        flexible = cls == coloring.FLEXIBLE
        if self._take_corrupt():
            flexible = not flexible
        ok = (
            (cls != coloring.UNACCEPTABLE) == acceptable
            and bool(g.vertices) == acceptable
            and assoc.is_connected_or_edgeless(g)
            and bool(g.edges) == flexible
        )
        if diameter is not None:
            ok = ok and assoc.graph_diameter(g) == diameter
        return ok

    def describe(self, item) -> str:
        return "".join(map(str, item[0]))


# ---------- pair-sweep: primality, factor law, extreme counts ----------

PAIR_CARETS = (5, 6, 7)
SEARCH = "max_coloring_search(9, bound=9)"


class PairSweep(Workload):
    """is_prime against the dual multigraph, and the factor-count law."""

    name = "pair-sweep"
    ROUNDS = 20000

    def setup(self) -> None:
        from treecolor import trees

        for n in range(max(PAIR_CARETS) + 1):
            trees.all_trees(n)
        # rounds of one pair per size, as in colorgraph-sweep
        items = []
        for _ in range(self.ROUNDS):
            rnd = []
            for n in PAIR_CARETS:
                ts = trees.all_trees(n)
                rnd.append((self.rng.choice(ts), self.rng.choice(ts)))
            self.rng.shuffle(rnd)
            items.extend(rnd)
        self.items = items
        self.sizes = {
            "rounds": self.ROUNDS,
            "carets": list(PAIR_CARETS),
            "searches_per_run": 1,
        }

    def stream(self):
        # one exhaustive search per run, then the pairs
        return itertools.chain([SEARCH], itertools.cycle(self.items))

    def check(self, item) -> bool:
        from treecolor import coloring, enumeration, maps, thompson

        if item == SEARCH:
            rep = enumeration.max_coloring_search(9, bound=9)
            want = [enumeration.conjectured_m(i, 9) for i in (1, 2, 3, 4)]
            if self._take_corrupt():
                want[0] += 1
            return [count for count, _ in rep.entries] == want

        p = thompson.TreePair(*item)
        oracle = not maps.has_parallel_edges(maps.pair_to_dual(p))
        if self._take_corrupt():
            oracle = not oracle
        if maps.is_prime(p) != oracle:
            return False
        q = thompson.reduce(p)
        factors = maps.prime_factorization(q)
        product = 1
        for f in factors:
            product *= len(coloring.colorings_of_pair(f))
        law = 2 ** (len(factors) - 1) * product
        return law == len(coloring.colorings_of_pair(q))

    def describe(self, item) -> str:
        if item == SEARCH:
            return item
        return f"({item[0].to_text()}, {item[1].to_text()})"


# ---------- cli-mix: single CLI queries, each in a fresh interpreter ----------

PINNED = os.path.join(HERE, "cli_expected.json")


def load_pinned() -> list:
    with open(PINNED, encoding="utf-8") as f:
        return json.load(f)["commands"]


class CliMix(Workload):
    """Each README command spawned as ``python -m treecolor.cli``; stdout and
    exit code are compared byte for byte with pinned values."""

    name = "cli-mix"
    ROUNDS = 500
    calibrate = staticmethod(calibration.spawn_sample)
    reference_s = calibration.SPAWN_REFERENCE_S

    def setup(self) -> None:
        import treecolor.cli  # noqa: F401  (set-up cost users pay per query)

        pinned = load_pinned()
        items = []
        for _ in range(self.ROUNDS):
            rnd = list(range(len(pinned)))
            self.rng.shuffle(rnd)
            items.extend(rnd)
        self.commands = pinned
        self.items = items
        self.sizes = {"rounds": self.ROUNDS, "commands_per_round": len(pinned)}

    def check(self, i) -> bool:
        cmd = self.commands[i]
        want = cmd["stdout"].encode("utf-8")
        if self._take_corrupt():
            want += b"x"
        proc = subprocess.Popen(
            [sys.executable, "-m", "treecolor.cli", *cmd["argv"]],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode == cmd["exit"] and out == want

    def check_in_process(self, i) -> bool:
        """The same command through ``cli.main(argv)``, stdout captured."""
        import contextlib
        import io

        from treecolor import cli

        cmd = self.commands[i]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd["argv"]))
        return code == cmd["exit"] and out.getvalue() == cmd["stdout"]

    def describe(self, i) -> str:
        return " ".join(self.commands[i]["argv"])


WORKLOADS = {
    w.name: w for w in (BalanceSweep, ColorGraphSweep, PairSweep, CliMix)
}
