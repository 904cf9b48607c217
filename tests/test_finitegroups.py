import itertools
import json
import math

import pytest

from vclab import cli
from vclab.words import Alphabet, BudgetExceeded, WordError, parse_word
from vclab.finitegroups import (
    FiniteGroup,
    _value_witnesses,
    central_product,
    default_corpus,
    dihedral4,
    dihedral_counterexample_suite,
    enumerate_table_homs,
    is_retract,
    verbally_closed_check,
)

V1 = Alphabet(1)
V2 = Alphabet(2)


def sym(text, alph=V2):
    return parse_word(text, alph)


def z2():
    return FiniteGroup(((0, 1), (1, 0)), 0)


def cyclic(n):
    """Z_n as a table group with no marked generators."""
    return FiniteGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)), 0)


# -- tables ------------------------------------------------------------------

def test_dihedral_relations():
    g = dihedral4()
    a, b = g.gens["a"], g.gens["b"]
    assert g.order == 8
    assert g.power(a, 4) == g.identity
    assert g.power(b, 2) == g.identity
    assert g.mul(g.mul(g.inverse[b], a), b) == g.power(a, 3)


def test_table_validation_catches_bad_identity():
    with pytest.raises(WordError):
        FiniteGroup(((0, 1), (0, 0)), 0)


def test_element_orders():
    g = dihedral4()
    assert g.element_order(g.gens["a"]) == 4
    assert g.element_order(g.gens["b"]) == 2
    assert g.element_order(g.identity) == 1


def test_center_of_dihedral():
    g = dihedral4()
    a2 = g.power(g.gens["a"], 2)
    assert g.center() == sorted([g.identity, a2])


def loop_power(g, x, k):
    """x^k by repeated multiplication, k reduced modulo the order of x found
    by another loop."""
    order, y = 1, x
    while y != g.identity:
        y = g.mul(y, x)
        order += 1
    out = g.identity
    for _ in range(k % order):
        out = g.mul(out, x)
    return out


def loop_evaluate(g, word, images):
    out = g.identity
    for gen, exp in word.syllables:
        out = g.mul(out, loop_power(g, images[gen], exp))
    return out


def _dihedral_product():
    left, right = dihedral4(), dihedral4()
    za = left.power(left.gens["a"], 2)
    return central_product(left, right, za, za).group


def test_power_table_matches_loops():
    for g in (dihedral4(), _dihedral_product()):
        for x in range(g.order):
            for k in range(-20, 21):
                assert g.power(x, k) == loop_power(g, x, k)


@pytest.mark.parametrize("group", [dihedral4, _dihedral_product], ids=["dihedral4", "central_product"])
def test_tabled_evaluation_matches_power_loop(group):
    g = group()
    words = default_corpus(2, 4) + [V2.identity(), sym("a^-7b^5"), sym("A^3b^-9a^12"), sym("b^-1000001")]
    for word in words:
        for images in itertools.product(range(g.order), repeat=2):
            assert g.evaluate_word(word, images) == loop_evaluate(g, word, images)


# -- central products -----------------------------------------------------------

def test_central_product_order():
    left, right = dihedral4(), dihedral4()
    za = left.power(left.gens["a"], 2)
    cp = central_product(left, right, za, za)
    assert cp.group.order == 32
    assert left.order * right.order // left.element_order(za) == 32


def test_central_product_identifies_centers():
    left, right = dihedral4(), dihedral4()
    za = left.power(left.gens["a"], 2)
    cp = central_product(left, right, za, za)
    assert cp.embed_left[za] == cp.embed_right[za]
    assert cp.embed_left[left.identity] == cp.group.identity


def test_central_product_embeddings_are_homomorphic():
    left, right = dihedral4(), dihedral4()
    za = left.power(left.gens["a"], 2)
    cp = central_product(left, right, za, za)
    for x, y in itertools.product(range(8), repeat=2):
        assert cp.group.mul(cp.embed_left[x], cp.embed_left[y]) == cp.embed_left[left.mul(x, y)]
        assert cp.group.mul(cp.embed_right[x], cp.embed_right[y]) == cp.embed_right[right.mul(x, y)]
        # the two factors commute in the product
        assert cp.group.mul(cp.embed_left[x], cp.embed_right[y]) == cp.group.mul(
            cp.embed_right[y], cp.embed_left[x]
        )


def test_central_product_rejects_non_central():
    left, right = dihedral4(), dihedral4()
    with pytest.raises(WordError):
        central_product(left, right, left.gens["a"], right.power(right.gens["a"], 2))


def test_central_product_rejects_order_mismatch():
    left, right = dihedral4(), z2()
    a2 = left.power(left.gens["a"], 2)
    with pytest.raises(WordError):
        central_product(left, right, left.identity, 1)
    assert central_product(left, right, a2, 1).group.order == 8


# -- homomorphisms ------------------------------------------------------------------

def test_identity_assignment_is_a_hom():
    g = dihedral4()
    homs = enumerate_table_homs(g, range(8), g)
    idmap = tuple(range(8))
    assert any(h == idmap for h in homs)


def test_table_homs_are_multiplicative():
    g = dihedral4()
    for hom in enumerate_table_homs(g, g.center(), g):
        for x, y in itertools.product(range(8), repeat=2):
            assert hom[g.mul(x, y)] == g.mul(hom[x], hom[y])


# the signed-index ("tag list") evaluation that spanning words replaced, kept
# here as a reference: generator i + 1 stands for gens[i], -(i + 1) for its inverse

def _tag_closure(g, gens):
    seen = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                for y in (g.mul(x, gen), g.mul(x, g.inverse[gen])):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return sorted(seen)


def _tag_generating_set(g):
    if g.gens:
        marked = sorted(g.gens.values())
        if len(_tag_closure(g, marked)) == g.order:
            return marked
    gens, covered = [], {g.identity}
    for x in range(g.order):
        if x not in covered:
            gens.append(x)
            covered = set(_tag_closure(g, gens))
            if len(covered) == g.order:
                break
    return gens


def _tag_list_homs(src, dst_elements, inside):
    gens = _tag_generating_set(src)
    tags = {src.identity: []}
    frontier = [src.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for i, gen in enumerate(gens):
                for tag, y in ((i + 1, src.mul(x, gen)), (-(i + 1), src.mul(x, src.inverse[gen]))):
                    if y not in tags:
                        tags[y] = tags[x] + [tag]
                        nxt.append(y)
        frontier = nxt
    homs = []
    for images in itertools.product(sorted(set(dst_elements)), repeat=len(gens)):
        mapping = []
        for x in range(src.order):
            val = inside.identity
            for tag in tags[x]:
                img = images[abs(tag) - 1]
                val = inside.mul(val, img if tag > 0 else inside.inverse[img])
            mapping.append(val)
        if all(
            mapping[src.mul(x, y)] == inside.mul(mapping[x], mapping[y])
            for x in range(src.order)
            for y in range(src.order)
        ):
            homs.append(tuple(mapping))
    return homs


def _left_factor_of_direct_product():
    left = dihedral4()
    dp = central_product(left, z2(), left.identity, 0)
    return dp.group, [dp.embed_left[x] for x in range(left.order)]


def _hom_cases():
    g = dihedral4()
    dp, factor = _left_factor_of_direct_product()
    return [
        (g, _tag_closure(g, [g.power(g.gens["a"], 2)]), 4),
        (g, list(range(8)), 36),
        (dp, _tag_closure(dp, factor), 136),
    ]


@pytest.mark.parametrize("case", range(3), ids=["dihedral4 into its center", "dihedral4 into itself",
                                                "central product onto its left factor"])
def test_table_homs_match_tag_list_evaluation(case):
    src, target, count = _hom_cases()[case]
    homs = enumerate_table_homs(src, target, src)
    assert homs == _tag_list_homs(src, target, src)
    assert len(homs) == count


def test_is_retract_matches_tag_list_evaluation():
    g = dihedral4()
    dp, factor = _left_factor_of_direct_product()
    for group, gens in ((g, [g.power(g.gens["a"], 2)]), (g, list(range(8))), (dp, factor)):
        subgroup = _tag_closure(group, gens)
        first = next((h for h in _tag_list_homs(group, subgroup, group) if all(h[x] == x for x in subgroup)), None)
        assert is_retract(group, gens) == first


# closed forms on cyclic groups, which have no marked generators: there are
# gcd(n, m) homomorphisms Z_n -> Z_m, and the subgroup of order k is a
# retract of Z_n exactly when gcd(k, n / k) = 1

@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_hom_count_is_the_gcd(n):
    src = cyclic(n)
    for m in range(1, 13):
        dst = cyclic(m)
        homs = enumerate_table_homs(src, range(m), dst)
        assert len(homs) == len(set(homs)) == math.gcd(n, m)
        for hom in homs:
            for x, y in itertools.product(range(n), repeat=2):
                assert hom[src.mul(x, y)] == dst.mul(hom[x], hom[y])


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_retract_exactly_when_orders_are_coprime(n):
    g = cyclic(n)
    for d in range(n):
        k = g.element_order(d)
        hom = is_retract(g, [d])
        assert (hom is not None) == (math.gcd(k, n // k) == 1)
        if hom is not None:
            assert all(hom[h] == h for h in g.closure([d]))
            assert set(hom) == set(g.closure([d]))


# -- retracts ---------------------------------------------------------------------------

def test_center_is_not_a_retract_of_dihedral():
    g = dihedral4()
    a2 = g.power(g.gens["a"], 2)
    assert is_retract(g, [a2]) is None


def test_factor_is_retract_of_direct_product():
    left = dihedral4()
    dp = central_product(left, z2(), left.identity, 0)
    sub = [dp.embed_left[x] for x in range(left.order)]
    hom = is_retract(dp.group, sub)
    assert hom is not None
    for h in dp.group.closure(sub):
        assert hom[h] == h


def test_group_is_retract_of_itself():
    g = dihedral4()
    hom = is_retract(g, list(range(8)))
    assert hom is not None and hom == tuple(range(8))


# -- verbal closedness --------------------------------------------------------------------

def test_square_equation_in_central_product():
    left, right = dihedral4(), dihedral4()
    za = left.power(left.gens["a"], 2)
    cp = central_product(left, right, za, za)
    sub_gens = [cp.embed_left[left.gens["a"]], cp.embed_left[left.gens["b"]]]
    target = cp.embed_left[za]
    reports = verbally_closed_check(cp.group, sub_gens, [sym("a^2", V1)], [target])
    assert len(reports) == 1
    assert reports[0].solvable_in_group and reports[0].solvable_in_subgroup
    # the group witness x = c also squares onto the glued center
    c_in_product = cp.embed_right[right.gens["a"]]
    assert cp.group.power(c_in_product, 2) == target


def test_negative_control_center_in_dihedral():
    g = dihedral4()
    a2 = g.power(g.gens["a"], 2)
    reports = verbally_closed_check(g, [a2], [sym("a^2", V1)], [a2])
    assert len(reports) == 1
    assert reports[0].solvable_in_group
    assert not reports[0].solvable_in_subgroup
    assert reports[0].disagreement


def test_identity_word_never_disagrees():
    g = dihedral4()
    a2 = g.power(g.gens["a"], 2)
    reports = verbally_closed_check(g, [a2], [sym("a", V1)], [g.identity, a2])
    assert all(not r.disagreement for r in reports)


def test_verbal_check_refuses_searches_over_budget():
    # 8^8 assignments of eight variables in a group of order 8 exceed 10^7
    g = dihedral4()
    with pytest.raises(BudgetExceeded, match=r"\|G\|\^8 exceeds budget 10000000"):
        verbally_closed_check(g, [g.identity], [sym("abcdefgh", Alphabet(8))], [g.identity])


def test_witnesses_resubstitute():
    g = dihedral4()
    word = sym("abA")
    reports = verbally_closed_check(g, list(range(8)), [word], list(range(8)))
    for r in reports:
        if r.solvable_in_group:
            assert g.evaluate_word(word, r.group_witness) == r.rhs
        if r.solvable_in_subgroup:
            assert g.evaluate_word(word, r.subgroup_witness) == r.rhs


def product_order_witnesses(g, word, domain):
    """value -> first witness over itertools.product order, one
    evaluate_word call per assignment."""
    out = {}
    for images in itertools.product(domain, repeat=word.alphabet.rank):
        out.setdefault(g.evaluate_word(word, images), images)
    return out


def test_block_witnesses_match_one_evaluation_per_assignment():
    left = dihedral4()
    za = left.power(left.gens["a"], 2)
    product = central_product(left, dihedral4(), za, za)
    g = product.group
    sub = g.closure([product.embed_left[left.gens["a"]], product.embed_left[left.gens["b"]]])
    words = default_corpus(2, 4) + default_corpus(3, 3) + default_corpus(1, 3) + [
        V2.identity(), sym("a^-7b^5"), sym("A^3b^-9a^12"), sym("b^-1000001"), sym("a^3"),
    ]
    for word in words:
        for domain in (range(g.order), sub, [sub[-1], sub[0]]):
            assert _value_witnesses(g, word, domain) == product_order_witnesses(g, word, domain)


def test_default_corpus_shape():
    corpus = default_corpus(2, 4)
    assert all(1 <= len(w) <= 4 for w in corpus)
    assert len(corpus) == 80  # 160 nonidentity words, halved by variable swap
    assert len(set(corpus)) == len(corpus)


def test_parity_principle_on_corpus():
    # words with odd exponent sum in some variable never disagree for the
    # left factor of the central product
    left, right = dihedral4(), dihedral4()
    za = left.power(left.gens["a"], 2)
    cp = central_product(left, right, za, za)
    sub_gens = [cp.embed_left[left.gens["a"]], cp.embed_left[left.gens["b"]]]
    targets = [cp.embed_left[x] for x in range(8)]
    odd_corpus = [
        w for w in default_corpus(2, 3)
        if any(s % 2 for s in w.exponent_sums())
    ]
    reports = verbally_closed_check(cp.group, sub_gens, odd_corpus, targets)
    assert all(not r.disagreement for r in reports)


# -- the suite ----------------------------------------------------------------------------------

def test_dihedral_suite_report(capsys):
    report = dihedral_counterexample_suite()
    assert report.ok
    assert report.orders == {"left": 8, "right": 8, "product": 32}
    assert report.verbal_disagreements == 0
    assert report.center_is_a_squared
    assert report.homs_into_center == 4
    assert not report.retract_of_center_found
    assert report.control_disagreements == 1
    cli.main(["dihedral-counterexample"])
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and data["groups"]["orders"]["product"] == 32
