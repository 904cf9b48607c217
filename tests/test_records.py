"""Result records are NamedTuples: immutable, and picklable, since records
such as ``SolutionPair`` cross the ``--jobs`` worker pool.  The classes that
check their fields are plain classes; of these, the hashed ``Alphabet`` and
``Word`` are read-only, and ``EquationInstance``, the task of that pool,
survives pickling with its words."""

import inspect
import pickle
from fractions import Fraction

import pytest

from vclab import equations, finitegroups, hypgeom, oracles, presentations, quasimorphisms, testwords, words
from vclab.words import Alphabet, parse_word

F1, F2 = Alphabet(1), Alphabet(2)
MODULES = (equations, finitegroups, hypgeom, oracles, presentations, quasimorphisms, testwords, words)


def w(text, alph=F2):
    return parse_word(text, alph)


def instance():
    return equations.EquationInstance(w("a"), w("b"), 2, 3)


def dihedral_center():
    d = finitegroups.dihedral4()
    return d, d.power(d.gens["a"], 2)


def central_product():
    d, z = dihedral_center()
    return finitegroups.central_product(d, d, z, z)


def word_equation_report():
    # x^2 = z is solvable in D4 but not in its center <z>
    d, z = dihedral_center()
    return finitegroups.verbally_closed_check(d, [z], [w("a^2", F1)], [z])[0]


def presentation(*relators):
    return presentations.Presentation(2, tuple(map(w, relators)))


def qm():
    return quasimorphisms.counting_qm(w("ab"))


def control_report():
    # the targets a, a, a admit non-canonical solutions
    word = testwords.TestWordSpec(3, (testwords.ExponentTuple.uniform(1),)).build()
    return testwords.verify_testword(word, [w("a", F1)] * 3, 1)


# each record, built by the code that returns it where that is cheap
RECORDS = {
    "SolutionPair": lambda: equations.SolutionPair(w("a"), w("b")),
    "Classification": lambda: equations.classify_solution(instance(), equations.SolutionPair(w("a"), w("b"))),
    "PerfectnessReport": lambda: equations.verify_perfect(instance(), 2),
    "CentralProduct": central_product,
    "WordEquationReport": word_equation_report,
    "DihedralSuiteReport": finitegroups.dihedral_counterexample_suite,
    "DeltaReport": lambda: hypgeom.delta_thin_report(hypgeom.cayley_ball(F2, 2), 20),
    "ConcatenationReport": lambda: hypgeom.check_concatenation_quasigeodesic(
        [[w("A^2"), w("A"), w("1")], [w("1"), w("b"), w("b^2")]], Fraction(0), Fraction(1), Fraction(1)
    ),
    "SNFResult": lambda: presentations.smith_normal_form([[4, 0], [0, 2], [2, 0]]),
    "AbelianizationData": lambda: presentations.abelianization(presentation("a^4", "b^2", "Baba")),
    "CyclicRetractResult": lambda: presentations.cyclic_retract_test(presentation("abAB"), w("ab^2")),
    "RetractionResult": lambda: presentations.RetractionResult((w("a"), w("1")), True),
    "DefectEstimate": lambda: quasimorphisms.defect_estimate(qm(), [(tuple(w("ab").letters()), tuple(w("Ba").letters()))]),
    "HomogenizationResult": lambda: quasimorphisms.homogenize(qm(), w("ab"), 4, Fraction(3)),
    "InvarianceCheck": lambda: quasimorphisms.conjugacy_invariance_check(qm(), w("ab"), w("a"), 64, Fraction(3)),
    "Violation": lambda: control_report().violations[0],
    "TestWordReport": control_report,
    "CertificateResult": lambda: testwords.exponent_sum_certificates(testwords.ExponentTuple.uniform(2), 2),
    "DivergenceReport": lambda: hypgeom.divergence_experiment(w("ab"), w("aB"), 3, 2),
    # the records that were NamedTuples already
    "ConjugacyWitness": lambda: oracles.is_conjugate(w("ab"), w("ba")),
    "RootData": lambda: oracles.root(w("abab")),
    "CommensurabilityWitness": lambda: oracles.is_commensurable(w("a^2"), w("a^3")),
}


def test_every_namedtuple_of_the_package_is_listed():
    found = {
        name
        for module in MODULES
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__ == module.__name__ and issubclass(obj, tuple)
    }
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_is_immutable_and_survives_pickling(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


@pytest.mark.parametrize("value", [F2, w("a^3bA")], ids=["Alphabet", "Word"])
def test_alphabets_and_words_are_read_only(value):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None


def test_alphabets_words_and_instances_survive_pickling():
    for value in (F1, F2, w("a^3bA"), w(""), instance()):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value and copy is not value
    word = pickle.loads(pickle.dumps(w("a^3bA")))
    assert hash(word) == hash(w("a^3bA")) and word.length == 5 and len(word) == 5
    sent = pickle.loads(pickle.dumps(instance()))
    assert sent.g == instance().g and (sent.a, sent.b, sent.n, sent.m) == (w("a"), w("b"), 2, 3)
