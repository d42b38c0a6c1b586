import pytest

from manyworlds.datagen import Dataset, DatasetError, gen_correlations
from manyworlds.events import Const
from manyworlds.eventprog import EventProgram, decl, ground, ref
from manyworlds.oracle import oracle_probabilities


def _existence_probs(ds, pairs=()):
    from manyworlds.events import And, Ref
    items = ds.lineage()
    for (a, b) in pairs:
        items.append(decl("Both", (a, b),
                          And((Ref("Obj[%d]" % a), Ref("Obj[%d]" % b)))))
    g = ground(EventProgram(tuple(items)), ("*",),
               variables=set(ds.vartable.index))
    return oracle_probabilities(g, ds.vartable, list(g.decls))


def test_mutex_pairwise_exclusion():
    ds = gen_correlations(8, "mutex", group=2, m=3, seed=5, iterations=1)
    # groups of two points; the first three groups form one mutex set
    res = _existence_probs(ds, pairs=[(0, 2), (0, 4), (2, 4)])
    assert res.probabilities["Both[0,2]"] == 0.0
    assert res.probabilities["Both[0,4]"] == 0.0
    assert res.probabilities["Both[2,4]"] == 0.0


def test_mutex_independence_across_sets():
    ds = gen_correlations(8, "mutex", group=2, m=2, seed=5, iterations=1)
    # sets: groups {0,1}, {2,3} -> points 0/1 vs 4/5 are in different sets
    res = _existence_probs(ds, pairs=[(0, 4)])
    pa = res.probabilities["Obj[0]"]
    pb = res.probabilities["Obj[4]"]
    assert abs(res.probabilities["Both[0,4]"] - pa * pb) < 1e-9


def test_certain_fraction_one_single_world():
    ds = gen_correlations(6, "positive", group=3, certain=1.0, seed=2)
    assert len(ds.vartable) == 0
    assert all(p.event is not None and isinstance(p.event, Const)
               for p in ds.points)


def test_certain_points_exist_everywhere():
    ds = gen_correlations(8, "positive", group=4, certain=0.5, seed=9)
    g = ground(EventProgram(tuple(ds.lineage())), ("*",),
               variables=set(ds.vartable.index))
    from manyworlds.oracle import world_reports
    for rep in world_reports(g, ds.vartable):
        for i in range(4):
            assert rep.values["Obj[%d]" % i] is True


def test_markov_conditional_matches_step_probability():
    ds = gen_correlations(3, "markov", group=1, seed=11, iterations=1)
    res = _existence_probs(ds, pairs=[(0, 1)])
    p01 = res.probabilities["Both[0,1]"]
    p0 = res.probabilities["Obj[0]"]
    xt = dict(ds.vartable.vars)["x1_t"]
    assert abs(p01 / p0 - xt) < 1e-9  # P(next | prev) equals the step variable


def test_group_lineage_shared_object():
    ds = gen_correlations(12, "positive", group=4, seed=3)
    for start in (0, 4, 8):
        events = {id(ds.points[start + j].event) for j in range(4)}
        assert len(events) == 1


def test_determinism_under_seed():
    a = gen_correlations(10, "mutex", group=2, m=3, seed=77)
    b = gen_correlations(10, "mutex", group=2, m=3, seed=77)
    assert a.to_json() == b.to_json()
    c = gen_correlations(10, "mutex", group=2, m=3, seed=78)
    assert a.to_json() != c.to_json()


def test_probability_range_respected():
    ds = gen_correlations(16, "positive", group=4, seed=1, prob_range=(0.5, 0.8))
    for _n, p in ds.vartable.vars:
        assert 0.5 <= p <= 0.8


def test_positive_pool_default():
    ds = gen_correlations(20, "positive", group=4, seed=4)
    assert len(ds.vartable) == 5  # one pool variable per group by default
    ds2 = gen_correlations(20, "positive", group=4, pool=12, seed=4)
    assert len(ds2.vartable) == 12


def test_json_round_trip(tmp_path):
    ds = gen_correlations(10, "markov", group=2, seed=13, certain=0.2)
    path = tmp_path / "ds.json"
    ds.save(path)
    ds2 = Dataset.load(path)
    assert ds2.to_json() == ds.to_json()
    # each point exists in the same worlds
    names = ds.vartable.names()
    for w in range(1 << len(names)):
        nu = {n: bool((w >> j) & 1) for j, n in enumerate(names)}
        assert ds2.exists(nu) == ds.exists(nu)


def test_validation_errors():
    with pytest.raises(DatasetError):
        gen_correlations(0, "positive")
    with pytest.raises(DatasetError):
        gen_correlations(4, "positive", certain=1.5)
    with pytest.raises(DatasetError):
        gen_correlations(4, "positive", prob_range=(0.0, 0.5))
    with pytest.raises(DatasetError):
        gen_correlations(4, "nope")
    with pytest.raises(DatasetError, match="k=3"):
        gen_correlations(2, "positive", k=3, group=1)
    assert gen_correlations(3, "positive", k=3, group=1).params.medoids == (0, 1, 2)


def test_duplicate_point_ids_rejected(line_dataset):
    # a later event naming o1 would resolve to whichever point came last
    doc = line_dataset.to_json()
    doc["points"][2]["id"] = "o1"
    with pytest.raises(DatasetError, match="duplicate point id 'o1'"):
        Dataset.from_json(doc)


@pytest.mark.parametrize("medoids", [[1], [1, 3, 0], [1, 4], [-1, 3], [1, 2.0],
                                     [True, 3]])
def test_medoids_must_be_k_point_indices(line_dataset, medoids):
    doc = line_dataset.to_json()
    assert Dataset.from_json(doc).params.medoids == (1, 3)
    doc["params"]["medoids"] = medoids
    with pytest.raises(DatasetError, match="medoids"):
        Dataset.from_json(doc)


def test_init_field_is_first_existing_or_absent(line_dataset):
    doc = line_dataset.to_json()
    assert "init" not in doc["params"]
    want = Dataset.from_json(doc).to_json()
    doc["params"]["init"] = "first-existing"
    assert Dataset.from_json(doc).to_json() == want
    doc["params"]["init"] = "plain"
    with pytest.raises(DatasetError, match="init"):
        Dataset.from_json(doc)


def test_dataset_event_rewriters_keep_their_errors():
    from manyworlds.datagen import Params, Point, _points_to_refs, parse_event_text
    from manyworlds.events import And, Atom, CondVal, Not, Or, Ref, TRUE, Var, VarTable
    assert parse_event_text("!x1 | o0 & true", {"x1"}, {"o0"}) == \
        Or((Not(Var("x1")), And((Ref("o0"), TRUE))))
    with pytest.raises(DatasetError, match="propositional"):
        parse_event_text("x1 & [ 1 <= 2 ]", {"x1"})
    with pytest.raises(DatasetError, match="indexed"):
        parse_event_text("o0[1]", {"x1"}, {"o0"})
    with pytest.raises(DatasetError, match="unknown name"):
        parse_event_text("x9", {"x1"})
    with pytest.raises(TypeError):
        _points_to_refs(Atom("<=", CondVal(TRUE, 1), CondVal(TRUE, 2)), {})
    ds = Dataset(VarTable.of(("x1", 0.5), ("x2", 0.5)),
                 [Point("o0", (0.0,), Var("x1")),
                  Point("o1", (1.0,), And((Ref("o0"), Not(Var("x2")))))], Params())
    assert [d.expr for d in ds.lineage()] == [
        Var("x1"), And((ref("Obj", 0), Not(Var("x2"))))]
