"""Tests for the declared model boundary (`repro.models.calls`).

Every charged model method is declared once, as a ``CallSpec`` in its
model's ``CALLS`` table; the one generic gateway proxy and
``ModelSuite.call_many`` build every call from it.  These tests pin:

* conformance — each spec names a real method and its ``purpose`` default
  is the method's own;
* the request keys — a golden table of one key per declared method, so
  persisted gateway stores written before the declarations still hit;
* the generic routing — serial and vector calls share keys, and a new
  declared method routes without touching the proxy.
"""

import inspect

import pytest

from repro import build_movie_corpus
from repro.gateway.gateway import GatewayConfig, ModelGateway
from repro.gateway.proxy import GatewayModelProxy
from repro.models.base import MODEL_KINDS, ModelSuite
from repro.models.calls import CallSpec, declare, spec_of
from repro.models.cost import CostMeter

IMAGE = build_movie_corpus(size=1, seed=7).movies[0].poster
QUERY = "Which films have a boring poster?"

#: One serial call per declared method (more where a normalizer collapses
#: an omitted or empty argument), and the request key the gateway stored it
#: under before the declarations existed, when each method had a
#: hand-written proxy.  A persisted cache entry is found by this key.
GOLDEN_KEYS = [
    ("llm", "detect_ambiguity", (QUERY,), {},
     (5904740182994693080, 3247821946142354696)),
    ("llm", "detect_ambiguity", (QUERY,), {"resolved_terms": []},
     (5904740182994693080, 3247821946142354696)),
    ("llm", "detect_ambiguity", (QUERY,), {"resolved_terms": ["boring"]},
     (5904740182994693080, 9708468695676899991)),
    ("llm", "generate_keywords", ("exciting films",),
     {"context": "movies", "count": 5},
     (17264328873760747904, 958059217822376353)),
    ("llm", "alternative_interpretations", ("exciting",), {},
     (2815861280942816261, 14841631029241202813)),
    ("llm", "interpret_query", (QUERY,), {},
     (6497041251809772320, 17116066315426078643)),
    ("llm", "interpret_query", (QUERY,),
     {"clarifications": {"boring": "plain colours"},
      "corrections": ["prefer recent films"]},
     (6497041251809772320, 1103573909839403039)),
    ("llm", "classify_dependency_pattern", ("score each film by its plot",), {},
     (15878530951084180918, 13303388045959126530)),
    ("llm", "judge_output", ("score films", [{"a": 1}], [{"b": 2}]), {},
     (8080861592198178850, 9340090495677041909)),
    ("llm", "render_text", ("Hello {name}",), {"name": "kathdb"},
     (15256076249257201961, 1593266461918319665)),
    ("llm", "complete", ("Say hi",), {},
     (13660579595377452601, 11801341230257075184)),
    ("vlm", "extract_scene_graph", (IMAGE,), {},
     (12865281157018388589, 8507873341496972006)),
    ("vlm", "caption", (IMAGE,), {},
     (15085285575336918252, 8507873341496972006)),
    ("vlm", "answer_visual_question", (IMAGE, "Is this poster boring and plain?"), {},
     (12892223605466200351, 3357766081504886671)),
    ("embeddings", "embed_word", ("gun",), {},
     (6466073382756740295, 15865359001929717867)),
    ("embeddings", "embed_text", ("a gun fight",), {},
     (11784467707878228845, 923942025946008927)),
    ("embeddings", "embed_many", (["gun", "fight"],), {},
     (15425031070074283812, 17811181101308172855)),
    ("embeddings", "similarity", ("gun", "fight"), {},
     (159334967921054521, 12532993173716943615)),
    ("embeddings", "max_similarity", (["gun"], ["fight", "war"]), {},
     (10783614026423167087, 13631643622399717971)),
    ("embeddings", "aggregate_similarity", (["gun"], ["fight", "war"]), {},
     (11786816792958457305, 13631643622399717971)),
    ("embeddings", "match_fraction", (["gun", "murder"], ["fight"]), {"threshold": 0.4},
     (1887376129565400478, 13428756736080568237)),
    ("embeddings", "nearest", ("gun", ["fight", "picnic"]), {"top_k": 1},
     (171910473135654133, 1656528992727248544)),
    ("ner", "extract", ("John fights the fire. He wins.",), {},
     (11716494489332192010, 10241747579512035863)),
    ("detector", "detect", (IMAGE,), {},
     (2894983722486959401, 17395858289430783466)),
    ("ocr", "extract_text", (IMAGE,), {},
     (14747891807073416693, 17395858289430783466)),
]

def routed_suite():
    gateway = ModelGateway(GatewayConfig())
    return gateway, ModelSuite.create(seed=7).fork().routed(gateway, "s")


def declared():
    suite = ModelSuite.create(seed=7)
    return [(kind, spec) for kind in MODEL_KINDS
            for spec in type(getattr(suite, kind)).CALLS.values()]


class TestConformance:
    @pytest.mark.parametrize("kind,spec", declared(),
                             ids=lambda v: v if isinstance(v, str) else v.method)
    def test_spec_matches_its_method(self, kind, spec):
        model_cls = type(getattr(ModelSuite.create(seed=7), kind))
        method = getattr(model_cls, spec.method)
        assert callable(method)
        parameters = inspect.signature(method).parameters
        assert parameters["purpose"].default == spec.purpose
        assert set(spec.normalize) <= set(parameters)

    def test_semantic_terms_only_on_term_set_predicates(self):
        assert {spec.method for _, spec in declared()
                if spec.semantic_terms is not None} == {
            "max_similarity", "aggregate_similarity", "match_fraction"}

    def test_golden_table_covers_every_declared_method(self):
        assert {(kind, method) for kind, method, *_ in GOLDEN_KEYS} == \
            {(kind, spec.method) for kind, spec in declared()}

    def test_undeclared_methods_are_refused(self):
        suite = ModelSuite.create(seed=7)
        with pytest.raises(KeyError, match="not a declared model call"):
            spec_of(suite.llm, "clarification_question")
        _, routed = routed_suite()
        with pytest.raises(KeyError, match="not a declared model call"):
            routed.call_many("llm", "clarification_question", [(("x",), {})])

    def test_vectors_need_a_routed_suite(self):
        # call_many has one route, the gateway funnel; a bare suite has no
        # funnel, so it is told how to get one instead of running unmetered.
        suite = ModelSuite.create(seed=7)
        with pytest.raises(TypeError, match="ModelSuite.routed"):
            suite.call_many("embeddings", "embed_text", [(("a calm walk",), {})])
        assert len(suite.cost_meter) == 0


class TestRequestKeys:
    @pytest.mark.parametrize("kind,method,args,kwargs,key", GOLDEN_KEYS,
                             ids=[f"{k}.{m}" for k, m, *_ in GOLDEN_KEYS])
    def test_serial_call_keeps_its_persisted_key(self, kind, method, args,
                                                 kwargs, key):
        gateway, routed = routed_suite()
        getattr(getattr(routed, kind), method)(*args, **kwargs)
        assert list(gateway.cache._entries) == [key]

    @pytest.mark.parametrize("kind,method,args,kwargs,key", GOLDEN_KEYS,
                             ids=[f"{k}.{m}" for k, m, *_ in GOLDEN_KEYS])
    def test_vector_member_shares_the_serial_key(self, kind, method, args,
                                                 kwargs, key):
        gateway, routed = routed_suite()
        routed.call_many(kind, method, [(args, kwargs)] * 2)
        assert list(gateway.cache._entries) == [key]

    def test_positional_and_keyword_forms_build_one_call(self):
        embeddings = ModelSuite.create(seed=7).embeddings
        spec = spec_of(embeddings, "match_fraction")
        positional = spec.build(embeddings, (["gun"], ["war"], 0.5), {})
        keyword = spec.build(embeddings, (), {"candidate_terms": ("war",),
                                              "query_terms": ["gun"]})
        assert positional == keyword == (
            (("gun",), ("war",)), {"threshold": 0.5, "purpose": "match_fraction"})

    def test_bad_arguments_fail_like_a_direct_call(self):
        embeddings = ModelSuite.create(seed=7).embeddings
        spec = spec_of(embeddings, "embed_word")
        with pytest.raises(TypeError):
            spec.build(embeddings, ("gun",), {"bogus": 1})
        with pytest.raises(TypeError):
            spec.build(embeddings, (), {})


class TestGenericProxy:
    def test_undeclared_attributes_delegate(self):
        _, routed = routed_suite()
        assert routed.llm.clarification_question("boring") == \
            routed.llm.wrapped.clarification_question("boring")
        assert routed.embeddings.cost_meter is routed.cost_meter

    def test_a_new_declared_method_routes_without_proxy_code(self):
        class EchoModel:
            name = "stub:echo"
            CALLS = declare(CallSpec("echo", "echo"))

            def __init__(self):
                self.cost_meter = CostMeter()
                self.executions = 0

            def echo(self, text, purpose="echo"):
                self.executions += 1
                self.cost_meter.record(self.name, purpose, 5, 1)
                return text.upper()

        gateway = ModelGateway(GatewayConfig())
        model = EchoModel()
        proxy = GatewayModelProxy(model, gateway.client("s"))
        assert proxy.echo("hi") == proxy.echo(text="hi") == "HI"
        assert model.executions == 1
        assert gateway.client("s").counters.hits == 1
