"""Tests for dynamic block assembly."""

from repro.http import Headers, Response, Status, URL
from repro.speedkit import BlockSpec, DynamicBlockAssembler


def response(body, served_by="edge"):
    return Response(
        status=Status.OK,
        headers=Headers(),
        body=body,
        url=URL.of("/page"),
        served_by=served_by,
        version=1,
    )


def test_block_spec_defaults_optional():
    spec = BlockSpec(name="cart", url=URL.of("/api/blocks/cart"))
    assert spec.optional


class TestAssembly:
    def test_blocks_replace_placeholders(self):
        assembler = DynamicBlockAssembler()
        skeleton = response("header {{block:cart}} footer")
        assembled = assembler.assemble(
            skeleton, {"cart": response("3 items", served_by="origin")}
        )
        assert assembled.body == "header 3 items footer"
        assert assembled.served_by == "edge+blocks"

    def test_failed_optional_block_renders_empty(self):
        assembler = DynamicBlockAssembler()
        skeleton = response("a {{block:cart}} b")
        assembled = assembler.assemble(skeleton, {"cart": None})
        assert assembled.body == "a  b"

    def test_unknown_placeholders_left_intact(self):
        assembler = DynamicBlockAssembler()
        skeleton = response("x {{block:mystery}} y")
        assembled = assembler.assemble(skeleton, {})
        assert assembled.body == "x {{block:mystery}} y"

    def test_non_string_block_bodies_are_json(self):
        assembler = DynamicBlockAssembler()
        skeleton = response("cart: {{block:cart}}")
        assembled = assembler.assemble(
            skeleton, {"cart": response({"items": [1, 2]})}
        )
        assert assembled.body == 'cart: {"items": [1, 2]}'

    def test_skeleton_is_not_mutated(self):
        assembler = DynamicBlockAssembler()
        skeleton = response("a {{block:b}} c")
        assembler.assemble(skeleton, {"b": response("X")})
        assert skeleton.body == "a {{block:b}} c"

    def test_repeated_placeholder_replaced_everywhere(self):
        assembler = DynamicBlockAssembler()
        skeleton = response("{{block:b}} and {{block:b}}")
        assembled = assembler.assemble(skeleton, {"b": response("X")})
        assert assembled.body == "X and X"
