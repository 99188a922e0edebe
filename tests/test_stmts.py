import pytest

from latticeflow.stmts import (
    AccessStmt,
    AssignBinOp,
    AssignConst,
    DefStmt,
    UseStmt,
    parse_stmt_payload,
    render_stmts,
)


def test_parse_each_kind():
    assert parse_stmt_payload(["nop"]) == ()
    assert parse_stmt_payload(["def", "x", "d1"]) == (DefStmt("x", "d1"),)
    assert parse_stmt_payload(["use", "y"]) == (UseStmt("y"),)
    assert parse_stmt_payload(["assign", "x", "=", "-7"]) == (AssignConst("x", -7),)
    assert parse_stmt_payload(["assign", "x", "=", "y", "*", "z"]) == (
        AssignBinOp("x", "y", "*", "z"),)
    assert parse_stmt_payload(["access", "3"]) == (AccessStmt(3),)


@pytest.mark.parametrize("tokens", [
    [],
    ["nop", "extra"],
    ["def", "x"],
    ["assign", "x", "3"],
    ["assign", "x", "=", "y", "/", "z"],
    ["access", "b0"],
    ["access", "-1"],
    ["jump", "x"],
])
def test_parse_rejects_malformed(tokens):
    with pytest.raises(ValueError):
        parse_stmt_payload(tokens)


@pytest.mark.parametrize("tokens,message", [
    (["use"], "expected: use <var>"),
    (["assign", "x", "=", "1.5"], "not an integer constant: '1.5'"),
    (["access"], "expected: access <blockid>"),
], ids=["use-no-var", "assign-not-int", "access-no-block"])
def test_parse_error_says_what_is_wrong(tokens, message):
    with pytest.raises(ValueError) as exc:
        parse_stmt_payload(tokens)
    assert str(exc.value) == message


@pytest.mark.parametrize("payload", [
    "nop", "def x d1", "use y", "assign x = -7",
    "assign x = y * z", "access 3",
])
def test_render_round_trip(payload):
    stmts = parse_stmt_payload(payload.split())
    assert render_stmts(stmts) == payload


def test_render_rejects_multi_statement():
    stmts = (DefStmt("x", "d1"), UseStmt("x"))
    with pytest.raises(ValueError):
        render_stmts(stmts)
