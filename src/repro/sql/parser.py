"""Recursive-descent parser for the SQL / MTSQL dialect used by ``repro``.

The grammar covers everything the MT-H workload and the paper's examples
need: full SELECT queries (joins, sub-queries, correlated sub-queries,
aggregates, CASE, LIKE, IN, EXISTS, BETWEEN, EXTRACT, SUBSTRING, date and
interval literals), the MTSQL DDL extensions (``GLOBAL`` / ``SPECIFIC`` /
``COMPARABLE`` / ``CONVERTIBLE @to @from``), ``CREATE FUNCTION`` with SQL
bodies, DML, the MTSQL GRANT/REVOKE statements and ``SET SCOPE``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import InvalidStatementError, LexerError, ParseError
from . import ast
from .lexer import Token, TokenType, tokenize
from .types import Interval, IntervalUnit, date_from_string

#: the tokens that spell a name: a word, or a double-quoted identifier
_NAMES = (TokenType.IDENT, TokenType.QUOTED_IDENT)

# Words that terminate a table reference / cannot be used as an implicit alias.
_RESERVED = {
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "ORDER",
    "HAVING",
    "LIMIT",
    "ON",
    "JOIN",
    "INNER",
    "LEFT",
    "RIGHT",
    "FULL",
    "OUTER",
    "CROSS",
    "AND",
    "OR",
    "NOT",
    "AS",
    "UNION",
    "SET",
    "BY",
    "ASC",
    "DESC",
    "IN",
    "IS",
    "BETWEEN",
    "LIKE",
    "EXISTS",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "VALUES",
    "INTO",
    "CONSTRAINT",
    "PRIMARY",
    "FOREIGN",
    "REFERENCES",
    "CHECK",
    "UNIQUE",
    "TO",
    "GRANT",
    "REVOKE",
}


def parse_statement(sql: str) -> ast.Statement:
    """Parse a single SQL/MTSQL statement and return its AST."""
    parser = Parser(sql)
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


def parse_statements(sql: str) -> list[ast.Statement]:
    """Parse a ``;``-separated script into a list of statements."""
    parser = Parser(sql)
    statements: list[ast.Statement] = []
    while not parser.at_end():
        statements.append(parser.parse_statement())
        while parser.accept_punct(";"):
            pass
    return statements


def parse_submitted_statement(sql: str) -> ast.Statement:
    """Parse client-submitted SQL, normalizing failures onto one error type.

    Statement-accepting entry points (the MTBase client, gateway sessions,
    the DB-API cursor) call this instead of :func:`parse_statement` so that
    unparsable SQL always surfaces as an
    :class:`~repro.errors.InvalidStatementError` carrying the offending
    statement fragment — regardless of whether the lexer or the parser
    rejected it.
    """
    try:
        return parse_statement(sql)
    except InvalidStatementError:
        raise
    except (LexerError, ParseError) as exc:
        raise InvalidStatementError.from_sql(sql, exc) from exc


def parse_query(sql: str) -> ast.Select:
    """Parse SQL text that must be a SELECT query."""
    statement = parse_statement(sql)
    if not isinstance(statement, ast.Select):
        raise ParseError(f"expected a SELECT query, got {type(statement).__name__}")
    return statement


def parse_expression(sql: str) -> ast.Expression:
    """Parse a standalone scalar expression (used in tests and scope parsing)."""
    parser = Parser(sql)
    expression = parser.parse_expr()
    parser.expect_end()
    return expression


class Parser:
    """Stateful recursive-descent parser over a token list."""

    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._tokens = tokenize(sql)
        self._index = 0
        # bind-parameter slot assignment: `?` takes the next free index
        # (SQLite's rule), `?NNN` pins one, `:name` shares one slot per name
        self._param_max_index = 0
        self._param_names: dict[str, int] = {}

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def at_end(self) -> bool:
        # Trailing semicolons do not count as content.
        index = self._index
        while self._tokens[index].type is TokenType.PUNCT and self._tokens[index].text == ";":
            index += 1
        return self._tokens[index].type is TokenType.EOF

    def expect_end(self) -> None:
        while self.accept_punct(";"):
            pass
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError(f"unexpected trailing input near {token.text!r}", token.position)

    def accept_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        if token.type is TokenType.IDENT and token.upper in {k.upper() for k in keywords}:
            self._advance()
            return True
        return False

    def expect_keyword(self, keyword: str) -> Token:
        token = self._peek()
        if token.type is TokenType.IDENT and token.upper == keyword.upper():
            return self._advance()
        raise ParseError(f"expected {keyword!r}, got {token.text!r}", token.position)

    def peek_keyword(self, *keywords: str, offset: int = 0) -> bool:
        token = self._peek(offset)
        return token.type is TokenType.IDENT and token.upper in {k.upper() for k in keywords}

    def accept_punct(self, punct: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.text == punct:
            self._advance()
            return True
        return False

    def expect_punct(self, punct: str) -> Token:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.text == punct:
            return self._advance()
        raise ParseError(f"expected {punct!r}, got {token.text!r}", token.position)

    def accept_operator(self, *operators: str) -> Optional[str]:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text in operators:
            self._advance()
            return token.text
        return None

    def expect_operator(self, operator: str) -> Token:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == operator:
            return self._advance()
        raise ParseError(f"expected {operator!r}, got {token.text!r}", token.position)

    def expect_identifier(self) -> str:
        token = self._peek()
        if token.type in _NAMES:
            self._advance()
            return token.text
        raise ParseError(f"expected identifier, got {token.text!r}", token.position)

    def expect_string(self) -> str:
        token = self._peek()
        if token.type is TokenType.STRING:
            self._advance()
            return token.text
        raise ParseError(f"expected string literal, got {token.text!r}", token.position)

    def expect_number(self) -> float:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return _number_value(token.text)
        raise ParseError(f"expected number, got {token.text!r}", token.position)

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        # bind-parameter slots are per statement: a ';'-separated script must
        # not leak slot indexes from one statement into the next
        self._param_max_index = 0
        self._param_names = {}
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise ParseError(f"expected a statement, got {token.text!r}", token.position)
        keyword = token.upper
        if keyword == "SELECT":
            return self.parse_select()
        if keyword == "CREATE":
            return self._parse_create()
        if keyword == "DROP":
            return self._parse_drop()
        if keyword == "INSERT":
            return self._parse_insert()
        if keyword == "UPDATE":
            return self._parse_update()
        if keyword == "DELETE":
            return self._parse_delete()
        if keyword == "GRANT":
            return self._parse_grant_revoke(is_grant=True)
        if keyword == "REVOKE":
            return self._parse_grant_revoke(is_grant=False)
        if keyword == "SET":
            return self._parse_set_scope()
        raise ParseError(f"unsupported statement {token.text!r}", token.position)

    # -- SELECT -------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        items = [self._parse_select_item()]
        while self.accept_punct(","):
            items.append(self._parse_select_item())

        from_items: list[ast.FromItem] = []
        if self.accept_keyword("FROM"):
            from_items.append(self._parse_from_item())
            while self.accept_punct(","):
                from_items.append(self._parse_from_item())

        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()

        group_by: list[ast.Expression] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_punct(","):
                group_by.append(self.parse_expr())

        having = None
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()

        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self.accept_punct(","):
                order_by.append(self._parse_order_item())

        limit = None
        if self.accept_keyword("LIMIT"):
            limit = int(self.expect_number())

        return ast.Select(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self._at_alias():
            alias = self.expect_identifier()
        return ast.SelectItem(expr=expr, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def _parse_from_item(self) -> ast.FromItem:
        item = self._parse_from_primary()
        while True:
            if self.peek_keyword("JOIN") or self.peek_keyword("INNER") or self.peek_keyword("LEFT") or self.peek_keyword("CROSS"):
                join_type = ast.JoinType.INNER
                if self.accept_keyword("LEFT"):
                    self.accept_keyword("OUTER")
                    join_type = ast.JoinType.LEFT
                elif self.accept_keyword("CROSS"):
                    join_type = ast.JoinType.CROSS
                else:
                    self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                right = self._parse_from_primary()
                condition = None
                if join_type is not ast.JoinType.CROSS:
                    self.expect_keyword("ON")
                    condition = self.parse_expr()
                item = ast.Join(left=item, right=right, join_type=join_type, condition=condition)
                continue
            break
        return item

    def _parse_from_primary(self) -> ast.FromItem:
        if self.accept_punct("("):
            if self.peek_keyword("SELECT"):
                query = self.parse_select()
                self.expect_punct(")")
                alias = self._parse_optional_alias()
                if alias is None:
                    raise ParseError("derived table requires an alias", self._peek().position)
                return ast.SubqueryRef(query=query, alias=alias)
            item = self._parse_from_item()
            self.expect_punct(")")
            return item
        name = self.expect_identifier()
        alias = self._parse_optional_alias()
        return ast.TableRef(name=name, alias=alias)

    def _parse_optional_alias(self) -> Optional[str]:
        if self.accept_keyword("AS") or self._at_alias():
            return self.expect_identifier()
        return None

    def _at_alias(self) -> bool:
        """Whether the next token names an alias: a quoted identifier, or an
        unquoted one that is no reserved word."""
        token = self._peek()
        if token.type is TokenType.QUOTED_IDENT:
            return True
        return token.type is TokenType.IDENT and token.upper not in _RESERVED

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        expr = self._parse_and()
        while self.accept_keyword("OR"):
            expr = ast.BinaryOp("OR", expr, self._parse_and())
        return expr

    def _parse_and(self) -> ast.Expression:
        expr = self._parse_not()
        while self.accept_keyword("AND"):
            expr = ast.BinaryOp("AND", expr, self._parse_not())
        return expr

    def _parse_not(self) -> ast.Expression:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        expr = self._parse_additive()
        while True:
            operator = self.accept_operator("=", "<>", "!=", "<", "<=", ">", ">=")
            if operator is not None:
                operator = "<>" if operator == "!=" else operator
                expr = ast.BinaryOp(operator, expr, self._parse_additive())
                continue
            if self.peek_keyword("IS"):
                self.expect_keyword("IS")
                negated = self.accept_keyword("NOT")
                self.expect_keyword("NULL")
                expr = ast.IsNull(expr=expr, negated=negated)
                continue
            negated = False
            if self.peek_keyword("NOT") and self.peek_keyword("BETWEEN", "IN", "LIKE", offset=1):
                self.expect_keyword("NOT")
                negated = True
            if self.accept_keyword("BETWEEN"):
                low = self._parse_additive()
                self.expect_keyword("AND")
                high = self._parse_additive()
                expr = ast.Between(expr=expr, low=low, high=high, negated=negated)
                continue
            if self.accept_keyword("IN"):
                expr = self._parse_in_tail(expr, negated)
                continue
            if self.accept_keyword("LIKE"):
                pattern = self._parse_additive()
                expr = ast.Like(expr=expr, pattern=pattern, negated=negated)
                continue
            if negated:
                raise ParseError("dangling NOT in predicate", self._peek().position)
            return expr

    def _parse_in_tail(self, expr: ast.Expression, negated: bool) -> ast.Expression:
        self.expect_punct("(")
        if self.peek_keyword("SELECT"):
            query = self.parse_select()
            self.expect_punct(")")
            return ast.InSubquery(expr=expr, query=query, negated=negated)
        items = [self.parse_expr()]
        while self.accept_punct(","):
            items.append(self.parse_expr())
        self.expect_punct(")")
        return ast.InList(expr=expr, items=tuple(items), negated=negated)

    def _parse_additive(self) -> ast.Expression:
        expr = self._parse_multiplicative()
        while True:
            operator = self.accept_operator("+", "-", "||")
            if operator is None:
                return expr
            expr = ast.BinaryOp(operator, expr, self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expression:
        expr = self._parse_unary()
        while True:
            operator = self.accept_operator("*", "/", "%")
            if operator is None:
                return expr
            expr = ast.BinaryOp(operator, expr, self._parse_unary())

    def _parse_unary(self) -> ast.Expression:
        operator = self.accept_operator("-", "+")
        if operator == "-":
            operand = self._parse_unary()
            # fold negative numeric literals so that `-1` round-trips as a literal
            if isinstance(operand, ast.Literal) and isinstance(operand.value, (int, float)):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if operator == "+":
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(_number_value(token.text))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.text)
        if token.type is TokenType.PARAM:
            self._advance()
            return ast.Column(name=token.text)
        if token.type is TokenType.PLACEHOLDER:
            self._advance()
            return self._make_parameter(token)
        if token.type is TokenType.PUNCT and token.text == "(":
            self._advance()
            if self.peek_keyword("SELECT"):
                query = self.parse_select()
                self.expect_punct(")")
                return ast.ScalarSubquery(query=query)
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.type is TokenType.OPERATOR and token.text == "*":
            self._advance()
            return ast.Star()
        if token.type is TokenType.IDENT:
            return self._parse_identifier_expression()
        if token.type is TokenType.QUOTED_IDENT:
            return self._parse_name_expression()
        raise ParseError(f"unexpected token {token.text!r} in expression", token.position)

    def _parse_identifier_expression(self) -> ast.Expression:
        token = self._peek()
        keyword = token.upper

        if keyword == "NULL":
            self._advance()
            return ast.Literal(None)
        if keyword in ("TRUE", "FALSE"):
            self._advance()
            return ast.Literal(keyword == "TRUE")
        if keyword == "DATE" and self._peek(1).type is TokenType.STRING:
            self._advance()
            return ast.Literal(date_from_string(self.expect_string()))
        if keyword == "INTERVAL" and self._peek(1).type is TokenType.STRING:
            self._advance()
            amount = int(self.expect_string())
            unit_name = self.expect_identifier_text()
            return ast.Literal(Interval(amount, _interval_unit(unit_name)))
        if keyword == "CASE":
            return self._parse_case()
        if keyword == "EXISTS" and self._is_punct(1, "("):
            self._advance()
            self.expect_punct("(")
            query = self.parse_select()
            self.expect_punct(")")
            return ast.Exists(query=query)
        if keyword == "EXTRACT" and self._is_punct(1, "("):
            self._advance()
            self.expect_punct("(")
            part = self.expect_identifier().upper()
            self.expect_keyword("FROM")
            inner = self.parse_expr()
            self.expect_punct(")")
            return ast.Extract(part=part, expr=inner)
        if keyword == "SUBSTRING" and self._is_punct(1, "("):
            self._advance()
            self.expect_punct("(")
            inner = self.parse_expr()
            if self.accept_keyword("FROM"):
                start = self.parse_expr()
                length = None
                if self.accept_keyword("FOR"):
                    length = self.parse_expr()
            else:
                self.expect_punct(",")
                start = self.parse_expr()
                length = None
                if self.accept_punct(","):
                    length = self.parse_expr()
            self.expect_punct(")")
            return ast.Substring(expr=inner, start=start, length=length)
        return self._parse_name_expression()

    def _parse_name_expression(self) -> ast.Expression:
        """A function call, ``name.*`` or a (qualified) column reference."""
        name = self.expect_identifier()

        # function call
        if self._is_punct(0, "("):
            self.expect_punct("(")
            distinct = self.accept_keyword("DISTINCT")
            args: list[ast.Expression] = []
            if self._peek().type is TokenType.OPERATOR and self._peek().text == "*":
                self._advance()
                args.append(ast.Star())
            elif not self._is_punct(0, ")"):
                args.append(self.parse_expr())
                while self.accept_punct(","):
                    args.append(self.parse_expr())
            self.expect_punct(")")
            return ast.FunctionCall(name=name, args=tuple(args), distinct=distinct)

        # qualified column or alias.*
        if self.accept_punct("."):
            if self._peek().type is TokenType.OPERATOR and self._peek().text == "*":
                self._advance()
                return ast.Star(table=name)
            column = self.expect_identifier()
            return ast.Column(name=column, table=name)
        return ast.Column(name=name)

    def expect_identifier_text(self) -> str:
        """Identifier text upper-cased, with a trailing plural 's' tolerated."""
        text = self.expect_identifier().upper()
        if text.endswith("S") and text[:-1] in ("DAY", "MONTH", "YEAR"):
            return text[:-1]
        return text

    def _parse_case(self) -> ast.Case:
        self.expect_keyword("CASE")
        whens: list[ast.CaseWhen] = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expr()
            self.expect_keyword("THEN")
            result = self.parse_expr()
            whens.append(ast.CaseWhen(condition=condition, result=result))
        else_result = None
        if self.accept_keyword("ELSE"):
            else_result = self.parse_expr()
        self.expect_keyword("END")
        return ast.Case(whens=tuple(whens), else_result=else_result)

    def _make_parameter(self, token: Token) -> ast.Parameter:
        text = token.text
        if text.startswith(":"):
            name = text[1:]
            index = self._param_names.get(name)
            if index is None:
                self._param_max_index += 1
                index = self._param_max_index
                self._param_names[name] = index
            return ast.Parameter(index=index, name=name)
        if len(text) > 1:  # explicit ?NNN
            index = int(text[1:])
            if index < 1:
                raise ParseError(
                    f"parameter index must be positive, got {text!r}", token.position
                )
            self._param_max_index = max(self._param_max_index, index)
            return ast.Parameter(index=index)
        self._param_max_index += 1
        return ast.Parameter(index=self._param_max_index)

    def _is_punct(self, offset: int, punct: str) -> bool:
        token = self._peek(offset)
        return token.type is TokenType.PUNCT and token.text == punct

    # -- CREATE -------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self._parse_create_table()
        if self.accept_keyword("VIEW"):
            return self._parse_create_view()
        if self.accept_keyword("FUNCTION"):
            return self._parse_create_function()
        token = self._peek()
        raise ParseError(f"unsupported CREATE {token.text!r}", token.position)

    def _parse_create_table(self) -> ast.CreateTable:
        name = self.expect_identifier()
        generality = None
        if self.accept_keyword("SPECIFIC"):
            generality = ast.TableGenerality.SPECIFIC
        elif self.accept_keyword("GLOBAL"):
            generality = ast.TableGenerality.GLOBAL
        self.expect_punct("(")
        columns: list[ast.ColumnDef] = []
        constraints: list[ast.TableConstraint] = []
        while True:
            if self.peek_keyword("CONSTRAINT", "PRIMARY", "FOREIGN", "CHECK", "UNIQUE"):
                constraints.append(self._parse_table_constraint())
            else:
                columns.append(self._parse_column_def())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return ast.CreateTable(
            name=name, columns=columns, constraints=constraints, generality=generality
        )

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_identifier()
        type_name = self._parse_type_name()
        not_null = False
        comparability = None
        to_universal = None
        from_universal = None
        default = None
        while True:
            if self.peek_keyword("NOT") and self.peek_keyword("NULL", offset=1):
                self.expect_keyword("NOT")
                self.expect_keyword("NULL")
                not_null = True
                continue
            if self.accept_keyword("SPECIFIC"):
                comparability = ast.Comparability.SPECIFIC
                continue
            if self.accept_keyword("COMPARABLE"):
                comparability = ast.Comparability.COMPARABLE
                continue
            if self.accept_keyword("CONVERTIBLE"):
                comparability = ast.Comparability.CONVERTIBLE
                self.expect_operator("@")
                to_universal = self.expect_identifier()
                self.expect_operator("@")
                from_universal = self.expect_identifier()
                continue
            if self.accept_keyword("DEFAULT"):
                default = self.parse_expr()
                continue
            break
        return ast.ColumnDef(
            name=name,
            type_name=type_name,
            not_null=not_null,
            comparability=comparability,
            to_universal=to_universal,
            from_universal=from_universal,
            default=default,
        )

    def _parse_type_name(self) -> str:
        base = self.expect_identifier()
        if self._is_punct(0, "("):
            self.expect_punct("(")
            parts = [str(int(self.expect_number()))]
            while self.accept_punct(","):
                parts.append(str(int(self.expect_number())))
            self.expect_punct(")")
            return f"{base}({','.join(parts)})"
        return base

    def _parse_table_constraint(self) -> ast.TableConstraint:
        name = None
        if self.accept_keyword("CONSTRAINT"):
            name = self.expect_identifier()
        if self.accept_keyword("PRIMARY"):
            self.expect_keyword("KEY")
            columns = self._parse_column_list()
            return ast.TableConstraint(
                kind=ast.ConstraintKind.PRIMARY_KEY, name=name, columns=columns
            )
        if self.accept_keyword("FOREIGN"):
            self.expect_keyword("KEY")
            columns = self._parse_column_list()
            self.expect_keyword("REFERENCES")
            ref_table = self.expect_identifier()
            ref_columns = self._parse_column_list()
            return ast.TableConstraint(
                kind=ast.ConstraintKind.FOREIGN_KEY,
                name=name,
                columns=columns,
                ref_table=ref_table,
                ref_columns=ref_columns,
            )
        if self.accept_keyword("UNIQUE"):
            columns = self._parse_column_list()
            return ast.TableConstraint(
                kind=ast.ConstraintKind.UNIQUE, name=name, columns=columns
            )
        if self.accept_keyword("CHECK"):
            self.expect_punct("(")
            check = self.parse_expr()
            self.expect_punct(")")
            return ast.TableConstraint(kind=ast.ConstraintKind.CHECK, name=name, check=check)
        token = self._peek()
        raise ParseError(f"unsupported constraint near {token.text!r}", token.position)

    def _parse_column_list(self) -> tuple[str, ...]:
        self.expect_punct("(")
        columns = [self.expect_identifier()]
        while self.accept_punct(","):
            columns.append(self.expect_identifier())
        self.expect_punct(")")
        return tuple(columns)

    def _parse_create_view(self) -> ast.CreateView:
        name = self.expect_identifier()
        self.expect_keyword("AS")
        query = self.parse_select()
        return ast.CreateView(name=name, query=query)

    def _parse_create_function(self) -> ast.CreateFunction:
        name = self.expect_identifier()
        self.expect_punct("(")
        arg_types: list[str] = []
        if not self._is_punct(0, ")"):
            arg_types.append(self._parse_type_name())
            while self.accept_punct(","):
                arg_types.append(self._parse_type_name())
        self.expect_punct(")")
        self.expect_keyword("RETURNS")
        return_type = self._parse_type_name()
        self.expect_keyword("AS")
        body = self.expect_string()
        language = "SQL"
        immutable = False
        if self.accept_keyword("LANGUAGE"):
            language = self.expect_identifier().upper()
        if self.accept_keyword("IMMUTABLE"):
            immutable = True
        return ast.CreateFunction(
            name=name,
            arg_types=tuple(arg_types),
            return_type=return_type,
            body=body,
            language=language,
            immutable=immutable,
        )

    # -- DROP ---------------------------------------------------------------

    def _parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            if_exists = self._accept_if_exists()
            return ast.DropTable(name=self.expect_identifier(), if_exists=if_exists)
        if self.accept_keyword("VIEW"):
            if_exists = self._accept_if_exists()
            return ast.DropView(name=self.expect_identifier(), if_exists=if_exists)
        token = self._peek()
        raise ParseError(f"unsupported DROP {token.text!r}", token.position)

    def _accept_if_exists(self) -> bool:
        if self.peek_keyword("IF") and self.peek_keyword("EXISTS", offset=1):
            self.expect_keyword("IF")
            self.expect_keyword("EXISTS")
            return True
        return False

    # -- DML ----------------------------------------------------------------

    def _parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier()
        columns: tuple[str, ...] = ()
        if self._is_punct(0, "(") and not self.peek_keyword("SELECT", offset=1):
            columns = self._parse_column_list()
        if self.accept_keyword("VALUES"):
            rows: list[tuple[ast.Expression, ...]] = []
            while True:
                self.expect_punct("(")
                values = [self.parse_expr()]
                while self.accept_punct(","):
                    values.append(self.parse_expr())
                self.expect_punct(")")
                rows.append(tuple(values))
                if not self.accept_punct(","):
                    break
            return ast.Insert(table=table, columns=columns, rows=rows)
        if self._is_punct(0, "("):
            self.expect_punct("(")
            query = self.parse_select()
            self.expect_punct(")")
        else:
            query = self.parse_select()
        return ast.Insert(table=table, columns=columns, query=query)

    def _parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier()
        self.expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self.accept_punct(","):
            assignments.append(self._parse_assignment())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Update(table=table, assignments=assignments, where=where)

    def _parse_assignment(self) -> ast.Assignment:
        column = self.expect_identifier()
        self.expect_operator("=")
        return ast.Assignment(column=column, value=self.parse_expr())

    def _parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Delete(table=table, where=where)

    # -- DCL and SET SCOPE --------------------------------------------------

    def _parse_grant_revoke(self, is_grant: bool) -> ast.Statement:
        self.expect_keyword("GRANT" if is_grant else "REVOKE")
        privileges = [self.expect_identifier().upper()]
        while self.accept_punct(","):
            privileges.append(self.expect_identifier().upper())
        self.expect_keyword("ON")
        object_name = self.expect_identifier()
        if not self.accept_keyword("TO"):
            self.expect_keyword("FROM")
        grantee = self._parse_grantee()
        if is_grant:
            return ast.Grant(privileges=tuple(privileges), object_name=object_name, grantee=grantee)
        return ast.Revoke(privileges=tuple(privileges), object_name=object_name, grantee=grantee)

    def _parse_grantee(self):
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return int(float(token.text))
        if token.type in _NAMES or token.type is TokenType.STRING:
            self._advance()
            return token.text
        raise ParseError(f"expected grantee, got {token.text!r}", token.position)

    def _parse_set_scope(self) -> ast.SetScope:
        self.expect_keyword("SET")
        self.expect_keyword("SCOPE")
        self.expect_operator("=")
        token = self._peek()
        if token.type in (TokenType.STRING, TokenType.QUOTED_IDENT):
            self._advance()
            return ast.SetScope(scope_text=token.text)
        raise ParseError("SET SCOPE expects a quoted scope expression", token.position)


def _number_value(text: str):
    if "." in text:
        return float(text)
    return int(text)


def _interval_unit(name: str) -> IntervalUnit:
    normalized = name.upper()
    if normalized.endswith("S"):
        normalized = normalized[:-1]
    try:
        return IntervalUnit(normalized)
    except ValueError as exc:
        raise ParseError(f"unknown interval unit {name!r}") from exc
