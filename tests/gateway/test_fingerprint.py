"""Statement fingerprinting: normalization, literal sensitivity, stability."""

from repro.gateway import fingerprint_statement


class TestNormalization:
    def test_whitespace_and_comments_do_not_change_the_key(self):
        a = fingerprint_statement("SELECT E_name FROM Employees WHERE E_age > 30")
        b = fingerprint_statement(
            "SELECT   E_name\n  FROM Employees -- trailing comment\n  WHERE E_age > 30"
        )
        c = fingerprint_statement(
            "SELECT /* block */ E_name FROM Employees WHERE E_age > 30"
        )
        assert a == b == c

    def test_identifier_spelling_is_preserved(self):
        # aliases determine result column names, so case-folding identifiers
        # could serve a cached plan with the wrong output header
        a = fingerprint_statement("SELECT E_salary AS Pay FROM Employees")
        b = fingerprint_statement("SELECT E_salary AS pay FROM Employees")
        assert a != b

    def test_the_key_is_a_fixed_size_digest(self):
        key = fingerprint_statement("SELECT E_name FROM Employees")
        assert isinstance(key, str) and len(key) == 64
        assert key == fingerprint_statement("SELECT E_name FROM Employees")


class TestLiterals:
    def test_different_literals_differ(self):
        a = fingerprint_statement("SELECT E_name FROM Employees WHERE E_age > 30")
        b = fingerprint_statement("SELECT E_name FROM Employees WHERE E_age > 65")
        assert a != b

    def test_number_and_string_literals_do_not_collide(self):
        a = fingerprint_statement("SELECT E_name FROM Employees WHERE E_name = '1'")
        b = fingerprint_statement("SELECT E_name FROM Employees WHERE E_name = 1")
        assert a != b

    def test_literal_vector_is_position_sensitive(self):
        a = fingerprint_statement("SELECT 1, 2 FROM Employees")
        b = fingerprint_statement("SELECT 2, 1 FROM Employees")
        assert a != b

    def test_token_boundaries_cannot_be_forged(self):
        # token texts that concatenate identically, or embed the separator
        a = fingerprint_statement("SELECT 'a\x1f', 'b' FROM Employees")
        b = fingerprint_statement("SELECT 'a', '\x1fb' FROM Employees")
        assert a != b
        c = fingerprint_statement("SELECT 'a 1 b' FROM Employees")
        d = fingerprint_statement("SELECT 'a', 'b' FROM Employees")
        assert c != d
        e = fingerprint_statement("SELECT 'x\nSTRING 1 y' FROM Employees")
        f = fingerprint_statement("SELECT 'x', 'y' FROM Employees")
        assert e != f
