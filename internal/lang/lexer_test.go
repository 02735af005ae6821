package lang

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasicScheduler(t *testing.T) {
	src := `IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
    SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }`
	toks, errs := Tokenize(src)
	if len(errs) != 0 {
		t.Fatalf("unexpected lex errors: %v", errs)
	}
	want := []Kind{
		IF, LPAREN, NOT, Q, DOT, IDENT, AND, NOT, SUBFLOWS, DOT, IDENT, RPAREN, LBRACE,
		SUBFLOWS, DOT, IDENT, LPAREN, IDENT, ARROW, IDENT, DOT, IDENT, RPAREN,
		DOT, IDENT, LPAREN, Q, DOT, IDENT, LPAREN, RPAREN, RPAREN, SEMICOLON, RBRACE,
		EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d\n%v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	tests := []struct {
		src  string
		want Kind
	}{
		{"==", EQ}, {"!=", NEQ}, {"<=", LTE}, {">=", GTE}, {"<", LT}, {">", GT},
		{"+", PLUS}, {"-", MINUS}, {"*", STAR}, {"/", SLASH}, {"%", PERCENT},
		{"=>", ARROW}, {"=", ASSIGN}, {"!", NOT}, {"&&", AND}, {"||", OR},
	}
	for _, tc := range tests {
		toks, errs := Tokenize(tc.src)
		if len(errs) != 0 {
			t.Errorf("%q: lex errors %v", tc.src, errs)
			continue
		}
		if toks[0].Kind != tc.want {
			t.Errorf("%q: kind = %s, want %s", tc.src, toks[0].Kind, tc.want)
		}
	}
}

func TestTokenizeRegisters(t *testing.T) {
	toks, errs := Tokenize("R1 R8 R9 R0 RA Rx")
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	want := []Kind{REG, REG, IDENT, IDENT, IDENT, IDENT, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d (%s) = %s, want %s", i, toks[i].Lit, got[i], want[i])
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	src := "IF // line comment with IF ELSE tokens\n/* block\ncomment */ ELSE"
	toks, errs := Tokenize(src)
	if len(errs) != 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	want := []Kind{IF, ELSE, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizeUnterminatedBlockComment(t *testing.T) {
	_, errs := Tokenize("/* never closed")
	if len(errs) == 0 {
		t.Fatal("expected an error for unterminated block comment")
	}
	if !strings.Contains(errs[0].Error(), "unterminated") {
		t.Errorf("error = %v, want mention of unterminated comment", errs[0])
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, _ := Tokenize("IF\n  VAR")
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("IF pos = %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("VAR pos = %v, want 2:3", toks[1].Pos)
	}
}

func TestTokenizeIllegal(t *testing.T) {
	toks, errs := Tokenize("@")
	if len(errs) == 0 {
		t.Fatal("expected lex error for @")
	}
	if toks[0].Kind != ILLEGAL {
		t.Errorf("kind = %s, want ILLEGAL", toks[0].Kind)
	}
}

func TestKeywordsAreCaseSensitive(t *testing.T) {
	toks, _ := Tokenize("if If iF")
	for i := 0; i < 3; i++ {
		if toks[i].Kind != IDENT {
			t.Errorf("token %d = %s, want IDENT (keywords are upper-case)", i, toks[i].Kind)
		}
	}
}
