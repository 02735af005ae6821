package lang

import (
	"strings"
	"testing"
)

func TestParseMinRTTScheduler(t *testing.T) {
	src := `IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
    SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP());
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Stmts) != 1 {
		t.Fatalf("got %d statements, want 1", len(prog.Stmts))
	}
	ifStmt, ok := prog.Stmts[0].(*IfStmt)
	if !ok {
		t.Fatalf("statement is %T, want *IfStmt", prog.Stmts[0])
	}
	push, ok := ifStmt.Then.Stmts[0].(*PushStmt)
	if !ok {
		t.Fatalf("inner statement is %T, want *PushStmt", ifStmt.Then.Stmts[0])
	}
	min, ok := push.Target.(*MemberExpr)
	if !ok || min.Name != "MIN" {
		t.Fatalf("push target = %s, want SUBFLOWS.MIN(...)", FormatExpr(push.Target))
	}
	if _, ok := min.Args[0].(*Lambda); !ok {
		t.Fatalf("MIN argument is %T, want *Lambda", min.Args[0])
	}
	pop, ok := push.Arg.(*MemberExpr)
	if !ok || pop.Name != "POP" || !pop.HasParens {
		t.Fatalf("push arg = %s, want Q.POP()", FormatExpr(push.Arg))
	}
}

func TestParseRoundRobinScheduler(t *testing.T) {
	src := `VAR sbfs = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY);
IF (R1 >= sbfs.COUNT) { SET(R1, 0); }
IF (!Q.EMPTY) {
    VAR sbf = sbfs.GET(R1);
    IF (sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED) {
        sbf.PUSH(Q.POP());
    }
    SET(R1, R1 + 1);
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Stmts) != 3 {
		t.Fatalf("got %d top-level statements, want 3", len(prog.Stmts))
	}
	decl, ok := prog.Stmts[0].(*VarDecl)
	if !ok || decl.Name != "sbfs" {
		t.Fatalf("first statement = %T, want VAR sbfs", prog.Stmts[0])
	}
	set, ok := prog.Stmts[1].(*IfStmt).Then.Stmts[0].(*SetStmt)
	if !ok || set.Reg != 0 {
		t.Fatalf("expected SET(R1, ...) with reg index 0, got %+v", prog.Stmts[1])
	}
}

func TestParseForeach(t *testing.T) {
	src := `VAR skb = Q.POP();
FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fe, ok := prog.Stmts[1].(*ForeachStmt)
	if !ok {
		t.Fatalf("statement is %T, want *ForeachStmt", prog.Stmts[1])
	}
	if fe.Name != "sbf" {
		t.Errorf("loop variable = %q, want sbf", fe.Name)
	}
	if _, ok := fe.Iter.(*EntityExpr); !ok {
		t.Errorf("iter = %s, want SUBFLOWS", FormatExpr(fe.Iter))
	}
}

func TestParsePrecedence(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"VAR x = 1 + 2 * 3;", "(1 + (2 * 3))"},
		{"VAR x = 1 * 2 + 3;", "((1 * 2) + 3)"},
		{"VAR x = 1 + 2 < 3 + 4;", "((1 + 2) < (3 + 4))"},
		{"VAR x = 1 < 2 == TRUE;", "((1 < 2) == TRUE)"},
		{"VAR x = TRUE OR FALSE AND TRUE;", "(TRUE OR (FALSE AND TRUE))"},
		{"VAR x = !TRUE AND FALSE;", "(!TRUE AND FALSE)"},
		{"VAR x = (1 + 2) * 3;", "((1 + 2) * 3)"},
		{"VAR x = 10 % 3 - 1;", "((10 % 3) - 1)"},
		{"VAR x = -1 + 2;", "(-1 + 2)"},
	}
	for _, tc := range tests {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		got := FormatExpr(prog.Stmts[0].(*VarDecl).Init)
		if got != tc.want {
			t.Errorf("%q parsed as %s, want %s", tc.src, got, tc.want)
		}
	}
}

func TestParseDanglingElse(t *testing.T) {
	src := `IF (TRUE) { RETURN; } ELSE IF (FALSE) { RETURN; } ELSE { RETURN; }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	outer := prog.Stmts[0].(*IfStmt)
	inner, ok := outer.Else.(*IfStmt)
	if !ok {
		t.Fatalf("ELSE IF parsed as %T, want *IfStmt", outer.Else)
	}
	if _, ok := inner.Else.(*BlockStmt); !ok {
		t.Fatalf("final ELSE parsed as %T, want *BlockStmt", inner.Else)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"missing semicolon", "VAR x = 1", "expected ;"},
		{"naked expression", "Q.TOP;", "PUSH"},
		{"push with two args", "SUBFLOWS.GET(0).PUSH(Q.TOP, Q.TOP);", "exactly one packet argument"},
		{"set without register", "SET(x, 1);", "expected REG"},
		{"unclosed block", "IF (TRUE) { RETURN;", "expected }"},
		{"garbage", "$$$", "illegal character"},
		{"empty parens expr", "VAR x = ();", "unexpected token"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("VAR x = 1;\nVAR y = @;")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error should carry line 2 position, got %v", err)
	}
}

func TestParseErrorRecoveryFindsMultipleErrors(t *testing.T) {
	_, err := Parse("VAR x = ;\nVAR y = ;\n")
	if err == nil {
		t.Fatal("expected errors")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T, want *ParseError", err)
	}
	if len(pe.Errs) < 2 {
		t.Errorf("got %d errors, want at least 2 (recovery should continue)", len(pe.Errs))
	}
}

func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{
		`IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }`,
		`VAR sbfs = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY);
IF (R1 >= sbfs.COUNT) { SET(R1, 0); }`,
		`VAR skb = Q.POP();
FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); }
DROP(RQ.POP());
RETURN;`,
		`IF (Q.COUNT > 2) { RETURN; } ELSE IF (QU.EMPTY) { RETURN; } ELSE { SET(R3, R3 * 2); }`,
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		formatted := p1.Format()
		p2, err := Parse(formatted)
		if err != nil {
			t.Fatalf("reparse of formatted output failed: %v\n--- formatted:\n%s", err, formatted)
		}
		if got := p2.Format(); got != formatted {
			t.Errorf("format not stable:\nfirst:\n%s\nsecond:\n%s", formatted, got)
		}
	}
}

func TestParseIntegerOverflow(t *testing.T) {
	_, err := Parse("VAR x = 99999999999999999999999999;")
	if err == nil {
		t.Fatal("overflowing literal accepted")
	}
	if !strings.Contains(err.Error(), "invalid integer literal") {
		t.Errorf("error = %v, want invalid integer literal", err)
	}
}
