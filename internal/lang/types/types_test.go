package types

import (
	"strings"
	"testing"

	"progmp/internal/lang"
	"progmp/internal/runtime"
)

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return Check(prog)
}

func mustCheckOK(t *testing.T, src string) *Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatalf("Check(%q): %v", src, err)
	}
	return info
}

func TestCheckAcceptsPaperSchedulers(t *testing.T) {
	srcs := map[string]string{
		"minRTT": `IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
			SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP());
		}`,
		"roundRobin": `VAR sbfs = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY);
			IF (R1 >= sbfs.COUNT) { SET(R1, 0); }
			IF (!Q.EMPTY) {
				VAR sbf = sbfs.GET(R1);
				IF (sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED) {
					sbf.PUSH(Q.POP());
				}
				SET(R1, R1 + 1);
			}`,
		"redundant": `VAR skb = Q.POP();
			FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); }`,
		"opportunisticRedundant": `VAR sbfCandidates = SUBFLOWS.FILTER(sbf => sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
			FOREACH (VAR sbf IN sbfCandidates) {
				VAR skb = QU.FILTER(s => !s.SENT_ON(sbf)).TOP;
				IF (skb != NULL) {
					sbf.PUSH(skb);
				} ELSE {
					sbf.PUSH(Q.POP());
				}
			}`,
		"windowCheck": `VAR minRttSbf = SUBFLOWS.MIN(sbf => sbf.RTT);
			IF (!minRttSbf.HAS_WINDOW_FOR(Q.TOP)) {
				VAR alt = SUBFLOWS.FILTER(sbf => sbf.RTT > minRttSbf.RTT).MIN(sbf => sbf.RTT);
				alt.PUSH(QU.TOP);
			}`,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			mustCheckOK(t, src)
		})
	}
}

func TestCheckRejects(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"pop in condition", "IF (Q.POP().SIZE > 0) { RETURN; }", "side effects"},
		{"pop in predicate", "VAR s = SUBFLOWS.FILTER(sbf => Q.POP() != NULL);", "side effects"},
		{"pop in set", "SET(R1, Q.POP().SIZE);", "side effects"},
		{"pop chained in var", "VAR x = Q.POP().SIZE;", "side effects"},
		{"pop in foreach iter", "FOREACH (VAR s IN SUBFLOWS.FILTER(x => Q.POP() == NULL)) { RETURN; }", "side effects"},
		{"redeclared var", "VAR x = 1; VAR x = 2;", "redeclared"},
		{"shadowing in block", "VAR x = 1; IF (TRUE) { VAR x = 2; }", "redeclared"},
		{"lambda shadowing", "VAR sbf = SUBFLOWS.GET(0); VAR y = SUBFLOWS.FILTER(sbf => TRUE).COUNT;", "redeclared"},
		{"undeclared ident", "VAR x = y + 1;", "undeclared identifier y"},
		{"if cond not bool", "IF (1 + 2) { RETURN; }", "must be bool"},
		{"arith on bool", "VAR x = TRUE + 1;", "arithmetic requires int"},
		{"and on int", "VAR x = 1 AND TRUE;", "requires bool operands"},
		{"not on int", "VAR x = !3;", "requires bool"},
		{"compare packet with int", "VAR x = Q.TOP == 3;", "mismatched types"},
		{"null vs int", "VAR x = 3 == NULL;", "only packets and subflows"},
		{"null vs null", "VAR x = NULL == NULL;", "cannot compare NULL with NULL"},
		{"bare null", "VAR x = NULL;", "NULL may only appear"},
		{"foreach over queue", "FOREACH (VAR p IN Q) { RETURN; }", "FOREACH iterates subflow lists"},
		{"push as expression", "VAR x = SUBFLOWS.GET(0).PUSH(Q.TOP);", "statement, not an expression"},
		{"filter body not bool", "VAR s = SUBFLOWS.FILTER(sbf => sbf.RTT);", "predicate must be bool"},
		{"min body not int", "VAR s = SUBFLOWS.MIN(sbf => sbf.LOSSY);", "key must be int"},
		{"filter without lambda", "VAR s = SUBFLOWS.FILTER(1 + 2);", "must be a lambda"},
		{"unknown sbf property", "VAR x = SUBFLOWS.GET(0).BANDWIDTH;", "no property BANDWIDTH"},
		{"unknown pkt property", "VAR x = Q.TOP.PRIORITY;", "no property PRIORITY"},
		{"unknown queue member", "VAR x = Q.GET(0);", "no member GET"},
		{"get on queue", "VAR x = Q.GET(1);", "no member GET"},
		{"top with parens", "VAR x = Q.TOP();", "property, not a call"},
		{"empty with parens", "IF (Q.EMPTY()) { RETURN; }", "property, not a call"},
		{"pop without parens as var", "VAR x = Q.POP;", "POP takes no arguments"},
		{"has_window_for wrong arg", "VAR x = SUBFLOWS.GET(0).HAS_WINDOW_FOR(3);", "must be a packet"},
		{"sent_on wrong arg", "VAR x = Q.TOP.SENT_ON(5);", "must be a subflow"},
		{"get index not int", "VAR x = SUBFLOWS.GET(TRUE);", "index must be int"},
		{"set not int", "SET(R1, TRUE);", "must be int"},
		{"push target not subflow", "Q.TOP.PUSH(Q.TOP);", "PUSH target must be a subflow"},
		{"drop non packet", "DROP(5);", "must be a packet"},
		{"lists not comparable", "VAR x = SUBFLOWS == SUBFLOWS;", "not comparable"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := check(t, tc.src)
			if err == nil {
				t.Fatalf("Check(%q) succeeded, want error containing %q", tc.src, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestCheckInferredTypes(t *testing.T) {
	src := `VAR n = 1 + 2;
VAR flag = Q.EMPTY;
VAR skb = Q.TOP;
VAR sbf = SUBFLOWS.MIN(s => s.RTT);
VAR lst = SUBFLOWS.FILTER(s => !s.LOSSY);`
	info := mustCheckOK(t, src)
	wantTypes := map[string]Type{
		"n": Int, "flag": Bool, "skb": Packet, "sbf": Subflow, "lst": SubflowList,
	}
	for node, sym := range info.Defs {
		if _, ok := node.(*lang.VarDecl); !ok {
			continue
		}
		want, ok := wantTypes[sym.Name]
		if !ok {
			continue
		}
		if sym.Type != want {
			t.Errorf("VAR %s has type %s, want %s", sym.Name, sym.Type, want)
		}
	}
}

func TestCheckFilterOnFilteredQueue(t *testing.T) {
	src := `VAR skb = QU.FILTER(p => p.SIZE > 100).FILTER(p2 => p2.SENT_COUNT == 1).TOP;
IF (skb != NULL) { SUBFLOWS.GET(0).PUSH(skb); }`
	mustCheckOK(t, src)
}

func TestCheckSlotAssignment(t *testing.T) {
	info := mustCheckOK(t, `VAR a = 1; VAR b = 2; FOREACH (VAR s IN SUBFLOWS) { VAR c = s.RTT; }`)
	if info.NumSlots != 4 {
		t.Errorf("NumSlots = %d, want 4 (a, b, s, c)", info.NumSlots)
	}
	seen := map[int]string{}
	for _, sym := range info.Defs {
		if prev, dup := seen[sym.Slot]; dup {
			t.Errorf("slot %d assigned to both %s and %s", sym.Slot, prev, sym.Name)
		}
		seen[sym.Slot] = sym.Name
	}
}

func TestCheckScopesAllowSiblingBranches(t *testing.T) {
	// The same name in disjoint sibling scopes is still a redeclaration
	// under the paper's single-assignment form? No — disjoint scopes are
	// fine; only visibility overlap is prohibited.
	src := `IF (TRUE) { VAR x = 1; } ELSE { VAR x = 2; }`
	mustCheckOK(t, src)
}

// TestScanResolution pins the checker's one resolution of queue-typed
// expressions: each scanning member's base queue, FILTER lambdas (named
// by their parameter), outermost last, and the x of a !p.SENT_ON(x)
// filter whose x is an identifier from outside the lambda.
func TestScanResolution(t *testing.T) {
	type want struct {
		member    string // the scanning member's name, unique in src
		queue     runtime.QueueID
		params    string // space-joined lambda parameters in filter order
		notSentOn string // Scan.NotSentOn's name, "" when nil
	}
	cases := []struct {
		name, src string
		want      []want
	}{
		{"bare entity", `SUBFLOWS.GET(0).PUSH(RQ.TOP);`,
			[]want{{"TOP", runtime.QueueReinject, "", ""}}},
		{"filter of filter", `SET(R1, QU.FILTER(a => a.SIZE > 0).FILTER(b => b.SEQ > R2).COUNT);`,
			[]want{{"COUNT", runtime.QueueUnacked, "a b", ""}}},
		{"variable of variable", `VAR x = Q.FILTER(a => a.SIZE > 0);
			VAR y = x.FILTER(b => b.SEQ > 1);
			SET(R1, y.FILTER(c => c.SIZE < 9).BYTES);`,
			[]want{{"BYTES", runtime.QueueSend, "a b c", ""}}},
		{"outer block variable used in inner block", `VAR x = QU.FILTER(a => a.SIZE > 0);
			FOREACH (VAR s IN SUBFLOWS) {
				IF (R1 == 0) { s.PUSH(x.FILTER(b => !b.SENT_ON(s)).MIN(k => k.SEQ)); }
			}`,
			[]want{{"MIN", runtime.QueueUnacked, "a b", "s"}}},
		{"not sent on a loop variable", `FOREACH (VAR s IN SUBFLOWS) { s.PUSH(QU.FILTER(p => !p.SENT_ON(s)).TOP); }`,
			[]want{{"TOP", runtime.QueueUnacked, "p", "s"}}},
		{"SENT_ON not negated, or on no identifier", `SET(R1, QU.FILTER(p => p.SENT_ON(SUBFLOWS.GET(0))).COUNT);
			SET(R2, RQ.FILTER(q => !q.SENT_ON(SUBFLOWS.GET(0))).BYTES);`,
			[]want{{"COUNT", runtime.QueueUnacked, "p", ""}, {"BYTES", runtime.QueueReinject, "q", ""}}},
		{"not sent through variables, behind another filter", `VAR v = SUBFLOWS.GET(0);
			VAR x = Q.FILTER(a => a.SIZE > 0).FILTER(b => !b.SENT_ON(v));
			SET(R1, x.FILTER(c => c.SEQ > 1).COUNT);`,
			[]want{{"COUNT", runtime.QueueSend, "a b c", "v"}}},
		{"one variable feeding TOP and COUNT", `VAR x = Q.FILTER(a => a.SIZE > R1);
			IF (x.COUNT > 1) { SUBFLOWS.GET(0).PUSH(x.TOP); }`,
			[]want{{"COUNT", runtime.QueueSend, "a", ""}, {"TOP", runtime.QueueSend, "a", ""}}},
		{"POP through a variable", `VAR x = RQ.FILTER(a => a.SIZE > 0);
			VAR p = x.POP();
			DROP(p);`,
			[]want{{"POP", runtime.QueueReinject, "a", ""}}},
		{"EMPTY and MAX on a queue, none on a list", `VAR l = SUBFLOWS.FILTER(s => !s.LOSSY);
			IF (!Q.EMPTY AND !l.EMPTY) { l.MAX(s => s.CWND).PUSH(Q.MAX(k => k.SIZE)); }`,
			[]want{{"EMPTY", runtime.QueueSend, "", ""}, {"MAX", runtime.QueueSend, "", ""}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info := mustCheckOK(t, tc.src)
			got := map[string]want{}
			for e, m := range info.Members {
				if m.Scan == nil {
					if m.RecvType == PacketQueue && m.Kind != MemberFilter {
						t.Errorf("%s on a queue has no Scan", e.Name)
					}
					continue
				}
				if m.RecvType != PacketQueue || m.Kind == MemberFilter {
					t.Errorf("%s (receiver %s) has a Scan", e.Name, m.RecvType)
				}
				var params []string
				for _, lam := range m.Scan.Filters {
					params = append(params, lam.Param)
				}
				if _, dup := got[e.Name]; dup {
					t.Fatalf("test source scans through %s twice", e.Name)
				}
				notSentOn := ""
				if m.Scan.NotSentOn != nil {
					notSentOn = m.Scan.NotSentOn.Name
				}
				got[e.Name] = want{e.Name, m.Scan.Queue, strings.Join(params, " "), notSentOn}
			}
			if len(got) != len(tc.want) {
				t.Errorf("got %d scanning members %v, want %d", len(got), got, len(tc.want))
			}
			for _, w := range tc.want {
				if got[w.member] != w {
					t.Errorf("%s: got %+v, want %+v", w.member, got[w.member], w)
				}
			}
		})
	}
}
