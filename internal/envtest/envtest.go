// Package envtest provides builders for scheduler execution environments
// and a generator of random well-typed scheduler programs. It backs the
// unit tests of the individual back-ends and the differential property
// tests that assert interpreter ≡ compiled closures ≡ bytecode VM.
package envtest

import (
	"fmt"
	"math/rand"
	"strings"

	"progmp/internal/runtime"
)

// SbfSpec describes a subflow snapshot for tests.
type SbfSpec struct {
	ID         int
	RTT        int64 // µs
	RTTAvg     int64
	RTTVar     int64
	Cwnd       int64
	InFlight   int64
	Queued     int64
	Throughput int64
	MSS        int64
	LostSkbs   int64
	RTO        int64
	Lossy      bool
	TSQ        bool
	Backup     bool
	RWndFree   int64
	// The shared-state environment extension: link-queue occupancy and
	// the cross-connection per-destination statistics (0 when no store
	// is attached, matching the substrate).
	LinkQueued int64
	XRTT       int64
	XLost      int64
	XDelivered int64
	XQuar      int64
}

// NewSubflow builds a subflow view. Zero-valued fields get sensible
// defaults (MSS 1460, RWndFree 1 MB) so specs stay terse.
func NewSubflow(s SbfSpec) *runtime.SubflowView {
	if s.MSS == 0 {
		s.MSS = 1460
	}
	if s.RWndFree == 0 {
		s.RWndFree = 1 << 20
	}
	if s.RTTAvg == 0 {
		s.RTTAvg = s.RTT
	}
	v := &runtime.SubflowView{
		Handle:        runtime.SubflowHandle(1000 + s.ID),
		RWndFreeBytes: s.RWndFree,
	}
	v.Ints[runtime.SbfID] = int64(s.ID)
	v.Ints[runtime.SbfRTT] = s.RTT
	v.Ints[runtime.SbfRTTAvg] = s.RTTAvg
	v.Ints[runtime.SbfRTTVar] = s.RTTVar
	v.Ints[runtime.SbfCwnd] = s.Cwnd
	v.Ints[runtime.SbfSkbsInFlight] = s.InFlight
	v.Ints[runtime.SbfQueued] = s.Queued
	v.Ints[runtime.SbfThroughput] = s.Throughput
	v.Ints[runtime.SbfMSS] = s.MSS
	v.Ints[runtime.SbfLostSkbs] = s.LostSkbs
	v.Ints[runtime.SbfRTO] = s.RTO
	v.Ints[runtime.SbfLinkQueued] = s.LinkQueued
	v.Ints[runtime.SbfXRTT] = s.XRTT
	v.Ints[runtime.SbfXLost] = s.XLost
	v.Ints[runtime.SbfXDelivered] = s.XDelivered
	v.Ints[runtime.SbfXQuar] = s.XQuar
	v.Bools[runtime.SbfLossy] = s.Lossy
	v.Bools[runtime.SbfTSQThrottled] = s.TSQ
	v.Bools[runtime.SbfIsBackup] = s.Backup
	return v
}

// PktSpec describes a packet snapshot for tests.
type PktSpec struct {
	Seq        int64
	Size       int64
	Prop       int64
	SentCount  int64
	AgeUS      int64
	LastSentUS int64 // µs since last transmission; 0 means "derive"
	SentOn     []int // subflow IDs the packet was transmitted on
}

// NewPacket builds a packet view. Size defaults to 1460.
func NewPacket(s PktSpec) *runtime.PacketView {
	if s.Size == 0 {
		s.Size = 1460
	}
	v := &runtime.PacketView{Handle: runtime.PacketHandle(10000 + s.Seq)}
	v.Ints[runtime.PktSeq] = s.Seq
	v.Ints[runtime.PktSize] = s.Size
	v.Ints[runtime.PktProp] = s.Prop
	v.Ints[runtime.PktSentCount] = s.SentCount
	v.Ints[runtime.PktAgeUS] = s.AgeUS
	if s.LastSentUS != 0 {
		v.Ints[runtime.PktLastSentUS] = s.LastSentUS
	} else if s.SentCount > 0 || len(s.SentOn) > 0 {
		v.Ints[runtime.PktLastSentUS] = s.AgeUS
	} else {
		v.Ints[runtime.PktLastSentUS] = -1
	}
	for _, id := range s.SentOn {
		v.SentOnMask |= 1 << uint(id)
	}
	return v
}

// EnvSpec assembles a full environment.
type EnvSpec struct {
	Subflows  []SbfSpec
	Q, QU, RQ []PktSpec
	Regs      [runtime.NumRegisters]int64
}

// Build constructs the runtime environment described by the spec.
func (s EnvSpec) Build() *runtime.Env {
	sbfs := make([]*runtime.SubflowView, len(s.Subflows))
	for i, spec := range s.Subflows {
		sbfs[i] = NewSubflow(spec)
	}
	mk := func(specs []PktSpec) []*runtime.PacketView {
		pkts := make([]*runtime.PacketView, len(specs))
		for i, p := range specs {
			pkts[i] = NewPacket(p)
		}
		return pkts
	}
	regs := s.Regs
	return runtime.NewEnv(sbfs, mk(s.Q), mk(s.QU), mk(s.RQ), &regs)
}

// TwoSubflowEnv is a canonical two-subflow environment (fast 10 ms WiFi
// path, slow 40 ms LTE backup-capable path) with n packets in Q.
func TwoSubflowEnv(n int) *runtime.Env {
	spec := EnvSpec{
		Subflows: []SbfSpec{
			{ID: 0, RTT: 10000, RTTVar: 500, Cwnd: 10, InFlight: 2, Throughput: 3 << 20},
			{ID: 1, RTT: 40000, RTTVar: 4000, Cwnd: 20, InFlight: 1, Throughput: 8 << 20, Backup: true},
		},
	}
	for i := 0; i < n; i++ {
		spec.Q = append(spec.Q, PktSpec{Seq: int64(i), Size: 1460})
	}
	return spec.Build()
}

// RandomEnv generates a random but well-formed environment: up to 5
// subflows with every property set, up to 8 packets per queue. One
// environment in three is biased toward quiescence: each queue is
// emptied with probability 1/2 and each congestion window filled with
// probability 3/4, the states a quiescence certificate speaks about.
// Deterministic given rng.
func RandomEnv(rng *rand.Rand) *runtime.Env {
	spec := EnvSpec{}
	nSbf := rng.Intn(5)
	for i := 0; i < nSbf; i++ {
		spec.Subflows = append(spec.Subflows, SbfSpec{
			ID:         i,
			RTT:        int64(rng.Intn(100000) + 1),
			RTTAvg:     int64(rng.Intn(100000) + 1),
			RTTVar:     int64(rng.Intn(20000)),
			Cwnd:       int64(rng.Intn(64) + 1),
			InFlight:   int64(rng.Intn(32)),
			Queued:     int64(rng.Intn(8)),
			Throughput: int64(rng.Intn(10 << 20)),
			LostSkbs:   int64(rng.Intn(4)),
			RTO:        int64(rng.Intn(1000000)),
			Lossy:      rng.Intn(4) == 0,
			TSQ:        rng.Intn(4) == 0,
			Backup:     rng.Intn(3) == 0,
			RWndFree:   int64(rng.Intn(1 << 16)),
			LinkQueued: int64(rng.Intn(64 << 10)),
			XRTT:       int64(rng.Intn(100000)),
			XLost:      int64(rng.Intn(16)),
			XDelivered: int64(rng.Intn(10 << 20)),
			XQuar:      int64(rng.Intn(3)),
		})
	}
	seq := int64(0)
	fill := func() []PktSpec {
		var out []PktSpec
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			p := PktSpec{
				Seq:       seq,
				Size:      int64(rng.Intn(1460) + 1),
				Prop:      int64(rng.Intn(4)),
				SentCount: int64(rng.Intn(3)),
				AgeUS:     int64(rng.Intn(100000)),
			}
			for id := 0; id < nSbf; id++ {
				if rng.Intn(2) == 0 {
					p.SentOn = append(p.SentOn, id)
				}
			}
			seq++
			out = append(out, p)
		}
		return out
	}
	spec.Q = fill()
	spec.QU = fill()
	spec.RQ = fill()
	for i := range spec.Regs {
		spec.Regs[i] = int64(rng.Intn(200) - 100)
	}
	var globals [runtime.NumGlobals]int64
	for i := range globals {
		globals[i] = int64(rng.Intn(200) - 100)
	}
	if rng.Intn(3) == 0 {
		for _, q := range []*[]PktSpec{&spec.Q, &spec.QU, &spec.RQ} {
			if rng.Intn(2) == 0 {
				*q = nil
			}
		}
		for i := range spec.Subflows {
			if sf := &spec.Subflows[i]; rng.Intn(4) != 0 {
				sf.InFlight = sf.Cwnd
			}
		}
	}
	env := spec.Build()
	*env.Globals = globals
	return env
}

// ---- Random program generation ----

// progGen emits random well-typed scheduler programs for differential
// testing. Generated programs exercise every member kind, operator,
// statement form and property, while respecting the single-assignment
// and effect-position rules so they always type-check.
type progGen struct {
	rng     *rand.Rand
	b       strings.Builder
	nextVar int
	// scopes of declared variables by type name.
	scope map[string][]string
	depth int
}

// GenProgram returns a random well-typed program (source text).
func GenProgram(rng *rand.Rand) string {
	g := &progGen{rng: rng, scope: map[string][]string{}}
	n := 1 + rng.Intn(5)
	for i := 0; i < n; i++ {
		g.stmt(0)
	}
	return g.b.String()
}

func (g *progGen) fresh() string {
	g.nextVar++
	return fmt.Sprintf("v%d", g.nextVar)
}

func (g *progGen) pick(vals ...string) string { return vals[g.rng.Intn(len(vals))] }

// intExpr produces an int-typed expression. sbfVar and pktVar name a
// lambda parameter in scope typed sbf or pkt ("" when none).
func (g *progGen) intExpr(depth int, sbfVar, pktVar string) string {
	if depth > 2 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(2000)-1000)
		case 1:
			if g.rng.Intn(4) == 0 {
				return fmt.Sprintf("G%d", 1+g.rng.Intn(4))
			}
			return fmt.Sprintf("R%d", 1+g.rng.Intn(4))
		case 2:
			if sbfVar != "" {
				return g.sbfProp(sbfVar)
			}
			return fmt.Sprintf("%d", g.rng.Intn(100))
		default:
			if pktVar != "" {
				return g.pktProp(pktVar)
			}
			if vars := g.scope["int"]; len(vars) > 0 {
				return vars[g.rng.Intn(len(vars))]
			}
			return fmt.Sprintf("%d", g.rng.Intn(100))
		}
	}
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.intExpr(depth+1, sbfVar, pktVar), g.pick("+", "-", "*", "/", "%"), g.intExpr(depth+1, sbfVar, pktVar))
	case 1:
		return fmt.Sprintf("-%s", g.intExpr(depth+1, sbfVar, pktVar))
	case 2:
		return g.pick("Q", "QU", "RQ") + g.pick(".COUNT", ".BYTES")
	case 3:
		return "SUBFLOWS.COUNT"
	case 4:
		return fmt.Sprintf("SUBFLOWS.FILTER(f%s => %s).COUNT", g.fresh(), "TRUE")
	default:
		return fmt.Sprintf("(%s + %s)", g.intExpr(depth+1, sbfVar, pktVar), g.intExpr(depth+1, sbfVar, pktVar))
	}
}

// sbfProp reads a random integer property of runtime's table on the
// subflow v, pktProp on the packet v.
func (g *progGen) sbfProp(v string) string {
	return v + "." + runtime.SubflowIntProp(g.rng.Intn(runtime.NumSubflowIntProps)).String()
}

func (g *progGen) pktProp(v string) string {
	return v + "." + runtime.PacketIntProp(g.rng.Intn(runtime.NumPacketIntProps)).String()
}

// key is an int expression over the subflow sbfVar, or else the packet
// pktVar, that reads one of its properties: bare half the time, as the
// paper's schedulers key a MIN (SUBFLOWS.MIN(s => s.RTT)).
func (g *progGen) key(depth int, sbfVar, pktVar string) string {
	prop, v := g.pktProp, pktVar
	if sbfVar != "" {
		prop, v = g.sbfProp, sbfVar
	}
	if g.rng.Intn(2) == 0 {
		return prop(v)
	}
	return fmt.Sprintf("(%s %s %s)", prop(v), g.pick("+", "-", "*"), g.intExpr(depth+1, sbfVar, pktVar))
}

// boolExpr produces a bool-typed expression.
func (g *progGen) boolExpr(depth int, sbfVar, pktVar string) string {
	if depth > 2 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(5) {
		case 0:
			return g.pick("TRUE", "FALSE")
		case 1:
			return g.pick("Q", "QU", "RQ") + ".EMPTY"
		case 2:
			return "SUBFLOWS.EMPTY"
		case 3:
			if sbfVar == "" {
				return "TRUE"
			}
			if g.rng.Intn(4) == 0 {
				return fmt.Sprintf("%s.HAS_WINDOW_FOR(%s)", sbfVar, g.pktExpr(depth+1))
			}
			return sbfVar + "." + runtime.SubflowBoolProp(g.rng.Intn(runtime.NumSubflowBoolProps)).String()
		default:
			if pktVar != "" && g.rng.Intn(2) == 0 {
				v := g.fresh()
				return fmt.Sprintf("%s.SENT_ON(SUBFLOWS.MIN(%s => %s.ID))", pktVar, v, v)
			}
			return fmt.Sprintf("(%s %s %s)", g.intExpr(depth+1, sbfVar, pktVar), g.pick("<", "<=", ">", ">=", "==", "!="), g.intExpr(depth+1, sbfVar, pktVar))
		}
	}
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("(%s AND %s)", g.boolExpr(depth+1, sbfVar, pktVar), g.boolExpr(depth+1, sbfVar, pktVar))
	case 1:
		return fmt.Sprintf("(%s OR %s)", g.boolExpr(depth+1, sbfVar, pktVar), g.boolExpr(depth+1, sbfVar, pktVar))
	case 2:
		return "!" + g.boolExpr(depth+1, sbfVar, pktVar)
	case 3:
		return fmt.Sprintf("(%s != NULL)", g.pktExpr(depth+1))
	default:
		return fmt.Sprintf("(%s == NULL)", g.sbfExpr(depth+1))
	}
}

func (g *progGen) sbfExpr(depth int) string {
	v := g.fresh()
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("SUBFLOWS.MIN(%s => %s)", v, g.key(depth+1, v, ""))
	case 1:
		return fmt.Sprintf("SUBFLOWS.MAX(%s => %s)", v, g.key(depth+1, v, ""))
	default:
		return fmt.Sprintf("SUBFLOWS.GET(%s)", g.intExpr(depth+1, "", ""))
	}
}

// sbfListExpr produces a subflow list: SUBFLOWS, or SUBFLOWS filtered
// by a random predicate or by a conjunction of the availability atoms
// (¬TSQ_THROTTLED, ¬LOSSY, window headroom, ¬IS_BACKUP) in random
// order, the filters a quiescence certificate is stated over.
func (g *progGen) sbfListExpr(depth int) string {
	v := g.fresh()
	switch g.rng.Intn(3) {
	case 0:
		return "SUBFLOWS"
	case 1:
		return fmt.Sprintf("SUBFLOWS.FILTER(%s => %s)", v, g.boolExpr(depth+1, v, ""))
	}
	atoms := []string{
		"!" + v + ".TSQ_THROTTLED",
		"!" + v + ".LOSSY",
		v + ".CWND > " + v + ".SKBS_IN_FLIGHT + " + v + ".QUEUED",
		"!" + v + ".IS_BACKUP",
	}
	g.rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
	return fmt.Sprintf("SUBFLOWS.FILTER(%s => %s)", v, strings.Join(atoms[:1+g.rng.Intn(len(atoms))], " AND "))
}

// queueExpr produces a queue-typed expression: an entity or, one time
// in three when one is in scope, a queue variable; half the time
// filtered.
func (g *progGen) queueExpr(depth int) string {
	base := g.pick("Q", "QU", "RQ")
	if vars := g.scope["queue"]; len(vars) > 0 && g.rng.Intn(3) == 0 {
		base = vars[g.rng.Intn(len(vars))]
	}
	if g.rng.Intn(2) == 0 {
		return base
	}
	v := g.fresh()
	return fmt.Sprintf("%s.FILTER(%s => %s)", base, v, g.boolExpr(depth+1, "", v))
}

func (g *progGen) pktExpr(depth int) string {
	q := g.queueExpr(depth + 1)
	if g.rng.Intn(3) == 0 {
		v := g.fresh()
		return fmt.Sprintf("%s.%s(%s => %s)", q, g.pick("MIN", "MAX"), v, g.key(depth+1, "", v))
	}
	return q + ".TOP"
}

func (g *progGen) line(depth int, format string, args ...any) {
	for i := 0; i < depth; i++ {
		g.b.WriteString("    ")
	}
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteString("\n")
}

func (g *progGen) stmt(depth int) {
	if g.depth > 3 {
		g.line(depth, "SET(R%d, %s);", 1+g.rng.Intn(8), g.intExpr(0, "", ""))
		return
	}
	switch g.rng.Intn(10) {
	case 0: // IF
		g.depth++
		g.line(depth, "IF (%s) {", g.boolExpr(0, "", ""))
		mark, qmark := len(g.scope["int"]), len(g.scope["queue"])
		g.stmt(depth + 1)
		g.scope["int"], g.scope["queue"] = g.scope["int"][:mark], g.scope["queue"][:qmark]
		if g.rng.Intn(2) == 0 {
			g.line(depth, "} ELSE {")
			g.stmt(depth + 1)
			g.scope["int"], g.scope["queue"] = g.scope["int"][:mark], g.scope["queue"][:qmark]
		}
		g.line(depth, "}")
		g.depth--
	case 1: // VAR int
		v := g.fresh()
		g.line(depth, "VAR %s = %s;", v, g.intExpr(0, "", ""))
		g.scope["int"] = append(g.scope["int"], v)
	case 2: // FOREACH with PUSH
		g.depth++
		v := g.fresh()
		g.line(depth, "FOREACH (VAR %s IN %s) {", v, g.sbfListExpr(0))
		switch g.rng.Intn(5) {
		case 0:
			g.line(depth+1, "%s.PUSH(%s);", v, g.pktExpr(0))
		case 1:
			g.line(depth+1, "%s.PUSH(%s.POP());", v, g.pick("Q", "QU", "RQ"))
		case 2: // a queue variable whose chain depends on the loop variable
			q, p := g.fresh(), g.fresh()
			g.line(depth+1, "VAR %s = %s.FILTER(%s => !%s.SENT_ON(%s));", q, g.queueExpr(0), p, p, v)
			g.line(depth+1, "IF (!%s.EMPTY) { %s.PUSH(%s.TOP); }", q, v, q)
		case 3: // push only what the receive window admits
			q := g.pick("Q", "RQ")
			g.line(depth+1, "IF (%s.HAS_WINDOW_FOR(%s.TOP)) { %s.PUSH(%s.POP()); }", v, q, v, q)
		default:
			g.line(depth+1, "SET(R%d, %s);", 1+g.rng.Intn(8), g.key(0, v, ""))
		}
		g.line(depth, "}")
		g.depth--
	case 3: // SET / GSET
		if g.rng.Intn(4) == 0 {
			g.line(depth, "GSET(G%d, %s);", 1+g.rng.Intn(8), g.intExpr(0, "", ""))
		} else {
			g.line(depth, "SET(R%d, %s);", 1+g.rng.Intn(8), g.intExpr(0, "", ""))
		}
	case 4: // PUSH pop
		g.line(depth, "%s.PUSH(%s.POP());", g.sbfExpr(0), g.pick("Q", "QU", "RQ"))
	case 5: // PUSH top
		g.line(depth, "%s.PUSH(%s);", g.sbfExpr(0), g.pktExpr(0))
	case 6: // DROP
		g.line(depth, "DROP(%s.POP());", g.pick("Q", "RQ"))
	case 7: // VAR queue, for later statements to scan
		v := g.fresh()
		g.line(depth, "VAR %s = %s;", v, g.queueExpr(0))
		g.scope["queue"] = append(g.scope["queue"], v)
	case 8: // a chain through two variables, the second scanned twice
		a, b, p := g.fresh(), g.fresh(), g.fresh()
		g.line(depth, "VAR %s = %s;", a, g.queueExpr(0))
		g.line(depth, "VAR %s = %s.FILTER(%s => %s);", b, a, p, g.boolExpr(1, "", p))
		g.line(depth, "SET(R%d, %s.%s);", 1+g.rng.Intn(8), b, g.pick("COUNT", "BYTES"))
		g.line(depth, "%s.PUSH(%s.%s);", g.sbfExpr(0), b, g.pick("TOP", "POP()"))
		g.scope["queue"] = append(g.scope["queue"], a, b)
	default: // RETURN guarded so programs don't trivially end
		g.depth++
		g.line(depth, "IF (%s) { RETURN; }", g.boolExpr(0, "", ""))
		g.depth--
	}
}

// SameActions reports action-queue equality ignoring decision sites.
// Every DSL back-end stamps the source line as the site, so DSL
// back-ends compare with slices.Equal; this is for comparisons where
// the sites legitimately differ: native Go schedulers stamp site 0,
// and a rewritten source moves its lines.
func SameActions(a, b []runtime.Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Site, y.Site = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// PushCount counts the ActionPush entries env has recorded.
func PushCount(env *runtime.Env) int {
	n := 0
	for i := range env.Actions {
		if env.Actions[i].Kind == runtime.ActionPush {
			n++
		}
	}
	return n
}
