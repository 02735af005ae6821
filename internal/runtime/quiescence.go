package runtime

import (
	"strings"
)

// Facts is a word of substrate facts: cheap, execution-invariant
// observations of a connection that a quiescence certificate (see
// Certificate) is evaluated over. The low bits say which queues are
// empty; the rest say, for each conjunction of subflow atoms, whether
// some usable subflow satisfies it. The connection computes the word
// from its own state before it builds a snapshot, and Env.Facts from a
// snapshot; the two agree by construction, because both go through
// SubflowAtoms and WithSubflow.
type Facts uint32

// The queue-emptiness facts, one bit per queue at bit QueueID.
const (
	FactQEmpty  Facts = 1 << QueueSend
	FactQUEmpty Facts = 1 << QueueUnacked
	FactRQEmpty Facts = 1 << QueueReinject

	// factSome is the bit of some(∅); some(m) is bit factSome+m.
	factSome = 3
)

// Atoms is a conjunction of the four availability atoms over one
// subflow: a set of conditions every one of which it satisfies.
type Atoms uint8

// The availability atoms. Each is a condition the scheduler language
// can state about a subflow and the substrate can check without a
// snapshot.
const (
	AtomNotTSQ   Atoms = 1 << iota // ¬TSQ_THROTTLED
	AtomNotLossy                   // ¬LOSSY
	AtomHeadroom                   // CWND > SKBS_IN_FLIGHT + QUEUED
	AtomPrimary                    // ¬IS_BACKUP

	// AtomsAvail is the availability filter of the default scheduler.
	AtomsAvail = AtomNotTSQ | AtomNotLossy | AtomHeadroom
	// NumAtomSets is the number of conjunctions of atoms.
	NumAtomSets = 16
)

// subsetsOf[m] has bit s set for every atom set s ⊆ m: a subflow that
// satisfies m satisfies each of them. supersetsOf[m] has bit s set for
// every s ⊇ m: when no subflow satisfies m, none satisfies those.
var subsetsOf, supersetsOf = func() (sub, super [NumAtomSets]uint16) {
	for m := range sub {
		for s := 0; s < NumAtomSets; s++ {
			if s&m == s {
				sub[m] |= 1 << s
				super[s] |= 1 << m
			}
		}
	}
	return sub, super
}()

// SubflowAtoms is the one definition of the availability atoms: the
// set of atoms a subflow with these properties satisfies. outstanding
// is SKBS_IN_FLIGHT + QUEUED, which partition the subflow's
// unacknowledged segments.
//
//progmp:hotpath
//progmp:deterministic
func SubflowAtoms(tsqThrottled, lossy, backup bool, cwnd, outstanding int64) Atoms {
	var a Atoms
	if !tsqThrottled {
		a |= AtomNotTSQ
	}
	if !lossy {
		a |= AtomNotLossy
	}
	if cwnd > outstanding {
		a |= AtomHeadroom
	}
	if !backup {
		a |= AtomPrimary
	}
	return a
}

// QueueFacts starts a fact word from the three queues' emptiness.
//
//progmp:hotpath
//progmp:deterministic
func QueueFacts(qEmpty, quEmpty, rqEmpty bool) Facts {
	var f Facts
	if qEmpty {
		f |= FactQEmpty
	}
	if quEmpty {
		f |= FactQUEmpty
	}
	if rqEmpty {
		f |= FactRQEmpty
	}
	return f
}

// WithSubflow adds one usable subflow satisfying atoms a.
//
//progmp:hotpath
//progmp:deterministic
func (f Facts) WithSubflow(a Atoms) Facts {
	return f | Facts(subsetsOf[a&(NumAtomSets-1)])<<factSome
}

// Some reports whether some usable subflow satisfies every atom in m.
//
//progmp:hotpath
//progmp:deterministic
func (f Facts) Some(m Atoms) bool { return f&SomeFact(m) != 0 }

// SomeFact is the fact bit of some(m).
//
//progmp:hotpath
//progmp:deterministic
func SomeFact(m Atoms) Facts { return 1 << (factSome + uint(m&(NumAtomSets-1))) }

// WorkAvailable reports whether some subflow could transmit now: Q is
// nonempty and a subflow that is not TSQ-throttled and not in loss
// recovery has congestion-window headroom. Backup subflows count only
// when no non-backup subflow exists at all (the availability shape of
// the default scheduler).
//
//progmp:hotpath
//progmp:deterministic
func (f Facts) WorkAvailable() bool {
	if f&FactQEmpty != 0 {
		return false
	}
	if f.Some(AtomPrimary) {
		return f.Some(AtomsAvail | AtomPrimary)
	}
	return f.Some(AtomsAvail)
}

// Facts computes the environment's fact word from its visible queues
// and its subflow views.
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) Facts() Facts {
	f := QueueFacts(e.SendQ.Empty(), e.UnackedQ.Empty(), e.ReinjectQ.Empty())
	for _, v := range e.SubflowViews {
		f = f.WithSubflow(SubflowAtoms(v.Bools[SbfTSQThrottled], v.Bools[SbfLossy], v.Bools[SbfIsBackup],
			v.Ints[SbfCwnd], v.Ints[SbfSkbsInFlight]+v.Ints[SbfQueued]))
	}
	return f
}

// Term is a conjunction of fact literals: it holds on a fact word with
// every bit of Set set and every bit of Clear clear. A some(m) bit in
// Clear reads none(m).
type Term struct {
	Set, Clear Facts
}

// Holds reports whether the term holds on f.
//
//progmp:hotpath
//progmp:deterministic
func (t Term) Holds(f Facts) bool { return f&t.Set == t.Set && f&t.Clear == 0 }

// Close adds what the term's literals imply on every fact word a
// connection can have — some(m) gives some(s) for each s ⊆ m, none(m)
// gives none(s) for each s ⊇ m — and reports whether the result is
// satisfiable. Closed terms absorb by bit inclusion, and the union of
// two closed terms is closed.
func (t Term) Close() (Term, bool) {
	some, none := t.Set>>factSome, t.Clear>>factSome
	for m := 0; m < NumAtomSets; m++ {
		if some&(1<<m) != 0 {
			some |= Facts(subsetsOf[m])
		}
		if none&(1<<m) != 0 {
			none |= Facts(supersetsOf[m])
		}
	}
	const queues = 1<<factSome - 1
	t.Set = t.Set&queues | some<<factSome
	t.Clear = t.Clear&queues | none<<factSome
	return t, t.Set&t.Clear == 0
}

// MaxTerms is the most terms a certificate holds.
const MaxTerms = 4

// Certificate is a quiescence certificate: a disjunction of terms over
// substrate facts, derived by the analyzer, under any one of which the
// program provably emits no action and writes no register or global.
// A back-end stamps its program's certificate on the Env it executes
// (Env.Cert); the connection checks the stamp against its own facts
// before building the next snapshot and skips the execution when it
// holds. The terms are Terms[:N]; a nil certificate, like one without
// terms, never holds.
type Certificate struct {
	N     int
	Terms [MaxTerms]Term
}

// Holds reports whether some term holds on f.
//
//progmp:hotpath
//progmp:deterministic
func (c *Certificate) Holds(f Facts) bool {
	if c == nil {
		return false
	}
	for i := 0; i < c.N; i++ {
		if c.Terms[i].Holds(f) {
			return true
		}
	}
	return false
}

// String renders the certificate in the vocabulary of docs/LANGUAGE.md
// §7: Q.EMPTY, QU.EMPTY, RQ.EMPTY and some(·)/none(·) over atom
// conjunctions, where avail is ¬TSQ_THROTTLED∧¬LOSSY∧headroom and
// primary is ¬IS_BACKUP. Only the strongest some and weakest none
// literals of a term are printed; the rest follow from them. A
// certificate without terms reads "never", one whose term is empty
// "always".
func (c *Certificate) String() string {
	if c == nil || c.N == 0 {
		return "never"
	}
	parts := make([]string, c.N)
	for i, t := range c.Terms[:c.N] {
		lits := t.literals()
		switch {
		case len(lits) == 0:
			return "always"
		case len(lits) == 1 || c.N == 1:
			parts[i] = strings.Join(lits, " ∧ ")
		default:
			parts[i] = "(" + strings.Join(lits, " ∧ ") + ")"
		}
	}
	return strings.Join(parts, " ∨ ")
}

// literals lists the term's literals: queue facts, then the maximal
// some(m), then the minimal none(m).
func (t Term) literals() []string {
	var out []string
	for q := QueueSend; q <= QueueReinject; q++ {
		if t.Set&(1<<q) != 0 {
			out = append(out, q.String()+".EMPTY")
		}
	}
	some, none := t.Set>>factSome, t.Clear>>factSome
	for m := 0; m < NumAtomSets; m++ {
		if self := Facts(1) << m; some&self != 0 && some&Facts(supersetsOf[m])&^self == 0 {
			out = append(out, "some("+Atoms(m).String()+")")
		}
	}
	for m := 0; m < NumAtomSets; m++ {
		if self := Facts(1) << m; none&self != 0 && none&Facts(subsetsOf[m])&^self == 0 {
			out = append(out, "none("+Atoms(m).String()+")")
		}
	}
	return out
}

// String spells the conjunction: avail for the default scheduler's
// filter, primary for ¬IS_BACKUP, SUBFLOWS for the empty conjunction.
func (a Atoms) String() string {
	if a == 0 {
		return "SUBFLOWS"
	}
	var parts []string
	if a&AtomsAvail == AtomsAvail {
		parts = append(parts, "avail")
	} else {
		if a&AtomNotTSQ != 0 {
			parts = append(parts, "¬TSQ_THROTTLED")
		}
		if a&AtomNotLossy != 0 {
			parts = append(parts, "¬LOSSY")
		}
		if a&AtomHeadroom != 0 {
			parts = append(parts, "headroom")
		}
	}
	if a&AtomPrimary != 0 {
		parts = append(parts, "primary")
	}
	return strings.Join(parts, "∧")
}
