package analysis

import "math"

// The value domain of the abstract interpreter: integer intervals with
// saturating arithmetic, three-valued booleans, three-valued nullness
// for packets and subflows, and three-valued emptiness for collections.
// Diagnostics fire only on *definite* facts (provably false, provably
// empty, provably overflowing), so the analysis never needs path
// refinement to avoid false positives: anything uncertain stays silent.

// boolVal is a three-valued boolean.
type boolVal uint8

const (
	bUnknown boolVal = iota
	bTrue
	bFalse
)

func boolOf(v bool) boolVal {
	if v {
		return bTrue
	}
	return bFalse
}

func notB(v boolVal) boolVal {
	switch v {
	case bTrue:
		return bFalse
	case bFalse:
		return bTrue
	}
	return bUnknown
}

func andB(x, y boolVal) boolVal {
	if x == bFalse || y == bFalse {
		return bFalse
	}
	if x == bTrue && y == bTrue {
		return bTrue
	}
	return bUnknown
}

func orB(x, y boolVal) boolVal {
	if x == bTrue || y == bTrue {
		return bTrue
	}
	if x == bFalse && y == bFalse {
		return bFalse
	}
	return bUnknown
}

// nullness tracks reference values (packets, subflows).
type nullness uint8

const (
	nUnknown nullness = iota
	nNull
	nNonNull
)

// interval is a closed int64 range with saturating endpoints.
type interval struct{ lo, hi int64 }

var (
	fullRange   = interval{math.MinInt64, math.MaxInt64}
	nonNegRange = interval{0, math.MaxInt64}
)

func single(v int64) interval { return interval{v, v} }

func (iv interval) isConst() (int64, bool) {
	if iv.lo == iv.hi {
		return iv.lo, true
	}
	return 0, false
}

func addIV(x, y interval) interval {
	lo, _ := satAdd(x.lo, y.lo)
	hi, _ := satAdd(x.hi, y.hi)
	return interval{lo, hi}
}

func subIV(x, y interval) interval {
	return addIV(x, negIV(y))
}

func negIV(x interval) interval {
	neg := func(v int64) int64 {
		if v == math.MinInt64 {
			return math.MaxInt64
		}
		return -v
	}
	return interval{neg(x.hi), neg(x.lo)}
}

func mulIV(x, y interval) interval {
	corners := [4]int64{}
	vals := [4][2]int64{{x.lo, y.lo}, {x.lo, y.hi}, {x.hi, y.lo}, {x.hi, y.hi}}
	for i, v := range vals {
		corners[i], _ = satMul(v[0], v[1])
	}
	lo, hi := corners[0], corners[0]
	for _, c := range corners[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return interval{lo, hi}
}

// Interval comparisons: definite only when the ranges are disjoint or
// pinned.

func ltIV(x, y interval) boolVal {
	if x.hi < y.lo {
		return bTrue
	}
	if x.lo >= y.hi {
		return bFalse
	}
	return bUnknown
}

func leIV(x, y interval) boolVal {
	if x.hi <= y.lo {
		return bTrue
	}
	if x.lo > y.hi {
		return bFalse
	}
	return bUnknown
}

func eqIV(x, y interval) boolVal {
	if xc, ok := x.isConst(); ok {
		if yc, ok := y.isConst(); ok {
			return boolOf(xc == yc)
		}
	}
	if x.hi < y.lo || y.hi < x.lo {
		return bFalse
	}
	return bUnknown
}

// absVal is one abstract value; the fields that apply depend on the
// expression's checked type.
type absVal struct {
	iv    interval // Int
	b     boolVal  // Bool
	null  nullness // Packet, Subflow
	empty boolVal  // SubflowList, PacketQueue: provably empty?
}

func intVal(iv interval) absVal { return absVal{iv: iv} }
func boolV(b boolVal) absVal    { return absVal{iv: fullRange, b: b} }
func refVal(n nullness) absVal  { return absVal{iv: fullRange, null: n} }
func listVal(e boolVal) absVal  { return absVal{iv: fullRange, empty: e} }
