package netsim

import (
	"testing"
	"time"
)

func TestFlapSchedule(t *testing.T) {
	f := Flap{FirstDownAt: time.Second, DownFor: 200 * time.Millisecond, UpFor: 800 * time.Millisecond}
	rate := FlapRate(ConstantRate(1e6), f)
	cases := []struct {
		at   time.Duration
		down bool
	}{
		{0, false},
		{999 * time.Millisecond, false},
		{time.Second, true},
		{1100 * time.Millisecond, true},
		{1200 * time.Millisecond, false}, // outage over (exclusive)
		{1900 * time.Millisecond, false},
		{2 * time.Second, true}, // next cycle
		{2300 * time.Millisecond, false},
	}
	for _, c := range cases {
		r := rate(c.at)
		if c.down && r != 0 {
			t.Errorf("at %v: rate %v, want 0 (down window)", c.at, r)
		}
		if !c.down && r != 1e6 {
			t.Errorf("at %v: rate %v, want 1e6 (up window)", c.at, r)
		}
	}
}

func TestFlapDownForeverWithoutUp(t *testing.T) {
	f := Flap{FirstDownAt: time.Second, DownFor: 200 * time.Millisecond}
	if f.down(500 * time.Millisecond) {
		t.Error("down before FirstDownAt")
	}
	if !f.down(time.Hour) {
		t.Error("UpFor=0 must mean the link never recovers")
	}
}

func TestFlapTailDropsDuringOutage(t *testing.T) {
	eng := NewEngine(1)
	flap := Flap{FirstDownAt: 10 * time.Millisecond, DownFor: 10 * time.Millisecond}
	p := NewPath(eng, PathConfig{Rate: FlapRate(ConstantRate(1e6), flap), Delay: time.Millisecond})
	if !p.Send(100, func() {}) {
		t.Fatal("send before outage must be accepted")
	}
	eng.RunUntil(15 * time.Millisecond)
	if p.Send(100, func() {}) {
		t.Fatal("send during outage must be tail-dropped")
	}
}

func TestBlackoutLossUntil(t *testing.T) {
	eng := NewEngine(1)
	b := BlackoutLoss{From: 10 * time.Millisecond, Until: 20 * time.Millisecond}
	check := func(at time.Duration, want bool) {
		eng.At(at, func() {
			if got := b.Lost(eng); got != want {
				t.Errorf("at %v: Lost = %v, want %v", at, got, want)
			}
		})
	}
	check(5*time.Millisecond, false)
	check(10*time.Millisecond, true)
	check(19*time.Millisecond, true)
	check(20*time.Millisecond, false)
	eng.Run()
}

func TestDuplicationDeliversTwice(t *testing.T) {
	eng := NewEngine(3)
	p := NewPath(eng, PathConfig{
		Rate:    ConstantRate(1e6),
		Delay:   time.Millisecond,
		DupProb: 1.0,
	})
	deliveries := 0
	p.Send(100, func() { deliveries++ })
	eng.Run()
	if deliveries != 2 {
		t.Fatalf("DupProb=1: delivered %d times, want 2", deliveries)
	}
}

func TestReorderingOvertakes(t *testing.T) {
	eng := NewEngine(4)
	// Deterministic check: a path that reorders every packet by 10 ms
	// must deliver a later clean packet first.
	rp := NewPath(eng, PathConfig{
		Rate:        ConstantRate(1e9),
		Delay:       time.Millisecond,
		ReorderProb: 1.0,
		ReorderBy:   10 * time.Millisecond,
	})
	var order []int
	rp.Send(100, func() { order = append(order, 1) })
	// Second packet sent shortly after on a clean path with the same
	// delay arrives first because the first was held back.
	clean := NewPath(eng, PathConfig{Rate: ConstantRate(1e9), Delay: time.Millisecond})
	eng.After(100*time.Microsecond, func() {
		clean.Send(100, func() { order = append(order, 2) })
	})
	eng.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("delivery order %v, want [2 1] (reordered packet overtaken)", order)
	}
}
