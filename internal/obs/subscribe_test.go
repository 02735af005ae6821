package obs

import (
	"sync"
	"testing"
)

func TestSubscriptionReceivesEvents(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Event{Kind: EvPush, Seq: 0}) // pre-subscribe: not delivered
	sub := tr.SubscribeEvict(8, 0, nil, -1)
	defer sub.Close()
	for i := 1; i <= 3; i++ {
		tr.Record(Event{Kind: EvPush, Seq: int64(i)})
	}
	for want := int64(1); want <= 3; want++ {
		ev := <-sub.Events()
		if ev.Seq != want {
			t.Fatalf("got seq %d, want %d", ev.Seq, want)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", sub.Dropped())
	}
}

// TestSubscriptionFiltersBeforeBuffering: a subscription's buffer holds
// only the kinds and connection it asked for, so no other traffic fills
// it, counts as a drop or evicts it.
func TestSubscriptionFiltersBeforeBuffering(t *testing.T) {
	tr := NewTracer(16)
	sub := tr.SubscribeEvict(8, 3, []EventKind{EvSchedSwap}, 2)
	defer sub.Close()
	for i := 0; i < 10000; i++ {
		tr.Record(Event{Kind: EvPush, Conn: 2, Seq: int64(i)})
	}
	tr.Record(Event{Kind: EvSchedSwap, Conn: 1}) // another connection's
	tr.Record(Event{Kind: EvSchedSwap, Conn: 2, Aux: 1})
	if sub.Dropped() != 0 || sub.Evicted() {
		t.Fatalf("Dropped = %d, Evicted = %v; want 0, false", sub.Dropped(), sub.Evicted())
	}
	select {
	case ev := <-sub.Events():
		if ev.Kind != EvSchedSwap || ev.Conn != 2 || ev.Aux != 1 {
			t.Fatalf("received %+v, want connection 2's SCHED_SWAP", ev)
		}
	default:
		t.Fatal("the requested event never arrived")
	}
	select {
	case ev := <-sub.Events():
		t.Fatalf("received %+v besides the requested event", ev)
	default:
	}
}

func TestSubscriptionDropsWhenFull(t *testing.T) {
	tr := NewTracer(16)
	sub := tr.SubscribeEvict(2, 0, nil, -1)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: EvAck, Seq: int64(i)})
	}
	if got := sub.Dropped(); got != 8 {
		t.Fatalf("Dropped = %d, want 8", got)
	}
	// The retained events are the oldest two (drop-newest policy).
	if ev := <-sub.Events(); ev.Seq != 0 {
		t.Fatalf("first buffered seq = %d, want 0", ev.Seq)
	}
}

func TestSubscriptionCloseStopsDeliveryAndIsIdempotent(t *testing.T) {
	tr := NewTracer(16)
	sub := tr.SubscribeEvict(4, 0, nil, -1)
	tr.Record(Event{Kind: EvPush, Seq: 1})
	sub.Close()
	sub.Close() // idempotent
	tr.Record(Event{Kind: EvPush, Seq: 2})
	var got []Event
	for ev := range sub.Events() {
		got = append(got, ev)
	}
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("drained %v, want exactly the pre-close event", got)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("post-close records must not count as drops, got %d", sub.Dropped())
	}
}

func TestSubscriptionConcurrentRecordAndClose(t *testing.T) {
	tr := NewTracer(1 << 10)
	done := make(chan struct{})
	var producers sync.WaitGroup
	for g := 0; g < 4; g++ {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Event{Kind: EvPush, Seq: int64(i)})
			}
		}()
	}
	var subscribers sync.WaitGroup
	for s := 0; s < 4; s++ {
		subscribers.Add(1)
		go func() {
			defer subscribers.Done()
			sub := tr.SubscribeEvict(16, 0, nil, -1)
			defer sub.Close()
			for {
				select {
				case <-sub.Events():
				case <-done:
					return
				}
			}
		}()
	}
	producers.Wait()
	close(done)
	subscribers.Wait()
}

func TestNilSubscriptionIsNoOp(t *testing.T) {
	var tr *Tracer
	sub := tr.SubscribeEvict(8, 0, nil, -1)
	if sub != nil {
		t.Fatal("nil tracer must hand out a nil subscription")
	}
	if sub.Events() != nil || sub.Dropped() != 0 {
		t.Fatal("nil subscription methods must be no-ops")
	}
	sub.Close()
}

func TestSubscriptionEvictedAfterConsecutiveDrops(t *testing.T) {
	tr := NewTracer(64)
	sub := tr.SubscribeEvict(2, 5, nil, -1)
	// Fill the buffer (2 events), then drop 5 in a row: eviction.
	for i := 0; i < 7; i++ {
		tr.Record(Event{Kind: EvPush, Seq: int64(i)})
	}
	if !sub.Evicted() {
		t.Fatalf("subscription not evicted after %d consecutive drops", sub.Dropped())
	}
	if got := sub.Dropped(); got != 5 {
		t.Fatalf("Dropped = %d, want 5", got)
	}
	// The channel is closed: the buffered events drain, then end-of-stream.
	var got []Event
	for ev := range sub.Events() {
		got = append(got, ev)
	}
	if len(got) != 2 {
		t.Fatalf("drained %d buffered events, want 2", len(got))
	}
	// The eviction itself is in the trace, with the drop run in Aux.
	var evict *Event
	for _, ev := range tr.Events() {
		if ev.Kind == EvCtlSubEvict {
			ev := ev
			evict = &ev
		}
	}
	if evict == nil {
		t.Fatal("no CTL_SUB_EVICT event recorded")
	}
	if evict.Aux != 5 {
		t.Fatalf("CTL_SUB_EVICT Aux = %d, want 5", evict.Aux)
	}
	// Closing an evicted subscription is a harmless no-op.
	sub.Close()
	tr.Record(Event{Kind: EvPush, Seq: 99})
	if sub.Dropped() != 5 {
		t.Fatalf("post-evict records must not count as drops, got %d", sub.Dropped())
	}
}

func TestSubscriptionDrainResetsDropRun(t *testing.T) {
	tr := NewTracer(64)
	sub := tr.SubscribeEvict(1, 3, nil, -1)
	tr.Record(Event{Kind: EvPush, Seq: 0}) // fills the buffer
	tr.Record(Event{Kind: EvPush, Seq: 1}) // drop 1
	tr.Record(Event{Kind: EvPush, Seq: 2}) // drop 2
	<-sub.Events()                         // drain: the run resets
	tr.Record(Event{Kind: EvPush, Seq: 3}) // buffered again
	tr.Record(Event{Kind: EvPush, Seq: 4}) // drop 1 of a new run
	tr.Record(Event{Kind: EvPush, Seq: 5}) // drop 2
	if sub.Evicted() {
		t.Fatal("slow-but-draining subscriber must not be evicted")
	}
	if got := sub.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	sub.Close()
}

func TestSubscribeEvictDisabled(t *testing.T) {
	tr := NewTracer(64)
	sub := tr.SubscribeEvict(1, -1, nil, -1)
	defer sub.Close()
	for i := 0; i < DefaultSubscriptionEvictDrops+10; i++ {
		tr.Record(Event{Kind: EvPush, Seq: int64(i)})
	}
	if sub.Evicted() {
		t.Fatal("eviction-disabled subscription was evicted")
	}
}
