package progmp

import (
	"strings"
	"testing"
	"time"
)

func TestCheckScheduler(t *testing.T) {
	if err := CheckScheduler(Schedulers["minRTT"]); err != nil {
		t.Errorf("corpus scheduler rejected: %v", err)
	}
	if err := CheckScheduler("VAR x = Q.POP().SIZE;"); err == nil {
		t.Error("side-effecting condition accepted")
	}
	if err := CheckScheduler("IF ("); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestLoadAndDisassemble(t *testing.T) {
	if _, err := LoadScheduler("default", Schedulers["minRTT"]); err != nil {
		t.Fatalf("LoadScheduler: %v", err)
	}
	asm, err := Disassemble(Schedulers["roundRobin"])
	if err != nil {
		t.Fatalf("Disassemble: %v", err)
	}
	if !strings.Contains(asm, "return") {
		t.Errorf("disassembly looks wrong:\n%s", asm)
	}
}

func TestQuickstartFlow(t *testing.T) {
	net := NewNetwork(42)
	conn, err := net.Dial(ConnConfig{},
		Path{Name: "wifi", RateBps: 3e6, OneWayDelay: 5 * time.Millisecond},
		Path{Name: "lte", RateBps: 8e6, OneWayDelay: 20 * time.Millisecond, Backup: true},
	)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	sched, err := LoadScheduler("default", Schedulers["minRTT"])
	if err != nil {
		t.Fatalf("LoadScheduler: %v", err)
	}
	conn.SetScheduler(sched)
	var delivered int64
	var lastAt time.Duration
	conn.OnDeliver(func(_ int64, size int, at time.Duration) {
		delivered += int64(size)
		lastAt = at
	})
	net.At(0, func() { conn.Send(256 << 10) })
	net.Run(10 * time.Second)
	if !conn.AllAcked() {
		t.Fatal("transfer incomplete")
	}
	if delivered != 256<<10 {
		t.Errorf("delivered %d, want %d", delivered, 256<<10)
	}
	if lastAt == 0 || lastAt > 2*time.Second {
		t.Errorf("implausible completion time %v", lastAt)
	}
	stats := conn.Subflows()
	if len(stats) != 2 || stats[0].Name != "wifi" {
		t.Errorf("unexpected subflow stats: %+v", stats)
	}
	if stats[0].BytesSent == 0 {
		t.Errorf("wifi subflow carried nothing")
	}
	if stats[1].BytesSent != 0 {
		t.Errorf("default scheduler used the backup subflow (%d bytes) with wifi alive", stats[1].BytesSent)
	}
}

func TestRegisterAPI(t *testing.T) {
	net := NewNetwork(1)
	conn, err := net.Dial(ConnConfig{}, Path{Name: "p", RateBps: 1e6, OneWayDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := LoadScheduler("tap", Schedulers["tap"])
	if err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(sched)
	conn.SetRegister(R1, 123456)
	if got, err := conn.Register(R1); err != nil || got != 123456 {
		t.Errorf("Register(R1) = %d, %v; want 123456", got, err)
	}
	// R99 does not exist: reading it is refused as writing it is.
	_, rerr := conn.Register(99)
	werr := conn.SetRegister(99, 1)
	if rerr == nil || werr == nil || rerr.Error() != werr.Error() {
		t.Errorf("Register(99) error %v, SetRegister(99) error %v; want the same refusal", rerr, werr)
	}
}

func TestDialValidation(t *testing.T) {
	net := NewNetwork(1)
	if _, err := net.Dial(ConnConfig{}); err == nil {
		t.Error("Dial with no paths must fail")
	}
}

func TestCongestionControlOption(t *testing.T) {
	net := NewNetwork(1)
	for _, cc := range []string{"", "lia", "olia", "reno"} {
		if _, err := net.Dial(ConnConfig{CongestionControl: cc},
			Path{Name: "p", RateBps: 1e6, OneWayDelay: time.Millisecond}); err != nil {
			t.Errorf("CC %q rejected: %v", cc, err)
		}
	}
	if _, err := net.Dial(ConnConfig{CongestionControl: "cubic"},
		Path{Name: "p", RateBps: 1e6, OneWayDelay: time.Millisecond}); err == nil {
		t.Error("unknown CC accepted")
	}
}

func TestFacadeCoverage(t *testing.T) {
	net := NewNetwork(2)
	if net.Now() != 0 {
		t.Errorf("fresh network Now = %v", net.Now())
	}
	conn, err := net.Dial(ConnConfig{},
		Path{Name: "a", RateBps: 2e6, OneWayDelay: 2 * time.Millisecond},
		Path{Name: "b", RateBps: 2e6, OneWayDelay: 8 * time.Millisecond, LossProb: 0.01},
	)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := LoadSchedulerBackend("rr", Schedulers["roundRobin"], BackendInterpreter)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(sched)
	pm := conn.EnablePathManager()
	if pm == nil {
		t.Fatal("EnablePathManager returned nil")
	}
	net.At(0, func() { conn.SendWithIntent(64<<10, 2) })
	// The path manager re-arms its periodic check forever, so the
	// queue never drains: run to a horizon.
	net.Run(30 * time.Second)
	if !conn.AllAcked() {
		t.Errorf("transfer incomplete")
	}
	if conn.Inner() == nil {
		t.Errorf("Inner must expose the model connection")
	}
	if got := net.Now(); got == 0 {
		t.Errorf("Run did not advance time")
	}
	pm.Stop()
}
