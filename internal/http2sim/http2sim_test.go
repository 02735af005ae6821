package http2sim

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

func TestSerializePriorityOrder(t *testing.T) {
	frames := Serialize(DefaultPage())
	lastClass := ClassDependency
	for i, f := range frames {
		if f.Class < lastClass {
			t.Fatalf("frame %d: class %v after %v (priority order violated)", i, f.Class, lastClass)
		}
		lastClass = f.Class
		if f.Payload <= 0 || f.Payload > maxFramePayload {
			t.Errorf("frame %d: payload %d out of range", i, f.Payload)
		}
	}
}

// TestSerializePreservesBytes walks the frames in transmission order:
// class by class, each resource of the class in page order is a run of
// full frames and then one frame holding the rest of its bytes.
func TestSerializePreservesBytes(t *testing.T) {
	page := DefaultPage()
	frames := Serialize(page)
	for _, class := range []ContentClass{ClassDependency, ClassRequired, ClassDeferrable} {
		for i, res := range page.Resources {
			if res.Class != class {
				continue
			}
			for remaining := res.Size; remaining > 0; {
				if len(frames) == 0 {
					t.Fatalf("resource %d: frames ran out with %d bytes to go", i, remaining)
				}
				f := frames[0]
				frames = frames[1:]
				want := min(remaining, maxFramePayload)
				if f.Class != class || f.Payload != want {
					t.Fatalf("resource %d: frame {%v, %d B}, want {%v, %d B}", i, f.Class, f.Payload, class, want)
				}
				remaining -= want
			}
		}
	}
	if len(frames) > 0 {
		t.Errorf("%d frames beyond the page's resources", len(frames))
	}
}

func TestClassBytes(t *testing.T) {
	page := DefaultPage()
	total := page.ClassBytes(ClassDependency) + page.ClassBytes(ClassRequired) + page.ClassBytes(ClassDeferrable)
	if total != page.TotalBytes() {
		t.Errorf("class bytes %d do not add up to total %d", total, page.TotalBytes())
	}
	if page.ClassBytes(ClassDeferrable)*2 < page.TotalBytes() {
		t.Errorf("the default page should have more than half of its data deferrable (paper's optimized layout)")
	}
}

// loadPage runs a full page load over a WiFi+LTE connection.
func loadPage(t *testing.T, scheduler string) (Metrics, *mptcp.Conn) {
	t.Helper()
	eng := netsim.NewEngine(5)
	conn := mptcp.NewConn(eng, mptcp.Config{})
	wifi := netsim.NewLink(eng, netsim.PathConfig{
		Name: "wifi", Rate: netsim.ConstantRate(3e6), Delay: 10 * time.Millisecond,
	})
	lte := netsim.NewLink(eng, netsim.PathConfig{
		Name: "lte", Rate: netsim.ConstantRate(6e6), Delay: 30 * time.Millisecond,
	})
	if _, err := conn.AddSubflow(mptcp.SubflowConfig{Name: "wifi", Link: wifi}); err != nil {
		t.Fatal(err)
	}
	// The backup flag is the preference marker consumed by the
	// preference-aware schedulers; the default scheduler would simply
	// deactivate a backup subflow, so the paper's default-scheduler
	// baseline runs with both subflows active.
	lteBackup := scheduler != "minRTT"
	if _, err := conn.AddSubflow(mptcp.SubflowConfig{Name: "lte", Link: lte, Backup: lteBackup}); err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(core.MustLoad(scheduler, schedlib.All[scheduler], core.BackendCompiled))
	page := DefaultPage()
	browser := NewBrowser(conn, page)
	eng.After(0, func() { Server{Page: page}.Respond(conn) })
	eng.RunUntil(60 * time.Second)
	m := browser.Metrics()
	if !m.Complete {
		t.Fatalf("page load incomplete with %s", scheduler)
	}
	return m, conn
}

func TestPageLoadCompletesAndOrdersMilestones(t *testing.T) {
	m, _ := loadPage(t, "http2Aware")
	if m.DependencyRetrieved <= 0 {
		t.Errorf("dependency retrieval time not recorded")
	}
	if m.DependencyRetrieved > m.InitialPage || m.InitialPage > m.FullLoad {
		t.Errorf("milestones out of order: deps %v, initial %v, full %v",
			m.DependencyRetrieved, m.InitialPage, m.FullLoad)
	}
}

func TestHTTP2AwareSavesLTEBytes(t *testing.T) {
	_, defConn := loadPage(t, "minRTT")
	_, awareConn := loadPage(t, "http2Aware")
	defLTE := defConn.Subflows()[1].BytesSent
	awareLTE := awareConn.Subflows()[1].BytesSent
	if awareLTE >= defLTE {
		t.Errorf("HTTP/2-aware scheduler must reduce LTE usage: aware %d vs default %d", awareLTE, defLTE)
	}
}

func TestThirdPartyGatesInitialPage(t *testing.T) {
	m, _ := loadPage(t, "http2Aware")
	// The slowest third-party fetch takes 90 ms after dependency
	// retrieval; the initial page cannot complete before that.
	minInitial := m.DependencyRetrieved + 90*time.Millisecond
	if m.InitialPage < minInitial {
		t.Errorf("initial page %v before third-party resolution %v", m.InitialPage, minInitial)
	}
}
