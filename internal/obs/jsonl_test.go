package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestJSONLRoundTrip: ReadJSONL inverts WriteJSONL. Every kind survives
// the trip, a time below a microsecond is cut as the writer cuts it,
// and re-encoding what was read reproduces the file byte for byte.
func TestJSONLRoundTrip(t *testing.T) {
	var events []Event
	for k := EvExecStart; k < numEventKinds; k++ {
		events = append(events, Event{
			At: time.Duration(k) * 1500 * time.Microsecond, Kind: k, Conn: 2, Exec: uint64(k),
			Seq: int64(k) - 3, Sbf: int32(k) % 3, Site: int32(k) * 7, Aux: -int64(k),
		})
	}
	var b bytes.Buffer
	if err := WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, events) {
		t.Fatalf("read back %+v\nwant %+v", got, events)
	}

	// Sub-microsecond time is not on the wire: the reader sees the
	// truncated value, and the bytes are a fixed point.
	fine := []Event{{At: 1500*time.Microsecond + 999, Kind: EvPush, Seq: 1, Sbf: 0}}
	b.Reset()
	if err := WriteJSONL(&b, fine); err != nil {
		t.Fatal(err)
	}
	got, err = ReadJSONL(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].At != 1500*time.Microsecond {
		t.Fatalf("read %+v, want one event at 1.5ms", got)
	}
	var again bytes.Buffer
	if err := WriteJSONL(&again, got); err != nil {
		t.Fatal(err)
	}
	if again.String() != b.String() {
		t.Fatalf("re-encoding moved bytes:\n%s\nwant\n%s", again.String(), b.String())
	}

	// A blank line is skipped; a malformed one is refused by number.
	ok := `{"at_us":1,"ev":"PUSH","conn":1,"exec":1,"seq":0,"sbf":0,"site":0,"aux":0}`
	if got, err := ReadJSONL(strings.NewReader(ok + "\n\n" + ok + "\n")); err != nil || len(got) != 2 {
		t.Fatalf("blank line: got %d events, %v", len(got), err)
	}
	for _, c := range []struct{ in, want string }{
		{ok + "\n{", "line 2:"},
		{ok + "\n" + ok + "\nnot json", "line 3:"},
		{`{"at_us":1,"ev":"NOPE"}`, `line 1: unknown event kind "NOPE"`},
		{`{"at_us":1,"ev":"NONE"}`, `line 1: unknown event kind "NONE"`},
		{`{"at_us":1}`, `line 1: unknown event kind ""`},
		{`{"at_us":-1,"ev":"PUSH"}`, "line 1: at_us -1 out of range"},
		{`{"at_us":9223372036854776,"ev":"PUSH"}`, "line 1: at_us 9223372036854776 out of range"},
		{`{"at_us":1.5,"ev":"PUSH"}`, "line 1:"},
		{ok + ` {}`, "line 1:"},
		{"\n" + strings.Repeat("x", 70000), "line 2:"},
	} {
		if _, err := ReadJSONL(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadJSONL(%.40q) error = %v, want one containing %q", c.in, err, c.want)
		}
	}
}

// FuzzReadJSONL: no input panics the reader, and whatever it accepts
// re-encodes to a file it reads back equal, whose bytes are then a
// fixed point of read and write.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := WriteJSONL(&b, events); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace refused: %v\n%s", err, b.String())
		}
		if !slices.Equal(back, events) {
			t.Fatalf("read back %+v\nwant %+v", back, events)
		}
		var again bytes.Buffer
		if err := WriteJSONL(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), b.Bytes()) {
			t.Fatalf("not a fixed point:\n%s\nwant\n%s", again.String(), b.String())
		}
	})
}
