package mptcp

import (
	"testing"
	"unsafe"

	"progmp/internal/runtime"
)

// TestStructSizeClasses pins the structs every connection allocates
// inside the allocator size classes they occupy: Subflow at the top of
// the 352 B class, Conn and its runtime.Arena in the 640 B class. Fleet
// bytes_per_conn counts size classes, not fields: one more word on a
// struct at its class's edge moves every connection up a class (Conn at
// 776 B took the 896 B class), so growth here must be a deliberate
// choice.
func TestStructSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(Subflow{}); got > 352 {
		t.Errorf("Subflow is %d B, above its 352 B size class", got)
	}
	if got := unsafe.Sizeof(Conn{}); got > 640 {
		t.Errorf("Conn is %d B, above its 640 B size class", got)
	}
	if got := unsafe.Sizeof(runtime.Arena{}); got > 640 {
		t.Errorf("runtime.Arena is %d B, above its 640 B size class", got)
	}
}
