package mptcp

import (
	"testing"
	"unsafe"
)

// TestStructSizeClasses pins Subflow and Conn inside the allocator size
// classes they occupy: Subflow at the top of the 352 B class, Conn in
// the 704 B class. Fleet bytes_per_conn counts size classes, not
// fields: one more word on a struct at its class's edge moves every
// connection up a class (Conn at 776 B took the 896 B class), so growth
// here must be a deliberate choice.
func TestStructSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(Subflow{}); got > 352 {
		t.Errorf("Subflow is %d B, above its 352 B size class", got)
	}
	if got := unsafe.Sizeof(Conn{}); got > 704 {
		t.Errorf("Conn is %d B, above its 704 B size class", got)
	}
}
