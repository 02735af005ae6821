package mptcp

import (
	goruntime "runtime"
	"testing"
	"unsafe"

	"progmp/internal/runtime"
)

// mallocHeader is what the allocator adds to an object that holds
// pointers and is larger than 512 B (Go 1.22 and later): such an object
// fits a size class only with 8 B to spare.
const mallocHeader = 8

// TestStructSizeClasses pins the structs every connection allocates
// inside the allocator size classes they occupy: Subflow at the top of
// the 352 B class, Conn in the 640 B class less the malloc header, and
// its runtime.Arena in the 512 B class, the largest that takes no
// header. Fleet bytes_per_conn counts size classes, not fields: one
// more word on a struct at its class's edge moves every connection up a
// class (Conn at 640 B took the 704 B class, an Arena above 512 B the
// 576 B class), so growth here must be a deliberate choice.
func TestStructSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(Subflow{}); got > 352 {
		t.Errorf("Subflow is %d B, above its 352 B size class", got)
	}
	if got := unsafe.Sizeof(Conn{}); got > 640-mallocHeader {
		t.Errorf("Conn is %d B, above its 640 B size class less the %d B malloc header", got, mallocHeader)
	}
	if got := unsafe.Sizeof(runtime.Arena{}); got > 512 {
		t.Errorf("runtime.Arena is %d B, above its 512 B size class", got)
	}
	// What the allocator charges, header included: the bound above is
	// only as good as the header it assumes.
	if got := heapBytesPerObject(t, func() any { return new(Conn) }); got != 640 {
		t.Errorf("one Conn costs %d B of heap, want its 640 B size class", got)
	}
	if got := heapBytesPerObject(t, func() any { return new(runtime.Arena) }); got != 512 {
		t.Errorf("one runtime.Arena costs %d B of heap, want its 512 B size class", got)
	}
}

// heapBytesPerObject reports the heap bytes one call of alloc costs,
// from MemStats.TotalAlloc over many calls whose results stay live. A
// stray allocation elsewhere in the process (the runtime's own, the
// test harness's) would blur the count, so it takes the first window
// whose malloc count is exactly the number of calls.
func heapBytesPerObject(t *testing.T, alloc func() any) uint64 {
	t.Helper()
	const n = 1024
	keep := make([]any, n)
	for trial := 0; trial < 10; trial++ {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = alloc()
		}
		goruntime.ReadMemStats(&after)
		if after.Mallocs-before.Mallocs == n {
			return (after.TotalAlloc - before.TotalAlloc) / n
		}
	}
	t.Fatal("no allocation window free of stray mallocs in 10 trials")
	return 0
}
