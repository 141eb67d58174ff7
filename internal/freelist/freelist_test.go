package freelist

import "testing"

// TestListIsABoundedStack pins the contract the borrowers rely on: Get
// returns the buffer put back last, an empty list reports so, and a full
// list drops what is put back instead of growing.
func TestListIsABoundedStack(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported a buffer")
	}
	for i := range capacity + 3 {
		l.Put(i)
	}
	for want := capacity - 1; want >= 0; want-- {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = %d, %v; want %d, true", got, ok, want)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatalf("the list kept more than %d buffers", capacity)
	}
}
