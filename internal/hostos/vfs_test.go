package hostos

import (
	"errors"
	"testing"
)

// A second Free of the same allocation must return the typed *FreeError
// and leave the LiveBytes ledger untouched — silently double-counting
// freedBytes would let LiveBytes go negative and mask real leaks.
func TestDoubleFreeGuard(t *testing.T) {
	_, m := testMachine()
	a := m.Alloc(4096)
	b := m.Alloc(512)
	if err := m.Free(a, 4096); err != nil {
		t.Fatalf("first free: %v", err)
	}
	live := m.LiveBytes()
	err := m.Free(a, 4096)
	var fe *FreeError
	if !errors.As(err, &fe) {
		t.Fatalf("double free returned %v, want *FreeError", err)
	}
	if m.LiveBytes() != live {
		t.Fatalf("double free moved LiveBytes %d → %d", live, m.LiveBytes())
	}
	// Wrong size on a live allocation is rejected the same way.
	if err := m.Free(b, 256); err == nil {
		t.Fatal("size-mismatched free succeeded")
	} else if !errors.As(err, &fe) {
		t.Fatalf("size mismatch returned %v, want *FreeError", err)
	}
	// A never-allocated address is rejected.
	if err := m.Free(0xdead0000, 64); !errors.As(err, &fe) {
		t.Fatalf("unknown-address free returned %v, want *FreeError", err)
	}
	if err := m.Free(b, 512); err != nil {
		t.Fatalf("valid free after rejections: %v", err)
	}
	if m.LiveBytes() != 0 {
		t.Fatalf("LiveBytes = %d after balanced alloc/free, want 0", m.LiveBytes())
	}
}

func TestVFSLocalFileRoundTrip(t *testing.T) {
	_, m := testMachine()
	v := NewVFS(m)

	var fd int32
	v.Open("/tmp/x", true, func(f int32, err error) {
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		fd = f
	})
	v.Write(fd, 0, []byte("hello"), func(n int, err error) {
		if err != nil || n != 5 {
			t.Fatalf("write = (%d, %v)", n, err)
		}
	})
	v.Write(fd, 3, []byte("LOWS"), func(n int, err error) {
		if err != nil || n != 4 {
			t.Fatalf("extend write = (%d, %v)", n, err)
		}
	})
	v.Read(fd, 0, 16, func(data []byte, err error) {
		if err != nil || string(data) != "helLOWS" {
			t.Fatalf("read = (%q, %v), want helLOWS", data, err)
		}
	})
	if err := v.CloseFD(fd); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := v.CloseFD(fd); !errors.Is(err, ErrBadFD) {
		t.Fatalf("second close = %v, want ErrBadFD", err)
	}
	v.Open("/tmp/missing", false, func(f int32, err error) {
		if !errors.Is(err, ErrNotExist) {
			t.Fatalf("open missing = (%d, %v), want ErrNotExist", f, err)
		}
	})
	if v.OpenFDs() != 0 {
		t.Fatalf("OpenFDs = %d, want 0", v.OpenFDs())
	}
}

func TestVFSMapUnmapBalancesLedger(t *testing.T) {
	_, m := testMachine()
	v := NewVFS(m)
	base := m.LiveBytes()
	a := v.Map(8192)
	if m.LiveBytes() != base+8192 {
		t.Fatalf("LiveBytes = %d after Map, want %d", m.LiveBytes(), base+8192)
	}
	if err := v.Unmap(a); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	if m.LiveBytes() != base {
		t.Fatalf("LiveBytes = %d after Unmap, want %d", m.LiveBytes(), base)
	}
	var fe *FreeError
	if err := v.Unmap(a); !errors.As(err, &fe) {
		t.Fatalf("double unmap = %v, want *FreeError", err)
	}
}
