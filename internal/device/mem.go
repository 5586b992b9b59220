package device

// memPageSize is the granule of device memory backing.
const memPageSize = 4096

// memPages is a device's local memory: size bytes backed by pages that
// are allocated on first write. A page never written reads as zero, so a
// device whose firmware stores nothing costs only the page table.
type memPages struct {
	size  int
	pages []*[memPageSize]byte
}

func newMemPages(size int) memPages {
	return memPages{size: size, pages: make([]*[memPageSize]byte, (size+memPageSize-1)/memPageSize)}
}

// inBounds reports whether [addr, addr+n) lies inside memory, without
// overflowing for any addr or n ≥ 0.
func (m *memPages) inBounds(addr uint64, n int) bool {
	return addr <= uint64(m.size) && uint64(n) <= uint64(m.size)-addr
}

// write copies data to addr, allocating the pages it touches.
func (m *memPages) write(addr int, data []byte) {
	for len(data) > 0 {
		pg, off := addr/memPageSize, addr%memPageSize
		if m.pages[pg] == nil {
			m.pages[pg] = new([memPageSize]byte)
		}
		n := copy(m.pages[pg][off:], data)
		data, addr = data[n:], addr+n
	}
}

// read fills out from addr; unallocated pages contribute zeros.
func (m *memPages) read(addr int, out []byte) {
	for len(out) > 0 {
		pg, off := addr/memPageSize, addr%memPageSize
		n := min(len(out), memPageSize-off)
		if p := m.pages[pg]; p != nil {
			copy(out[:n], p[off:])
		} else {
			clear(out[:n])
		}
		out, addr = out[n:], addr+n
	}
}

// clear drops every page: memory reads as zero again, as after power-on.
func (m *memPages) clear() { clear(m.pages) }
