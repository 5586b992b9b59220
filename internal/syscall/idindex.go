package syscall

// idIndex maps call ids to int32 slots. It replaces the Go maps the
// issuer and service used to key per-call state by id: open addressing
// with linear probing over one flat array, backward-shift deletion so a
// steady insert/delete stream leaves no tombstones and never rehashes,
// and doubling at half load. Every 64-bit id is a valid key, 0 included
// — service ids arrive from the wire — so occupancy is a separate flag
// rather than a reserved key.
type idIndex struct {
	slots []idSlot
	n     int
	shift uint // 64 - log2(len(slots)): home() keeps the hash's top bits
}

type idSlot struct {
	id   uint64
	val  int32
	used bool
}

const idIndexMinSize = 16

// home is the id's preferred slot: a Fibonacci hash, whose top bits
// spread sequential ids (and the mode bits packID sets) evenly.
func (x *idIndex) home(id uint64) int {
	return int((id * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns the slot holding id and true, or the empty slot where id
// would go and false. The table is never full, so the probe ends.
func (x *idIndex) find(id uint64) (int, bool) {
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if !s.used {
			return i, false
		}
		if s.id == id {
			return i, true
		}
	}
}

// count reports the number of ids present.
func (x *idIndex) count() int { return x.n }

// get returns id's value.
func (x *idIndex) get(id uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	i, ok := x.find(id)
	return x.slots[i].val, ok
}

// put sets id's value, inserting id if absent.
func (x *idIndex) put(id uint64, v int32) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	i, ok := x.find(id)
	if !ok {
		x.n++
	}
	x.slots[i] = idSlot{id: id, val: v, used: true}
}

// del removes id and returns the value it had. The entries after it in
// the probe run shift back over the hole when that brings them no
// further from home, so every remaining id stays reachable from its home
// slot without tombstones.
func (x *idIndex) del(id uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	hole, ok := x.find(id)
	if !ok {
		return 0, false
	}
	v := x.slots[hole].val
	x.n--
	mask := len(x.slots) - 1
	for j := (hole + 1) & mask; x.slots[j].used; j = (j + 1) & mask {
		// Move j's entry into the hole if its probe distance reaches it.
		if (j-x.home(x.slots[j].id))&mask >= (j-hole)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = idSlot{}
	return v, true
}

// grow doubles the table (or allocates the first one) and reinserts.
func (x *idIndex) grow() {
	old := x.slots
	size := max(2*len(old), idIndexMinSize)
	x.slots = make([]idSlot, size)
	x.shift = 64
	for s := size; s > 1; s >>= 1 {
		x.shift--
	}
	for _, s := range old {
		if s.used {
			i, _ := x.find(s.id)
			x.slots[i] = s
		}
	}
}
