package syscall

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hydra/internal/call"
	"hydra/internal/channel"
	"hydra/internal/device"
	"hydra/internal/obs"
	"hydra/internal/resource"
	"hydra/internal/ring"
	"hydra/internal/sim"
)

// issueCycles is the firmware cost of marshaling a request and posting it
// to the syscall ring, charged on the device before the channel's own
// transmit costs.
const issueCycles = 300

// ErrNoCredits is returned by Issue when the in-flight credit limit is
// reached and no resource.Node is attached to say so more precisely.
var ErrNoCredits = errors.New("syscall: no issue credits available")

// ErrDetached is returned by Issue before Attach connects an endpoint.
var ErrDetached = errors.New("syscall: issuer not attached to a channel")

// ErrSealed is returned by Issue after Checkpoint: the snapshot fixed the
// sequence counter, so new calls on this instance would reuse the ids its
// successor continues from — the host would dedup them as replays and
// silently drop their effects. New work belongs to the restored issuer.
var ErrSealed = errors.New("syscall: issuer sealed by checkpoint")

type pendingCall struct {
	op       Op
	mode     Mode
	issued   sim.Time
	k        func(*Completion)
	wire     []byte // retained while pending, for checkpoint + reissue
	restored bool   // entry rebuilt by Restore; completion routes to the default handler
}

// Issuer is the device side of the syscall subsystem: it marshals typed
// host syscalls, charges in-flight credits, tracks the pending table, and
// delivers completions to continuations. The pending table checkpoints
// and restores, so a hot-swapped Offcode's in-flight syscalls complete
// exactly once on the replacement instance.
type Issuer struct {
	dev  *device.Device
	eng  *sim.Engine
	end  *channel.Endpoint
	res  *resource.Node // credit quota; nil falls back to prof.Credits
	prof Profile
	tr   *obs.Shard

	nextSeq  uint64
	pending  map[uint64]pendingCall
	inFlight int
	sealed   bool
	defaultK func(*Completion)
	stats    Stats
	lats     []sim.Time // completion latencies, issue→done

	rep  call.Reply // decode target for onCompletion, reused per completion
	comp Completion // the Completion lent to continuations, reused per completion

	// outbox holds requests posted to the firmware but not yet written to
	// the channel, in Exec order; sendFn, bound once, writes the head when
	// its issue segment completes. A device failure drops the queued
	// segments, so each entry carries the failure generation it was
	// posted under and send skips entries from dead firmware.
	outbox ring.Deque[outEntry]
	sendFn func()
}

// NewIssuer builds an issuer for the device. res, when non-nil, is
// charged QuotaSyscalls(1) per in-flight call — the per-Offcode credit
// quota; a nil res falls back to the profile's Credits counter.
func NewIssuer(dev *device.Device, prof Profile, res *resource.Node) *Issuer {
	eng := dev.Engine()
	i := &Issuer{
		dev:     dev,
		eng:     eng,
		res:     res,
		prof:    prof.withDefaults(),
		tr:      obs.ForCat(eng, obs.CatSyscall),
		nextSeq: 1,
		pending: make(map[uint64]pendingCall),
	}
	i.sendFn = i.send
	return i
}

// Attach connects the issuer to its device-side channel endpoint and
// installs the completion handler. Calls restored by a preceding Restore
// are re-sent here (the host service dedups re-executions), so an
// in-flight syscall survives the swap no matter whether its original
// request, its completion, or neither was in the air.
func (i *Issuer) Attach(end *channel.Endpoint) {
	i.end = end
	end.InstallCallHandler(i.onCompletion)
	for id, p := range i.pending {
		if !p.restored || p.wire == nil {
			continue
		}
		i.stats.Reissued++
		if i.tr.On() {
			i.tr.Instant(obs.CatSyscall, trReissue, int64(idSeq(id)))
		}
		i.post(p.wire, false)
	}
}

// SetDefaultHandler installs the continuation for completions of restored
// in-flight calls, whose original Go closures did not survive the swap.
func (i *Issuer) SetDefaultHandler(k func(*Completion)) { i.defaultK = k }

// InFlight reports calls issued but not yet completed.
func (i *Issuer) InFlight() int { return i.inFlight }

// Stats returns the device-side accounting.
func (i *Issuer) Stats() Stats { return i.stats }

// Latencies returns the issue→completion spans recorded so far.
func (i *Issuer) Latencies() []sim.Time { return i.lats }

func (i *Issuer) chargeCredit() error {
	if i.res != nil {
		if err := i.res.Charge(QuotaSyscalls, 1); err != nil {
			return err
		}
		i.inFlight++
		return nil
	}
	if i.inFlight >= i.prof.Credits {
		return ErrNoCredits
	}
	i.inFlight++
	return nil
}

func (i *Issuer) releaseCredit() {
	i.inFlight--
	if i.res != nil {
		i.res.Release(QuotaSyscalls, 1)
	}
}

// Issue marshals one syscall and posts it to the host. k receives the
// completion (nil k is allowed for ModeFireForget). The credit is held
// until completion — or, for fire-and-forget, until the request is handed
// to the channel.
func (i *Issuer) Issue(op Op, mode Mode, args []any, k func(*Completion)) error {
	if i.end == nil {
		return ErrDetached
	}
	if i.sealed {
		return ErrSealed
	}
	if err := i.chargeCredit(); err != nil {
		i.stats.CreditDenied++
		return err
	}
	id := packID(i.nextSeq, mode)
	i.nextSeq++
	wire, err := call.Marshal(&call.Call{Iface: IfaceGUID, Method: op.String(), Args: args, ReturnDesc: id})
	if err != nil {
		i.releaseCredit()
		return err
	}
	i.stats.Issued++
	if i.tr.On() {
		i.tr.Instant(obs.CatSyscall, trIssue, int64(idSeq(id)))
	}
	if mode == ModeFireForget {
		i.stats.FireForget++
		i.post(wire, true)
		return nil
	}
	i.pending[id] = pendingCall{op: op, mode: mode, issued: i.eng.Now(), k: k, wire: wire}
	i.post(wire, false)
	return nil
}

// outEntry is one request waiting in the outbox for its issue segment.
type outEntry struct {
	wire []byte
	gen  uint64
	ff   bool // fire-and-forget: the credit is released once written
}

// devGen counts the device's failures; it changes exactly when queued
// firmware work is dropped.
func (i *Issuer) devGen() uint64 { return i.dev.Crashes() + i.dev.Hangs() }

// post charges the firmware issue cost and then writes wire to the
// channel. Work posted to an unhealthy device is dropped by Exec, so it
// gets no outbox entry.
func (i *Issuer) post(wire []byte, ff bool) {
	if i.dev.Healthy() {
		i.outbox.PushBack(outEntry{wire: wire, gen: i.devGen(), ff: ff})
	}
	i.dev.Exec(issueCycles, i.sendFn)
}

// send is every issue segment's continuation: it writes the oldest
// request still owned by live firmware.
func (i *Issuer) send() {
	gen := i.devGen()
	for {
		e, ok := i.outbox.PopFront()
		if !ok {
			return
		}
		if e.gen != gen {
			continue // posted by firmware that died before its segment ran
		}
		_ = i.end.Write(e.wire)
		if e.ff {
			i.releaseCredit()
		}
		return
	}
}

// onCompletion handles a reply payload arriving on the device endpoint.
func (i *Issuer) onCompletion(data []byte) {
	rep := &i.rep
	if err := call.DecodeReply(data, rep); err != nil {
		return // not a completion (e.g. unrelated traffic on a shared channel)
	}
	id := rep.ReturnDesc
	p, ok := i.pending[id]
	if !ok {
		// Already completed once — a duplicate from reissue-after-restore.
		i.stats.Orphaned++
		if i.tr.On() {
			i.tr.Instant(obs.CatSyscall, trOrphan, int64(idSeq(id)))
		}
		return
	}
	delete(i.pending, id)
	i.releaseCredit()
	now := i.eng.Now()
	c := &i.comp
	*c = Completion{ID: id, Op: p.op, Results: rep.Results, Err: rep.Err, Issued: p.issued, Done: now}
	i.stats.Completed++
	if rep.Err != "" {
		i.stats.Errors++
	}
	i.lats = append(i.lats, c.Latency())
	if i.tr.On() {
		i.tr.Instant(obs.CatSyscall, trComplete, int64(idSeq(id)))
		// End-to-end per-call span on the device shard: issue→complete.
		i.tr.Complete(obs.CatSyscall, trCallSpan+p.op.String(), p.issued, now-p.issued, int64(idSeq(id)))
	}
	switch {
	case p.k != nil:
		p.k(c)
	case p.restored && i.defaultK != nil:
		i.defaultK(c)
	}
}

// --- checkpoint/restore of in-flight syscalls ---

const ckptVersion = 1

// Checkpoint serializes the pending table: next sequence number plus, for
// every in-flight call, its id, issue time, and marshaled request. An
// Offcode owning an issuer folds these bytes into its own Checkpoint.
// Checkpointing seals the issuer — further Issues fail with ErrSealed,
// because the successor restored from this snapshot continues the sequence
// space (see ErrSealed).
func (i *Issuer) Checkpoint() []byte {
	i.sealed = true
	b := []byte{ckptVersion}
	b = binary.LittleEndian.AppendUint64(b, i.nextSeq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(i.pending)))
	// Deterministic order: ids ascend by sequence.
	ids := make([]uint64, 0, len(i.pending))
	for id := range i.pending {
		ids = append(ids, id)
	}
	for x := 1; x < len(ids); x++ {
		for y := x; y > 0 && idSeq(ids[y]) < idSeq(ids[y-1]); y-- {
			ids[y], ids[y-1] = ids[y-1], ids[y]
		}
	}
	for _, id := range ids {
		p := i.pending[id]
		b = binary.LittleEndian.AppendUint64(b, id)
		b = binary.LittleEndian.AppendUint64(b, uint64(p.issued))
		b = append(b, byte(p.op))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.wire)))
		b = append(b, p.wire...)
	}
	return b
}

// Restore rebuilds the pending table on a fresh issuer. Continuation
// closures cannot cross a swap, so restored calls complete through the
// default handler; credits are re-charged so the quota stays truthful.
func (i *Issuer) Restore(b []byte) error {
	if len(b) < 13 || b[0] != ckptVersion {
		return fmt.Errorf("syscall: bad checkpoint (len %d)", len(b))
	}
	i.nextSeq = binary.LittleEndian.Uint64(b[1:])
	n := int(binary.LittleEndian.Uint32(b[9:]))
	rest := b[13:]
	for j := 0; j < n; j++ {
		if len(rest) < 21 {
			return fmt.Errorf("syscall: truncated checkpoint entry %d", j)
		}
		id := binary.LittleEndian.Uint64(rest)
		issued := sim.Time(binary.LittleEndian.Uint64(rest[8:]))
		op := Op(rest[16:][0])
		wl := int(binary.LittleEndian.Uint32(rest[17:]))
		rest = rest[21:]
		if len(rest) < wl {
			return fmt.Errorf("syscall: truncated checkpoint wire %d", j)
		}
		wire := append([]byte(nil), rest[:wl]...)
		rest = rest[wl:]
		if err := i.chargeCredit(); err != nil {
			return fmt.Errorf("syscall: restore over credit limit: %w", err)
		}
		i.pending[id] = pendingCall{op: op, mode: idMode(id), issued: issued, wire: wire, restored: true}
	}
	return nil
}

// --- typed convenience wrappers ---

// Open resolves a host path (create makes missing files).
func (i *Issuer) Open(path string, create bool, mode Mode, k func(fd int64, err error)) error {
	return i.Issue(OpOpen, mode, []any{path, create}, func(c *Completion) {
		if err := c.Error(); err != nil {
			k(-1, err)
			return
		}
		fd, _ := c.Results[0].(int64)
		k(fd, nil)
	})
}

// Read reads count bytes at offset from a host descriptor.
func (i *Issuer) Read(fd, offset, count int64, mode Mode, k func(data []byte, err error)) error {
	return i.Issue(OpRead, mode, []any{fd, offset, count}, func(c *Completion) {
		if err := c.Error(); err != nil {
			k(nil, err)
			return
		}
		data, _ := c.Results[0].([]byte)
		k(data, nil)
	})
}

// Write stores data at offset through a host descriptor.
func (i *Issuer) Write(fd, offset int64, data []byte, mode Mode, k func(n int64, err error)) error {
	return i.Issue(OpWrite, mode, []any{fd, offset, data}, func(c *Completion) {
		if err := c.Error(); err != nil {
			k(0, err)
			return
		}
		n, _ := c.Results[0].(int64)
		k(n, nil)
	})
}

// CloseFD releases a host descriptor.
func (i *Issuer) CloseFD(fd int64, mode Mode, k func(err error)) error {
	return i.Issue(OpClose, mode, []any{fd}, func(c *Completion) { k(c.Error()) })
}

// Send accounts n bytes toward dst on the host net surface.
func (i *Issuer) Send(dst string, n int64, mode Mode, k func(err error)) error {
	done := func(c *Completion) { k(c.Error()) }
	if k == nil {
		done = nil
	}
	return i.Issue(OpSend, mode, []any{dst, n}, done)
}

// MapMem asks the host to pin a buffer of size bytes for the device.
func (i *Issuer) MapMem(size int64, mode Mode, k func(addr uint64, err error)) error {
	return i.Issue(OpMap, mode, []any{size}, func(c *Completion) {
		if err := c.Error(); err != nil {
			k(0, err)
			return
		}
		addr, _ := c.Results[0].(uint64)
		k(addr, nil)
	})
}

// UnmapMem releases a MapMem buffer.
func (i *Issuer) UnmapMem(addr uint64, mode Mode, k func(err error)) error {
	return i.Issue(OpUnmap, mode, []any{addr}, func(c *Completion) { k(c.Error()) })
}

// Log sends one log line to the host (typically fire-and-forget).
func (i *Issuer) Log(msg string, mode Mode) error {
	return i.Issue(OpLog, mode, []any{msg}, nil)
}

// Clock reads the host clock.
func (i *Issuer) Clock(mode Mode, k func(now sim.Time, err error)) error {
	return i.Issue(OpClock, mode, nil, func(c *Completion) {
		if err := c.Error(); err != nil {
			k(0, err)
			return
		}
		now, _ := c.Results[0].(int64)
		k(sim.Time(now), nil)
	})
}
