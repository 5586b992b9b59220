package syscall

import (
	"fmt"

	"hydra/internal/call"
	"hydra/internal/channel"
	"hydra/internal/hostos"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// Per-op base kernel cycles charged by the dispatcher on its worker task,
// on top of the channel's amortized interrupt/delivery cost. Reads and
// writes additionally pay the machine's modeled copy cost for the payload.
var opBaseCycles = [numOps]uint64{
	OpOpen:  1200,
	OpRead:  900,
	OpWrite: 900,
	OpClose: 400,
	OpSend:  700,
	OpMap:   1500,
	OpUnmap: 800,
	OpLog:   250,
	OpClock: 120,
}

// replyCacheSize bounds the at-most-once reply cache. It only needs to
// cover the in-flight window (the credit limit) with slack for a swap's
// replayed traffic, not the whole run.
const replyCacheSize = 4096

// idExecuting marks an id in Service.calls that is in the dispatcher;
// any other value is the slot of the id's cached reply.
const idExecuting int32 = -1

// Service is the host side of the syscall subsystem: it decodes requests
// off the channel, lands them in a hostos.WorkerPool dispatcher, executes
// them against the VFS with per-op kernel cycle costs, and writes
// completions back (the channel batches those too). A bounded reply cache
// makes execution at-most-once: a request id seen before is answered from
// the cache, so reissue-after-restore never double-executes.
type Service struct {
	m    *hostos.Machine
	eng  *sim.Engine
	vfs  *hostos.VFS
	pool *hostos.WorkerPool
	end  *channel.Endpoint
	tr   *obs.Shard

	// calls maps every id the service knows to idExecuting while it is
	// in the dispatcher, then to its slot in the reply cache. The cache
	// fills up to replyCacheSize slots and then evicts FIFO in finish
	// order: cacheNext is the next slot to fill, and to evict once full.
	// Each slot owns its wire buffer and marshals into it in place.
	calls     idIndex
	cache     []cachedReply
	cacheNext int
	stats     Stats

	req     call.Call  // decode target for onRequest, reused per request
	reqFree []*request // recycled requests; dispatch runs alloc-free once warm
	result1 [1]any     // backing for one-value result vectors (see one)
}

// cachedReply is one reply-cache slot.
type cachedReply struct {
	id   uint64
	wire []byte
}

// request is one dispatched syscall on its way through the worker pool.
// Its continuations are bound once when it is minted, and it returns to
// the service's free list when it finishes, so a steady stream of
// requests allocates no closures.
type request struct {
	s     *Service
	id    uint64
	op    Op
	args  []any // the request's own copy of the decoded arguments
	start sim.Time
	done  func() // the pool worker's completion, held while the request runs

	runFn    func(*hostos.Task, func())
	execFn   func()
	resultFn func([]any, error)
}

func (s *Service) newRequest() *request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	r := &request{s: s}
	r.runFn, r.execFn, r.resultFn = r.run, r.exec, r.result
	return r
}

// run starts the request on a pool worker: the dispatcher's kernel entry.
func (r *request) run(t *hostos.Task, done func()) {
	r.done = done
	r.start = r.s.eng.Now()
	t.Syscall(r.s.cycles(r.op, r.args), r.execFn)
}

func (r *request) exec() { r.s.execute(r.op, r.args, r.resultFn) }

// result completes the request: it caches and sends the reply, recycles
// the request, and only then frees the worker, which may start the next
// queued request at once.
func (r *request) result(results []any, err error) {
	s := r.s
	rep := call.Reply{ReturnDesc: r.id, Results: results}
	if err != nil {
		rep.Err = err.Error()
	}
	s.stats.Executed++
	if s.tr.On() {
		s.tr.Complete(obs.CatSyscall, trExec+idMode(r.id).String(), r.start, s.eng.Now()-r.start, int64(idSeq(r.id)))
	}
	s.finish(r.id, &rep)
	s.result1[0] = nil // marshaled: do not pin the value
	done := r.done
	clear(r.args)
	r.args, r.done = r.args[:0], nil
	s.reqFree = append(s.reqFree, r)
	done()
}

// NewService builds a dispatcher over the VFS's machine with the
// profile's worker-pool width.
func NewService(vfs *hostos.VFS, prof Profile) *Service {
	prof = prof.withDefaults()
	m := vfs.Machine()
	return &Service{
		m:    m,
		eng:  m.Engine(),
		vfs:  vfs,
		pool: hostos.NewWorkerPool(m, "syscalld", prof.Workers),
		tr:   obs.ForCat(m.Engine(), obs.CatSyscall),
	}
}

// Attach connects the service to the host-side endpoint of the syscall
// channel and starts consuming requests.
func (s *Service) Attach(end *channel.Endpoint) {
	s.end = end
	end.InstallCallHandler(s.onRequest)
}

// VFS returns the surface this service executes against.
func (s *Service) VFS() *hostos.VFS { return s.vfs }

// Pool exposes the dispatcher pool for queue-depth readouts.
func (s *Service) Pool() *hostos.WorkerPool { return s.pool }

// Stats returns the host-side accounting.
func (s *Service) Stats() Stats { return s.stats }

func (s *Service) onRequest(data []byte) {
	c := &s.req
	if err := call.DecodeCall(data, c); err != nil || c.Iface != IfaceGUID {
		return // not a syscall request; ignore unrelated traffic
	}
	op, ok := OpByName(c.Method)
	if !ok {
		s.reply(c.ReturnDesc, &call.Reply{ReturnDesc: c.ReturnDesc, Err: "unknown syscall " + c.Method})
		return
	}
	id := c.ReturnDesc
	s.stats.Dispatched++
	if s.tr.On() {
		s.tr.Instant(obs.CatSyscall, trDispatch, int64(idSeq(id)))
	}
	if v, ok := s.calls.get(id); ok {
		// A duplicate. Of a finished call (reissue after a swap): answer
		// from the cache without re-executing, preserving exactly-once
		// side effects. Of a call still in the dispatcher: the original's
		// reply is on its way, so this copy is dropped outright.
		s.stats.Deduped++
		if s.tr.On() {
			s.tr.Instant(obs.CatSyscall, trDedup, int64(idSeq(id)))
		}
		if v != idExecuting && idMode(id) != ModeFireForget {
			s.stats.RepliesSent++
			_ = s.end.Write(s.cache[v].wire)
		}
		return
	}
	s.calls.put(id, idExecuting)
	r := s.newRequest()
	r.id, r.op = id, op
	r.args = append(r.args, c.Args...)
	s.pool.Submit(r.runFn)
}

// cycles is the kernel cost of servicing op: base plus the copy cost of
// any payload moved between host and device buffers.
func (s *Service) cycles(op Op, args []any) uint64 {
	cy := opBaseCycles[op]
	switch op {
	case OpRead:
		if len(args) == 3 {
			if n, ok := args[2].(int64); ok {
				cy += s.m.CopyCycles(int(n))
			}
		}
	case OpWrite:
		if len(args) == 3 {
			if data, ok := args[2].([]byte); ok {
				cy += s.m.CopyCycles(len(data))
			}
		}
	case OpSend:
		if len(args) == 2 {
			if n, ok := args[1].(int64); ok {
				cy += s.m.CopyCycles(int(n))
			}
		}
	}
	return cy
}

// finish caches the reply for at-most-once dedup and sends the completion
// unless the call was fire-and-forget.
func (s *Service) finish(id uint64, rep *call.Reply) {
	slot := s.cacheNext
	if slot == len(s.cache) {
		s.cache = append(s.cache, cachedReply{})
	} else {
		s.calls.del(s.cache[slot].id) // evict the oldest reply
	}
	e := &s.cache[slot]
	wire, err := call.AppendReply(e.wire[:0], rep)
	if err != nil {
		wire, _ = call.AppendReply(e.wire[:0], &call.Reply{ReturnDesc: id, Err: "syscall: unmarshalable results"})
	}
	e.id, e.wire = id, wire
	s.calls.put(id, int32(slot))
	s.cacheNext = (slot + 1) % replyCacheSize
	if idMode(id) != ModeFireForget {
		s.stats.RepliesSent++
		_ = s.end.Write(wire)
	}
}

func (s *Service) reply(id uint64, rep *call.Reply) {
	if idMode(id) == ModeFireForget {
		return
	}
	wire, err := call.MarshalReply(rep)
	if err != nil {
		return
	}
	s.stats.RepliesSent++
	_ = s.end.Write(wire)
}

// badArgs is the uniform decode failure for a malformed argument vector.
func badArgs(op Op) error { return fmt.Errorf("syscall %s: bad argument vector", op) }

// execute runs one decoded syscall against the VFS. CPS because remote
// mounts (NFS-backed paths) complete asynchronously.
func (s *Service) execute(op Op, args []any, k func(results []any, err error)) {
	switch op {
	case OpOpen:
		if len(args) != 2 {
			k(nil, badArgs(op))
			return
		}
		path, ok1 := args[0].(string)
		create, ok2 := args[1].(bool)
		if !ok1 || !ok2 {
			k(nil, badArgs(op))
			return
		}
		s.vfs.Open(path, create, func(fd int32, err error) {
			if err != nil {
				k(nil, err)
				return
			}
			k(s.one(int64(fd)), nil)
		})
	case OpRead:
		fd, off, count, ok := threeInts(args)
		if !ok {
			k(nil, badArgs(op))
			return
		}
		s.vfs.Read(int32(fd), off, int(count), func(data []byte, err error) {
			if err != nil {
				k(nil, err)
				return
			}
			k(s.one(data), nil)
		})
	case OpWrite:
		if len(args) != 3 {
			k(nil, badArgs(op))
			return
		}
		fd, ok1 := args[0].(int64)
		off, ok2 := args[1].(int64)
		data, ok3 := args[2].([]byte)
		if !ok1 || !ok2 || !ok3 {
			k(nil, badArgs(op))
			return
		}
		s.vfs.Write(int32(fd), off, data, func(n int, err error) {
			if err != nil {
				k(nil, err)
				return
			}
			k(s.one(int64(n)), nil)
		})
	case OpClose:
		if len(args) != 1 {
			k(nil, badArgs(op))
			return
		}
		fd, ok := args[0].(int64)
		if !ok {
			k(nil, badArgs(op))
			return
		}
		if err := s.vfs.CloseFD(int32(fd)); err != nil {
			k(nil, err)
			return
		}
		k(nil, nil)
	case OpSend:
		if len(args) != 2 {
			k(nil, badArgs(op))
			return
		}
		dst, ok1 := args[0].(string)
		n, ok2 := args[1].(int64)
		if !ok1 || !ok2 {
			k(nil, badArgs(op))
			return
		}
		s.vfs.NetSend(dst, int(n))
		k(nil, nil)
	case OpMap:
		if len(args) != 1 {
			k(nil, badArgs(op))
			return
		}
		size, ok := args[0].(int64)
		if !ok || size < 0 {
			k(nil, badArgs(op))
			return
		}
		k(s.one(s.vfs.Map(int(size))), nil)
	case OpUnmap:
		if len(args) != 1 {
			k(nil, badArgs(op))
			return
		}
		addr, ok := args[0].(uint64)
		if !ok {
			k(nil, badArgs(op))
			return
		}
		if err := s.vfs.Unmap(addr); err != nil {
			k(nil, err)
			return
		}
		k(nil, nil)
	case OpLog:
		if len(args) != 1 {
			k(nil, badArgs(op))
			return
		}
		if _, ok := args[0].(string); !ok {
			k(nil, badArgs(op))
			return
		}
		s.vfs.Log()
		k(nil, nil)
	case OpClock:
		k(s.one(int64(s.eng.Now())), nil)
	default:
		k(nil, fmt.Errorf("syscall: op %d not implemented", op))
	}
}

// one returns the one-value result vector [v] in service-owned storage.
// Every execute continuation marshals its results before returning, so
// the vector is free again by the time the next call needs it.
func (s *Service) one(v any) []any {
	s.result1[0] = v
	return s.result1[:]
}

func threeInts(args []any) (a, b, c int64, ok bool) {
	if len(args) != 3 {
		return 0, 0, 0, false
	}
	a, ok1 := args[0].(int64)
	b, ok2 := args[1].(int64)
	c, ok3 := args[2].(int64)
	return a, b, c, ok1 && ok2 && ok3
}
