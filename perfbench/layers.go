package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"hydra/internal/bus"
	"hydra/internal/cache"
	"hydra/internal/call"
	"hydra/internal/channel"
	"hydra/internal/cluster"
	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/flowtable"
	"hydra/internal/guid"
	"hydra/internal/hostos"
	"hydra/internal/loadgen"
	"hydra/internal/objfile"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/syscall"
	"hydra/internal/testbed"
	"hydra/internal/tivopc"
)

// Layer drivers time calls into one module's public functions from
// outside. Each driver's prepare(n) builds its state untimed and returns
// a closure that performs about n operations and reports how many it
// did; opCost calibrates n to the target duration, warms up, then takes
// the median over several repetitions.

// sink keeps driver results observable so the compiler cannot drop the
// measured calls.
var sink any

type opStats struct{ ns, allocs float64 }

func opCost(target time.Duration, reps int, prepare func(n int) func() int) opStats {
	timed := func(n int) (time.Duration, int, uint64) {
		run := prepare(n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		ops := run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return d, ops, m1.Mallocs - m0.Mallocs
	}
	// Calibrate (this also warms caches and finishes lazy set-up).
	n := 1
	for {
		d, _, _ := timed(n)
		if d >= target/4 || n >= 1<<22 {
			if d > 0 {
				n = int(float64(n) * float64(target) / float64(d))
			}
			break
		}
		n *= 4
	}
	n = min(max(n, 1), 1<<22)
	var ns, allocs []float64
	for i := 0; i < reps; i++ {
		d, ops, m := timed(n)
		ops = max(ops, 1)
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(m)/float64(ops))
	}
	return opStats{ns: median(ns), allocs: median(allocs)}
}

// layerDrivers measures every per-layer driver metric. buildSpec is the
// workload's testbed spec; keys come from a loadgen stream seeded by seed.
func layerDrivers(r *runner, seed int64, target time.Duration, buildSpec testbed.Spec) map[string]float64 {
	m := map[string]float64{}
	const reps = 5
	check := func(what string, err error) {
		if err != nil {
			r.fail(fmt.Errorf("layer driver %s: %w", what, err))
		}
	}

	// cache: a sequential sweep over a working set twice (misses every
	// line under LRU) or half (hits every line after warm-up) the L2.
	l2 := cache.PentiumIVL2()
	for _, c := range []struct {
		name string
		ws   int
	}{{"cache.touch_miss_ns", 2 * l2.SizeBytes}, {"cache.touch_hit_ns", l2.SizeBytes / 2}} {
		c := c
		m[c.name] = opCost(target, reps, func(n int) func() int {
			l := cache.New(l2)
			const page = 4096
			l.AccessRange(cache.User, 0, c.ws)
			return func() int {
				lines := 0
				for addr := 0; lines < n; addr = (addr + page) % c.ws {
					l.AccessRange(cache.User, uint64(addr), page)
					lines += page / l2.LineBytes
				}
				return lines
			}
		}).ns
	}

	// sim: a self-rescheduling event chain on one engine.
	ev := opCost(target, reps, func(n int) func() int {
		eng := sim.NewEngine(seed)
		return func() int {
			fired := 0
			var f func()
			f = func() {
				if fired++; fired < n {
					eng.Schedule(sim.Microsecond, f)
				}
			}
			eng.Schedule(sim.Microsecond, f)
			eng.RunAll()
			return fired
		}
	})
	m["sim.event_ns"], m["sim.event_allocs"] = ev.ns, ev.allocs

	// sim: conservative windows over 4 engines, one ticker event per
	// engine per window.
	for _, w := range []struct {
		name    string
		workers int
	}{{"sim.window_ns", 1}, {"sim.window_ns_w2", 2}} {
		w := w
		m[w.name] = opCost(target, reps, func(n int) func() int {
			const look = 10 * sim.Microsecond
			engines := make([]*sim.Engine, 4)
			for i := range engines {
				engines[i] = sim.NewEngine(seed + int64(i))
				engines[i].Tick(look, 0, func() {})
			}
			g, err := sim.NewGroup(engines, look)
			check("sim.window", err)
			return func() int {
				if g != nil {
					g.Run(sim.Time(n)*look, w.workers)
				}
				return n
			}
		}).ns
	}

	// channel: host→device send→deliver through a testbed profile, 32
	// writes per engine drain; batch32 aggregates each drain into one
	// transaction.
	batch1 := channel.DefaultConfig()
	batch32 := channel.DefaultConfig()
	batch32.Batch = 32
	for _, c := range []struct {
		profile string
		cfg     channel.Config
	}{{"batch1", batch1}, {"batch32", batch32}} {
		c := c
		st := opCost(target, reps, func(n int) func() int {
			sys, err := testbed.New(seed, testbed.Spec{
				Hosts:    []testbed.HostSpec{{Name: "h0", Devices: []device.Config{device.XScaleNIC("nic0")}}},
				Channels: []testbed.ChannelSpec{{Name: c.profile, Config: c.cfg}},
			})
			check("channel", err)
			if err != nil {
				return func() int { return 1 }
			}
			_, app, oc, err := sys.OpenChannel(c.profile, "h0", "nic0")
			check("channel", err)
			delivered := 0
			oc.InstallCallHandler(func([]byte) { delivered++ })
			payload := make([]byte, 64)
			return func() int {
				for sent := 0; sent < n; {
					for j := 0; j < 32 && sent < n; j++ {
						check("channel write", app.Write(payload))
						sent++
					}
					sys.Eng.RunAll()
				}
				if delivered != n {
					check("channel", fmt.Errorf("%s delivered %d of %d", c.profile, delivered, n))
				}
				return delivered
			}
		})
		m["channel.msg_ns_"+c.profile] = st.ns
		if c.profile == "batch1" {
			m["channel.msg_allocs_batch1"] = st.allocs
		}
	}

	// bus: one 8-segment gather DMA per op.
	m["bus.gather_ns"] = opCost(target, reps, func(n int) func() int {
		eng := sim.NewEngine(seed)
		b := bus.New(eng, bus.DefaultConfig())
		sizes := []int{512, 512, 512, 512, 512, 512, 512, 512}
		return func() int {
			done := 0
			for i := 0; i < n; i++ {
				b.TransferGather("host", "nic", sizes, func() { done++ })
				if i%64 == 63 {
					eng.RunAll()
				}
			}
			eng.RunAll()
			return done
		}
	}).ns

	// hostos: run-queue dispatch of a task's successive work items.
	m["hostos.dispatch_ns"] = opCost(target, reps, func(n int) func() int {
		eng := sim.NewEngine(seed)
		task := hostos.New(eng, "h", hostos.PentiumIV()).NewTask("t")
		return func() int {
			ran := 0
			var k func()
			k = func() {
				if ran++; ran < n {
					task.Run(1000, cache.User, k)
				}
			}
			task.Run(1000, cache.User, k)
			eng.RunAll()
			return ran
		}
	}).ns

	flowDrivers(m, seed, target, reps, check)

	// cluster: placement of 16 unit-load shards and 4 pinned frontends on
	// 4 hosts, every frontend connected to every shard.
	m["cluster.solve_ms"] = opCost(target, 3, func(n int) func() int {
		plan, err := clusterPlan(seed)
		check("cluster", err)
		return func() int {
			for i := 0; i < n && plan != nil; i++ {
				_, err := plan.Solve()
				check("cluster solve", err)
			}
			return n
		}
	}).ns / 1e6

	// call: codec cost for a representative 4-argument invocation.
	c := &call.Call{Iface: guid.GUID(42), Method: "Read",
		Args: []any{int64(7), uint64(4096), "/movies/demo.mpg", make([]byte, 64)}, ReturnDesc: 9}
	reply := &call.Reply{ReturnDesc: 9, Results: []any{int64(64), make([]byte, 64)}}
	// The codec's errors are checked once here; the timed loops repeat
	// these same inputs and drop them.
	wire, err := call.Marshal(c)
	check("call", err)
	_, err = call.Unmarshal(wire)
	check("call", err)
	rb, err := call.MarshalReply(reply)
	check("call", err)
	_, err = call.UnmarshalReply(rb)
	check("call", err)
	m["call.marshal_ns"] = opCost(target, reps, func(n int) func() int {
		return func() int {
			for i := 0; i < n; i++ {
				sink, _ = call.Marshal(c)
			}
			return n
		}
	}).ns
	m["call.unmarshal_ns"] = opCost(target, reps, func(n int) func() int {
		return func() int {
			for i := 0; i < n; i++ {
				sink, _ = call.Unmarshal(wire)
			}
			return n
		}
	}).ns
	m["call.roundtrip_allocs"] = opCost(target, reps, func(n int) func() int {
		return func() int {
			for i := 0; i < n; i++ {
				b, _ := call.Marshal(c)
				sink, _ = call.Unmarshal(b)
				rb, _ := call.MarshalReply(reply)
				sink, _ = call.UnmarshalReply(rb)
			}
			return n
		}
	}).allocs

	// syscall: asynchronous clock syscalls on a one-host plane, issued up
	// to the credit limit, issue→completion.
	m["syscall.roundtrip_ns"] = opCost(target, reps, func(n int) func() int {
		sys, err := testbed.New(seed, testbed.Spec{Hosts: []testbed.HostSpec{{
			Name:     "h0",
			Devices:  []device.Config{device.SmartDisk("d0")},
			Syscalls: &testbed.SyscallSpec{Profile: syscall.DefaultProfile()},
		}}})
		check("syscall", err)
		if err != nil {
			return func() int { return 1 }
		}
		iss := sys.Host("h0").Syscalls[0].Issuer
		return func() int {
			issued, done := 0, 0
			k := func(*syscall.Completion) { done++ }
			for done < n {
				before := done
				for issued < n && iss.Issue(syscall.OpClock, syscall.ModeAsync, nil, k) == nil {
					issued++
				}
				sys.Eng.RunAll()
				if done == before {
					check("syscall", fmt.Errorf("no progress after %d completions", done))
					return max(done, 1)
				}
			}
			return done
		}
	}).ns

	// Build path: the workload's testbed spec, and the movie encode.
	m["testbed.build_ms"] = opCost(target, 3, func(n int) func() int {
		return func() int {
			for i := 0; i < n; i++ {
				sys, err := testbed.New(seed, buildSpec)
				check("testbed", err)
				sink = sys
			}
			return n
		}
	}).ns / 1e6
	movie := tivopcMovieBytes()
	m["mpeg.movie_ms"] = opCost(target, 3, func(n int) func() int {
		return func() int {
			for i := 0; i < n; i++ {
				b, err := encodeMovie(movie)
				check("mpeg", err)
				sink = b
			}
			return n
		}
	}).ns / 1e6
	if b, err := encodeMovie(movie); err != nil || !bytes.Equal(b, tivopc.Movie(movie)) {
		check("mpeg", fmt.Errorf("re-encoded movie differs from the program's (%v)", err))
	}

	// obs: one flow instant with tracing off (no tracer on the engine) and
	// on (a ring that overwrites, so memory stays bounded).
	for _, o := range []struct {
		name string
		on   bool
	}{{"obs.record_off_ns", false}, {"obs.record_on_ns", true}} {
		o := o
		m[o.name] = opCost(target, reps, func(n int) func() int {
			eng := sim.NewEngine(seed)
			if o.on {
				obs.NewTracer(obs.Config{Cap: 1 << 16}).Attach(eng, "bench")
			}
			sh := obs.FromEngine(eng)
			return func() int {
				for i := 0; i < n; i++ {
					sh.Instant(obs.CatFlow, "flow.hit", int64(i))
				}
				sink = sh
				return n
			}
		}).ns
	}
	return m
}

// flowKeys returns count distinct flow keys from a loadgen stream.
func flowKeys(seed int64, count int) []flowtable.Key {
	gen, err := loadgen.New(x12GenConfig(seed))
	if err != nil {
		panic(err) // static configuration
	}
	seen := make(map[flowtable.Key]bool, count)
	keys := make([]flowtable.Key, 0, count)
	for len(keys) < count {
		gen.Emit(func(p loadgen.Packet) {
			if !seen[p.Key] && len(keys) < count {
				seen[p.Key] = true
				keys = append(keys, p.Key)
			}
		})
	}
	return keys
}

// freshKeys derives n keys distinct from each other and from base's
// loadgen flows by rewriting the source address.
func freshKeys(base []flowtable.Key, n int) []flowtable.Key {
	out := make([]flowtable.Key, n)
	for i := range out {
		k := base[i%len(base)]
		k.SrcIP = 0xC0000000 | uint32(i)
		out[i] = k
	}
	return out
}

// x12GenConfig mirrors the X12 per-host generator: 60k packets/s in
// 100 µs ticks over 128 Zipf-sized flows with churn.
func x12GenConfig(seed int64) loadgen.Config {
	return loadgen.Config{
		Seed: seed, RateHz: 60_000, Tick: 100 * sim.Microsecond,
		Flows: 128, SizeBase: 28, SizeS: 2.0, SizeV: 1.0, SizeMax: 1 << 20,
		DstPorts: []uint16{80, 443, 53, 9100, 8080, 8443, 1080, 3128,
			5000, 5353, 6000, 7000, 7070, 8000, 9000, 9090},
	}
}

func flowDrivers(m map[string]float64, seed int64, target time.Duration, reps int, check func(string, error)) {
	const entries = 512 // the X12 per-shard quota
	keys := flowKeys(seed, entries)
	cfg := flowtable.Config{QuotaBytes: entries * flowtable.EntryBytes}

	m["flowtable.hit_ns"] = opCost(target, reps, func(n int) func() int {
		t := flowtable.New(cfg, nil)
		for _, k := range keys {
			t.Insert(k, flowtable.ActForward, 0, 0)
		}
		return func() int {
			for i := 0; i < n; i++ {
				if _, _, ok := t.Lookup(keys[i%entries], 0); !ok {
					check("flowtable hit", fmt.Errorf("lookup missed"))
					return 1
				}
			}
			return n
		}
	}).ns
	maxKeys := 1 << 20
	m["flowtable.insert_ns"] = opCost(target, reps, func(n int) func() int {
		n = min(n, maxKeys)
		t := flowtable.New(flowtable.Config{QuotaBytes: (n + 1) * flowtable.EntryBytes}, nil)
		fresh := freshKeys(keys, n)
		return func() int {
			for _, k := range fresh {
				t.Insert(k, flowtable.ActForward, 0, 0)
			}
			return n
		}
	}).ns
	m["flowtable.evict_ns"] = opCost(target, reps, func(n int) func() int {
		n = min(n, maxKeys)
		t := flowtable.New(cfg, nil)
		for _, k := range keys {
			t.Insert(k, flowtable.ActForward, 0, 0)
		}
		fresh := freshKeys(keys, n)
		return func() int {
			for _, k := range fresh {
				t.Insert(k, flowtable.ActForward, 0, 0)
			}
			if got := t.Stats().Evicted; got != uint64(n) {
				check("flowtable evict", fmt.Errorf("evicted %d of %d", got, n))
			}
			return n
		}
	}).ns

	// The X12 shard pipeline over a recorded loadgen stream, replayed
	// with time advancing so idle flows keep expiring.
	gen, err := loadgen.New(x12GenConfig(seed))
	check("loadgen", err)
	type pkt struct {
		key flowtable.Key
		at  sim.Time
	}
	var stream []pkt
	for tick := sim.Time(0); len(stream) < 1<<16; tick += 100 * sim.Microsecond {
		gen.Emit(func(p loadgen.Packet) { stream = append(stream, pkt{p.Key, tick}) })
	}
	period := stream[len(stream)-1].at + 100*sim.Microsecond
	m["flowtable.pipeline_ns_per_pkt"] = opCost(target, reps, func(n int) func() int {
		p := flowtable.NewPipeline(flowtable.PipelineConfig{
			Table: flowtable.Config{QuotaBytes: entries * flowtable.EntryBytes, IdleTimeout: 20 * sim.Millisecond},
			Rules: []flowtable.Rule{
				{Match: flowtable.Match{DstPort: 9100}, Action: flowtable.ActDrop},
				{Match: flowtable.Match{DstPort: 80}, Action: flowtable.ActRewrite},
				{Match: flowtable.Match{DstPort: 443}, Action: flowtable.ActRewrite},
				{Match: flowtable.Match{DstPort: 53}, Action: flowtable.ActCount},
			},
			Default: flowtable.ActForward, Backends: 8,
		}, nil)
		return func() int {
			for i := 0; i < n; i++ {
				s := stream[i%len(stream)]
				p.Process(s.key, s.at+sim.Time(i/len(stream))*period)
			}
			return n
		}
	}).ns

	m["loadgen.next_ns"] = opCost(target, reps, func(n int) func() int {
		g, err := loadgen.New(x12GenConfig(seed))
		check("loadgen", err)
		return func() int {
			emitted := 0
			for emitted < n {
				g.Emit(func(p loadgen.Packet) { emitted++; sink = p.Key })
			}
			return emitted
		}
	}).ns
}

// clusterPlan stocks a 4-host fabric with 4 pinned frontends and 16
// shards, the X12 shape, and returns the uncommitted plan.
func clusterPlan(seed int64) (*cluster.Plan, error) {
	const hosts, shards = 4, 16
	spec := testbed.Spec{Name: "perfbench-cluster", EnginePerHost: true}
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("h%d", i)
		spec.Hosts = append(spec.Hosts, testbed.HostSpec{
			Name: name, Devices: []device.Config{device.XScaleNIC(name + "-nic")}, Runtime: &core.Config{},
		})
	}
	sys, err := testbed.New(seed, spec)
	if err != nil {
		return nil, err
	}
	coord, err := cluster.New(sys, cluster.Config{AppName: "bench", DefaultLink: cluster.DefaultLink()})
	if err != nil {
		return nil, err
	}
	front := func(i int) string { return fmt.Sprintf("bench.Front%02d", i) }
	shard := func(i int) string { return fmt.Sprintf("bench.Shard%02d", i) }
	odfDoc := func(bind string, g int, targets string) []byte {
		return []byte(fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <targets>%s</targets>
</offcode>`, bind, g, targets))
	}
	for _, hs := range sys.RuntimeHosts() {
		for i := 0; i < hosts; i++ {
			hs.Depot.PutFile("/"+front(i)+".odf", odfDoc(front(i), 22950+i, `<host-fallback>true</host-fallback>`))
		}
		for i := 0; i < shards; i++ {
			hs.Depot.PutFile("/"+shard(i)+".odf", odfDoc(shard(i), 22901+i,
				`<device-class id="0x0001"><name>Network Device</name></device-class>`))
			if err := hs.Depot.RegisterObject(objfile.Synthesize(shard(i), guid.GUID(22901+i), 8<<10,
				[]string{"hydra.Heap.Alloc", "hydra.Channel.Read"})); err != nil {
				return nil, err
			}
		}
	}
	plan := coord.Plan()
	for i := 0; i < hosts; i++ {
		if err := plan.AddRoot("/"+front(i)+".odf", cluster.PinTo(fmt.Sprintf("h%d", i)), cluster.WithLoad(0)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < shards; i++ {
		if err := plan.AddRoot("/" + shard(i) + ".odf"); err != nil {
			return nil, err
		}
	}
	traffic := cluster.Traffic{BytesPerSec: 60_000.0 / shards * 29, MsgsPerSec: 60_000.0 / shards / 4}
	for h := 0; h < hosts; h++ {
		for i := 0; i < shards; i++ {
			if err := plan.Connect(front(h), shard(i), traffic); err != nil {
				return nil, err
			}
		}
	}
	return plan, nil
}
