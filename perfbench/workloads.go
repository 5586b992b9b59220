package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/experiments"
	"hydra/internal/mpeg"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/syscall"
	"hydra/internal/testbed"
	"hydra/internal/tivopc"
)

// workload is one scenario the benchmark runs cell after cell. Cell i of
// a run uses seed+i; everything a cell computes follows from that seed.
type workload struct {
	name string
	// setupReps is how many set-up repetitions setup_s takes the median of.
	setupReps int
	// init is the program's lazy one-time initialisation for this
	// workload; reinit repeats the same work for later set-up
	// repetitions (nil when the workload has none).
	init, reinit func() error
	// run executes one cell. With sp == nil and trace == nil it calls the
	// program's public untraced entry point; otherwise it records spans
	// around each public call into sp and passes trace to the program's
	// *Traced entry point. rows are the cell's model outputs; dropped
	// counts trace records the program's tracer lost to ring overflow.
	run func(seed int64, sp *spanLog, trace *obs.Config) (rows any, dropped uint64, err error)
	// check verifies rows against the workload's exact invariants and
	// returns the operation count and ratio bases.
	check func(rows any) (cellOut, error)
	// crossCheck, when set, reruns seed under a different configuration
	// that must reproduce rows bit for bit.
	crossCheck func(seed int64, rows any) error
	// buildSpec is the testbed spec a cell builds, for testbed.build_ms.
	buildSpec func() testbed.Spec
}

// cellOut is what one checked cell contributes to the run's totals.
type cellOut struct {
	ops uint64
	// Ratio bases read from result rows.
	flowHits, flowLookups uint64
	chanMsgs, chanIRQs    uint64
}

// digest is the exact fingerprint of a cell's model outputs: every field
// of every row, floats in shortest round-trip form.
func digest(rows any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", rows)))
	return hex.EncodeToString(sum[:8])
}

// droppedBy is tr's overflow count; nil (untraced) drops nothing.
func droppedBy(tr *obs.Tracer) uint64 {
	if tr == nil {
		return 0
	}
	return tr.Dropped()
}

func workloadByName(name string) (*workload, error) {
	switch name {
	case "tivopc":
		return tivopcWorkload(), nil
	case "dataplane":
		return dataplaneWorkload(), nil
	case "syscalls":
		return syscallsWorkload(), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- tivopc: the paper's §6.4 server experiment ---

// tivopcDuration is each server run's simulated time.
const tivopcDuration = 20 * sim.Second

// tivopcKinds are the two server variants a cell runs, in order.
var tivopcKinds = []tivopc.ServerKind{tivopc.SimpleServer, tivopc.OffloadedServer}

func tivopcWorkload() *workload {
	return &workload{
		name:      "tivopc",
		setupReps: 5,
		// SystemSpec generates and caches the encoded movie on first use.
		init: func() error {
			tivopc.SystemSpec(tivopcDuration)
			return nil
		},
		reinit: func() error {
			_, err := encodeMovie(tivopcMovieBytes())
			return err
		},
		buildSpec: func() testbed.Spec { return tivopc.SystemSpec(tivopcDuration) },
		run: func(seed int64, sp *spanLog, trace *obs.Config) (any, uint64, error) {
			rows := make([]tivopc.ServerRun, 0, len(tivopcKinds))
			var dropped uint64
			for _, kind := range tivopcKinds {
				var r *tivopc.ServerRun
				var err error
				if sp == nil && trace == nil {
					r, err = tivopc.RunServerScenario(kind, seed, tivopcDuration)
				} else {
					var tr *obs.Tracer
					r, tr, err = tivopcScenario(kind, seed, sp, trace)
					dropped += droppedBy(tr)
				}
				if err != nil {
					return nil, 0, fmt.Errorf("%v: %w", kind, err)
				}
				rows = append(rows, *r)
			}
			return rows, dropped, nil
		},
		check: func(rows any) (cellOut, error) {
			var out cellOut
			for _, r := range rows.([]tivopc.ServerRun) {
				if arrivals := len(r.JitterGaps) + 1; arrivals < 10 {
					return out, fmt.Errorf("%v: %d arrivals, want at least 10", r.Kind, arrivals)
				}
				if r.Sent <= 0 {
					return out, fmt.Errorf("%v: sent nothing", r.Kind)
				}
				out.ops += uint64(r.Sent)
			}
			return out, nil
		},
	}
}

// tivopcMovieBytes is the movie length tivopc.SystemSpec requests for
// tivopcDuration of streaming.
func tivopcMovieBytes() int {
	return int(int64(tivopcDuration/tivopc.ChunkPeriod))*tivopc.ChunkBytes + 64*tivopc.ChunkBytes
}

// encodeMovie repeats the program's lazy movie generation
// (tivopc.Movie on an empty cache): encode 512 frames, then, if that is
// too short, re-encode with the frame count the first pass's density
// predicts.
func encodeMovie(minBytes int) ([]byte, error) {
	cfg := tivopc.MovieConfig()
	var movie []byte
	frames := 512
	for len(movie) < minBytes {
		if len(movie) > 0 {
			if perFrame := len(movie) / frames; perFrame > 0 {
				frames = minBytes/perFrame + 64
			}
		}
		enc, err := mpeg.NewEncoder(cfg)
		if err != nil {
			return nil, err
		}
		for i := 0; i < frames; i++ {
			if err := enc.Add(mpeg.GenerateFrame(cfg, i)); err != nil {
				return nil, err
			}
		}
		enc.Flush()
		movie = enc.Bytes()
	}
	return movie[:minBytes], nil
}

// tivopcScenario performs tivopc.RunServerScenario's steps one public
// call at a time, so each call gets a span and the testbed can carry a
// tracer. Its rows must equal RunServerScenario's exactly; the golden
// digests enforce that.
func tivopcScenario(kind tivopc.ServerKind, seed int64, sp *spanLog, trace *obs.Config) (*tivopc.ServerRun, *obs.Tracer, error) {
	id := sp.begin("tivopc.NewTestbed")
	tb := tivopc.NewTestbedTraced(seed, tivopcDuration, trace)
	sp.end(id)
	id = sp.begin("tivopc.StartClient")
	client, err := tivopc.StartClient(tb, tivopc.IdleClient)
	sp.end(id)
	if err != nil {
		return nil, nil, err
	}
	cpu := tb.Server.SampleUtilization(tivopc.SampleInterval)
	miss := tb.Server.SampleKernelMissRate(tivopc.SampleInterval)
	id = sp.begin("tivopc.StartServer")
	srv, err := tivopc.StartServer(tb, kind, tivopcDuration)
	sp.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = sp.begin("tivopc.Eng.Run")
	tb.Eng.Run(tivopcDuration)
	sp.end(id)
	if err := srv.DeployErr(); err != nil {
		return nil, nil, err
	}
	run := &tivopc.ServerRun{Kind: kind, Sent: srv.TotalSent(), JitterGaps: client.Arrivals.Gaps()}
	// RunServerScenario drops the first sampling window.
	if len(cpu.Samples) > 1 {
		run.CPUSamples = cpu.Samples[1:]
	}
	if len(miss.Samples) > 1 {
		run.MissRates = miss.Samples[1:]
	}
	return run, tb.Tracer, nil
}

// --- dataplane: the X12 sharded match-action pipeline ---

// dataplaneHosts is the cell's fabric size. One window worker keeps the
// cell serial; the 2-worker run is a correctness cross-check only.
const dataplaneHosts = 4

func dataplaneWorkload() *workload {
	return &workload{
		name:      "dataplane",
		setupReps: 15,
		buildSpec: func() testbed.Spec {
			// The X12 fabric as RunX12Cell declares it: one XScale NIC, a
			// runtime and a fire-forget log plane per host.
			spec := testbed.Spec{Name: "x12-dataplane", EnginePerHost: true}
			for i := 0; i < dataplaneHosts; i++ {
				name := fmt.Sprintf("h%d", i)
				spec.Hosts = append(spec.Hosts, testbed.HostSpec{
					Name:    name,
					Devices: []device.Config{device.XScaleNIC(name + "-nic")},
					Runtime: &core.Config{},
					Syscalls: &testbed.SyscallSpec{Profile: syscall.Profile{Batch: 16,
						Coalesce: 100 * sim.Microsecond, Credits: 256, Workers: 1, RingEntries: 1024}},
				})
			}
			return spec
		},
		run: func(seed int64, sp *spanLog, trace *obs.Config) (any, uint64, error) {
			id := sp.begin("experiments.RunX12Cell")
			defer sp.end(id)
			if sp == nil && trace == nil {
				row, err := experiments.RunX12Cell(seed, dataplaneHosts, 1)
				return row, 0, err
			}
			row, tr, err := experiments.RunX12CellTraced(seed, dataplaneHosts, 1, trace)
			return row, droppedBy(tr), err
		},
		check: func(rows any) (cellOut, error) {
			r := rows.(*experiments.X12Row)
			out := cellOut{ops: r.Processed, flowHits: r.Hits, flowLookups: r.Lookups}
			if r.Offered == 0 || r.Offered != r.Processed+r.QueueDrops {
				return out, fmt.Errorf("offered %d != processed %d + queue drops %d",
					r.Offered, r.Processed, r.QueueDrops)
			}
			if r.Shed != 0 || r.Misrouted != 0 {
				return out, fmt.Errorf("shed %d, misrouted %d, want 0", r.Shed, r.Misrouted)
			}
			want := r.PolicyDrops + r.Evicted + r.Expired
			if r.Logged != r.LogLines || r.LogLines != want {
				return out, fmt.Errorf("log ledger: %d logged, %d host lines, %d events",
					r.Logged, r.LogLines, want)
			}
			return out, nil
		},
		crossCheck: func(seed int64, rows any) error {
			row, err := experiments.RunX12Cell(seed, dataplaneHosts, 2)
			if err != nil {
				return fmt.Errorf("2 workers: %w", err)
			}
			if digest(row) != digest(rows) {
				return fmt.Errorf("rows differ between 1 and 2 workers:\n  1: %+v\n  2: %+v", rows, row)
			}
			return nil
		},
	}
}

// --- syscalls: the X11 device-initiated syscall plane ---

func syscallsWorkload() *workload {
	return &workload{
		name:      "syscalls",
		setupReps: 15,
		buildSpec: func() testbed.Spec {
			// The X11 fabric as RunX11Cell declares it: one smart disk and
			// syscall plane per dispatch variant.
			spec := testbed.Spec{Name: "x11-syscalls", EnginePerHost: true}
			for _, v := range []struct {
				name string
				prof syscall.Profile
			}{
				{"blocking", syscall.BlockingProfile()},
				{"batch8", syscall.Profile{Batch: 8, Coalesce: 50 * sim.Microsecond, Credits: 64, Workers: 1}},
				{"batch32", syscall.Profile{Batch: 32, Coalesce: 200 * sim.Microsecond, Credits: 256,
					Workers: 1, RingEntries: 1024}},
			} {
				spec.Hosts = append(spec.Hosts, testbed.HostSpec{
					Name:     "h-" + v.name,
					Devices:  []device.Config{device.SmartDisk("d-" + v.name)},
					Syscalls: &testbed.SyscallSpec{Profile: v.prof},
				})
			}
			return spec
		},
		run: func(seed int64, sp *spanLog, trace *obs.Config) (any, uint64, error) {
			id := sp.begin("experiments.RunX11Cell")
			defer sp.end(id)
			if sp == nil && trace == nil {
				rows, err := experiments.RunX11Cell(seed, experiments.X11TopRate(), 1)
				return rows, 0, err
			}
			rows, tr, err := experiments.RunX11CellTraced(seed, experiments.X11TopRate(), 1, trace)
			return rows, droppedBy(tr), err
		},
		check: func(rows any) (cellOut, error) {
			var out cellOut
			for _, r := range rows.([]experiments.X11Row) {
				if r.Issued == 0 || r.Issued != r.Executed || r.Executed != r.Completed {
					return out, fmt.Errorf("%s: issued %d, executed %d, completed %d",
						r.Variant, r.Issued, r.Executed, r.Completed)
				}
				out.ops += r.Completed
				out.chanMsgs += r.Completed
				out.chanIRQs += r.Interrupts
			}
			return out, nil
		},
	}
}
