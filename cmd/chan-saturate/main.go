// Command chan-saturate drives one cell of the X7 channel-saturation
// experiment with user-chosen knobs: a programmable NIC streams MTU-sized
// messages device→host while the descriptor ring batches completions and
// coalesces interrupts. It prints (or emits as JSON) the host cost of
// receiving the stream — cycles per message, delivery latency, interrupts,
// bus transactions — so batching policies can be compared interactively:
//
//	chan-saturate -rate 50000 -batch 1
//	chan-saturate -rate 50000 -batch 32 -coalesce 500us
//
// With -grid it instead runs the full X7 rate × policy grid exactly as
// cmd/hydra-bench does.
//
// With -trace FILE the cell runs with the virtual-time recorder attached
// and writes the trace — Chrome trace-event JSON (load it in Perfetto),
// or CSV when FILE ends in .csv. cmd/hydra-trace summarizes the file.
//
// Usage:
//
//	chan-saturate [-rate N] [-batch N] [-coalesce DUR] [-seconds N]
//	              [-seed N] [-json] [-grid] [-trace out.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hydra/internal/experiments"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

func main() {
	rate := flag.Int("rate", 50_000, "message rate (messages per simulated second)")
	batch := flag.Int("batch", 32, "descriptor completions per batch (1 = per-message delivery)")
	coalesce := flag.Duration("coalesce", 500*time.Microsecond, "interrupt-coalescing timeout (virtual time)")
	seconds := flag.Float64("seconds", experiments.X7Duration.Float64Seconds(), "simulated seconds")
	seed := flag.Int64("seed", experiments.DefaultSeed, "simulation seed")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON on stdout")
	grid := flag.Bool("grid", false, "run the full X7 rate × policy grid instead of one cell")
	tracePath := flag.String("trace", "", "record a virtual-time trace of the cell and write it here (.json Chrome trace-event, .csv CSV)")
	flag.Parse()

	duration := sim.Seconds(*seconds)
	if *grid {
		if *tracePath != "" {
			log.Fatal("-trace records a single cell; drop -grid")
		}
		res, err := experiments.RunSaturation(*seed, duration)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.CheckSaturationShape(res); err != nil {
			log.Fatal(err)
		}
		emit(res.Rows, res.Render(), *jsonOut)
		return
	}

	var trace *obs.Config
	if *tracePath != "" {
		trace = &obs.Config{}
	}
	row, tr, err := experiments.RunSaturationCell(*seed, duration, *rate, *batch, sim.Time(*coalesce), trace)
	if err != nil {
		log.Fatal(err)
	}
	if *tracePath != "" {
		if err := tr.WriteFile(*tracePath); err != nil {
			log.Fatal(err)
		}
		if dropped := tr.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "chan-saturate: trace ring overflowed, oldest %d records dropped\n", dropped)
		}
	}
	rendered := fmt.Sprintf(
		"chan-saturate: %d msgs/s × %v, batch %d, coalesce %v (seed %d)\n"+
			"  delivered:    %d of %d sent\n"+
			"  cycles/msg:   %.0f host cycles\n"+
			"  latency:      mean %.4f ms, max %.4f ms\n"+
			"  interrupts:   %d (%d batches, %d coalesce-timer flushes)\n"+
			"  bus:          %d transactions\n"+
			"  simulator:    %d events fired\n",
		*rate, duration, *batch, sim.Time(*coalesce), *seed,
		row.Delivered, row.Sent, row.CyclesPerMsg,
		row.MeanLatencyMS, row.MaxLatencyMS,
		row.Interrupts, row.Batches, row.CoalesceFlushes,
		row.BusTransactions, row.EventsFired)
	emit(row, rendered, *jsonOut)
}

func emit(v any, rendered string, jsonOut bool) {
	if !jsonOut {
		fmt.Print(rendered)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}
