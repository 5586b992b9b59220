package obs

import (
	"bytes"
	"testing"
)

// Bounds of the values a Chrome trace carries exactly: timestamps travel
// as float64 microseconds and args read back as float64.
const (
	fuzzMaxShards = 16
	fuzzMaxTime   = 1 << 50
	fuzzMaxArg    = 1 << 53
)

// FuzzReadChrome feeds ReadChrome arbitrary bytes, seeded with small
// real x7, x11 and x12 traces (testdata/fuzz/FuzzReadChrome). It must
// never panic. Whatever it parses, rebuilt into a Tracer (shards below
// fuzzMaxShards, values within the exact bounds) and written with
// WriteChrome, must read back as that Tracer's Merged() field for field,
// with its labels and drop count.
func FuzzReadChrome(f *testing.F) {
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		tr := rebuildTracer(in)
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		out, err := ReadChrome(&buf)
		if err != nil {
			t.Fatalf("reading WriteChrome's output: %v", err)
		}
		want := tr.Merged()
		if len(out.Records) != len(want) {
			t.Fatalf("read %d records, wrote %d", len(out.Records), len(want))
		}
		for i := range want {
			if out.Records[i] != want[i] {
				t.Fatalf("record %d: read %+v, wrote %+v", i, out.Records[i], want[i])
			}
		}
		if len(out.Labels) != len(tr.shards) {
			t.Fatalf("read %d labels, wrote %d shards", len(out.Labels), len(tr.shards))
		}
		for _, s := range tr.shards {
			if got, ok := out.Labels[s.idx]; !ok || got != s.label {
				t.Fatalf("shard %d label: read %q, wrote %q", s.idx, got, s.label)
			}
		}
		if out.Dropped != tr.Dropped() {
			t.Fatalf("dropped: read %d, wrote %d", out.Dropped, tr.Dropped())
		}
	})
}

// rebuildTracer appends a parsed trace's records to fresh shards, one
// per shard index, skipping what the format cannot carry exactly.
func rebuildTracer(in *ChromeTrace) *Tracer {
	tr := NewTracer(Config{Cap: len(in.Records) + 1})
	shard := func(idx int32) *Shard {
		for int32(len(tr.shards)) <= idx {
			tr.shards = append(tr.shards, &Shard{
				label: in.Labels[int32(len(tr.shards))],
				idx:   int32(len(tr.shards)),
				mask:  tr.mask,
				buf:   make([]Record, tr.cap),
			})
		}
		return tr.shards[idx]
	}
	for idx := range in.Labels {
		if idx >= 0 && idx < fuzzMaxShards {
			shard(idx)
		}
	}
	for _, r := range in.Records {
		if r.Shard < 0 || r.Shard >= fuzzMaxShards ||
			r.At < -fuzzMaxTime || r.At > fuzzMaxTime ||
			r.Dur < -fuzzMaxTime || r.Dur > fuzzMaxTime ||
			r.Arg < -fuzzMaxArg || r.Arg > fuzzMaxArg {
			continue
		}
		shard(r.Shard).append(r)
	}
	return tr
}
