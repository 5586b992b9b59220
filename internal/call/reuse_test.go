package call

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"hydra/internal/guid"
)

// The wire format is frozen: these encodings were produced by the
// original append-grown encoder and must never change.
func TestMarshalWireFrozen(t *testing.T) {
	cases := []struct {
		name string
		enc  func() ([]byte, error)
		want string
	}{
		{"call", func() ([]byte, error) {
			return Marshal(&Call{Iface: 0x5C411, Method: "read", ReturnDesc: 0x4000000000000007,
				Args: []any{int64(-3), uint64(1 << 40), 2.5, true, false, "path/x", []byte{0xde, 0xad}, int(9)}})
		}, "4311c40500000000000700000000000040040072656164080002fdffffffffffffff03000000000001000004" +
			"0000000000000440010101000506000000706174682f780602000000dead020900000000000000"},
		{"reply", func() ([]byte, error) {
			return MarshalReply(&Reply{ReturnDesc: 77, Err: "eio",
				Results: []any{int64(64), []byte("abc"), "s", 0.5, false}})
		}, "524d00000000000000030065696f0500024000000000000000060300000061626305010000007304000000000000e03f0100"},
		{"empty reply", func() ([]byte, error) {
			return MarshalReply(&Reply{ReturnDesc: 1})
		}, "52010000000000000000000000"},
	}
	for _, c := range cases {
		wire, err := c.enc()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(wire); got != c.want {
			t.Errorf("%s wire changed:\n  got  %s\n  want %s", c.name, got, c.want)
		}
		if len(wire) != cap(wire) {
			t.Errorf("%s: len %d != cap %d (buffer not sized exactly)", c.name, len(wire), cap(wire))
		}
	}
}

// randValues draws a vector of n supported values (no NaN, so DeepEqual
// is meaningful).
func randValues(rng *rand.Rand, n int) []any {
	out := make([]any, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = rng.Intn(2) == 1
		case 1:
			out[i] = rng.Int63() - rng.Int63()
		case 2:
			out[i] = rng.Uint64()
		case 3:
			out[i] = rng.NormFloat64()
		case 4:
			out[i] = string(randBytes(rng, rng.Intn(12)))
		default:
			out[i] = randBytes(rng, rng.Intn(12))
		}
	}
	return out
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// sameValues compares decoded vectors, treating nil and empty alike: a
// fresh decode of zero values yields nil, a reused one an empty slice.
func sameValues(a, b []any) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// noStaleTail fails if the slots of vs beyond its length still hold
// values from an earlier, longer decode.
func noStaleTail(t *testing.T, step int, vs []any) {
	t.Helper()
	for i, v := range vs[len(vs):cap(vs)] {
		if v != nil {
			t.Fatalf("step %d: stale value %#v left in slot %d past len %d", step, v, len(vs)+i, len(vs))
		}
	}
}

// Decoding into one reused Call must match a fresh Unmarshal at every
// step, whatever the previous step left behind.
func TestDecodeCallReuseMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	methods := []string{"open", "read", "read", "write", "", "clock"}
	var reused Call
	for step := 0; step < 500; step++ {
		n := rng.Intn(8)
		if step%50 == 0 {
			n = 40 // a long vector, followed by shorter ones
		}
		c := &Call{Iface: guid.GUID(1 + rng.Uint64()>>1), Method: methods[rng.Intn(len(methods))],
			ReturnDesc: rng.Uint64(), Args: randValues(rng, n)}
		wire, err := Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) != cap(wire) {
			t.Fatalf("step %d: len %d != cap %d", step, len(wire), cap(wire))
		}
		fresh, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := DecodeCall(wire, &reused); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if reused.Iface != fresh.Iface || reused.Method != fresh.Method ||
			reused.ReturnDesc != fresh.ReturnDesc || !sameValues(reused.Args, fresh.Args) {
			t.Fatalf("step %d: reused decode %+v != fresh %+v", step, reused, *fresh)
		}
		noStaleTail(t, step, reused.Args)
	}
}

// The Reply counterpart, alternating success and error replies so a
// stale Err or Results cannot leak from one decode into the next.
func TestDecodeReplyReuseMatchesUnmarshalReply(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	errs := []string{"", "", "eio", "enoent", ""}
	var reused Reply
	for step := 0; step < 500; step++ {
		n := rng.Intn(5)
		if step%50 == 0 {
			n = 40
		}
		r := &Reply{ReturnDesc: rng.Uint64(), Err: errs[rng.Intn(len(errs))], Results: randValues(rng, n)}
		switch step % 4 {
		case 1: // an error after a success...
			r.Err, r.Results = "remote: failed", nil
		case 2: // ...and a success after an error
			r.Err = ""
		}
		wire, err := MarshalReply(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) != cap(wire) {
			t.Fatalf("step %d: len %d != cap %d", step, len(wire), cap(wire))
		}
		fresh, err := UnmarshalReply(wire)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := DecodeReply(wire, &reused); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if reused.ReturnDesc != fresh.ReturnDesc || reused.Err != fresh.Err ||
			!sameValues(reused.Results, fresh.Results) {
			t.Fatalf("step %d: reused decode %+v != fresh %+v", step, reused, *fresh)
		}
		noStaleTail(t, step, reused.Results)
	}
}

// Decoded blobs and strings must not alias the wire buffer, which a
// channel recycles as soon as the handler returns.
func TestDecodeDoesNotAliasWire(t *testing.T) {
	wire, err := MarshalReply(&Reply{Results: []any{[]byte{1, 2, 3}, "abc"}})
	if err != nil {
		t.Fatal(err)
	}
	var r Reply
	if err := DecodeReply(wire, &r); err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xFF
	}
	if !bytes.Equal(r.Results[0].([]byte), []byte{1, 2, 3}) || r.Results[1].(string) != "abc" {
		t.Fatalf("decoded values alias the wire: %#v", r.Results)
	}
}

// A count field far larger than the bytes behind it must not size the
// result vector: each value needs at least two bytes.
func TestDecodeHostileCountBoundsAllocation(t *testing.T) {
	wire := []byte{'R', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, tagBool, 1}
	var r Reply
	if err := DecodeReply(wire, &r); err == nil {
		t.Fatal("truncated vector accepted")
	}
	if cap(r.Results) > 1 {
		t.Fatalf("hostile count 65535 sized the vector to cap %d", cap(r.Results))
	}
}

func BenchmarkMarshal(b *testing.B) {
	c := &Call{Iface: 42, Method: "Read", ReturnDesc: 9,
		Args: []any{int64(7), uint64(4096), "/movies/demo.mpg", make([]byte, 64)}}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Marshal(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeReply(b *testing.B) {
	wire, err := MarshalReply(&Reply{ReturnDesc: 9, Results: []any{int64(64), make([]byte, 64)}})
	if err != nil {
		b.Fatal(err)
	}
	var r Reply
	b.ReportAllocs()
	for b.Loop() {
		if err := DecodeReply(wire, &r); err != nil {
			b.Fatal(err)
		}
	}
}
