package call

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// Property: Replies — success and error paths alike — survive the wire.
func TestReplyWireProperty(t *testing.T) {
	prop := func(desc uint64, errText string, b bool, i int64, u uint64, f float64, s string, raw []byte) bool {
		if math.IsNaN(f) {
			f = 0
		}
		r := &Reply{
			ReturnDesc: desc,
			Err:        errText,
			Results:    []any{b, i, u, f, s, raw},
		}
		wire, err := MarshalReply(r)
		if err != nil {
			return false
		}
		got, err := UnmarshalReply(wire)
		if err != nil {
			return false
		}
		if got.ReturnDesc != desc || got.Err != errText {
			return false
		}
		if got.Results[0].(bool) != b || got.Results[1].(int64) != i || got.Results[2].(uint64) != u {
			return false
		}
		if got.Results[3].(float64) != f || got.Results[4].(string) != s {
			return false
		}
		gb := got.Results[5].([]byte)
		return bytes.Equal(gb, raw) || (len(gb) == 0 && len(raw) == 0)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: an empty-results error Reply (the common failure shape the
// syscall dispatcher and RPC return path produce) round-trips with the
// error text intact and no phantom results.
func TestReplyErrorOnlyProperty(t *testing.T) {
	prop := func(desc uint64, errText string) bool {
		wire, err := MarshalReply(&Reply{ReturnDesc: desc, Err: errText})
		if err != nil {
			return false
		}
		got, err := UnmarshalReply(wire)
		if err != nil {
			return false
		}
		return got.ReturnDesc == desc && got.Err == errText && len(got.Results) == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Every strict prefix of a valid Reply wire must fail cleanly — no panic,
// no partial acceptance.
func TestUnmarshalReplyTruncated(t *testing.T) {
	good, err := MarshalReply(&Reply{
		ReturnDesc: 77,
		Err:        "remote: transient",
		Results:    []any{true, int64(-3), uint64(9), 1.5, "str", []byte{0xAA, 0xBB}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalReply(nil); err == nil {
		t.Fatal("nil accepted")
	}
	for cut := 1; cut < len(good); cut++ {
		if _, err := UnmarshalReply(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Corrupting any single byte must never panic, and corrupting structural
// bytes (magic, length fields, tags) must fail or decode to something
// self-consistent — never read past the buffer.
func TestUnmarshalReplyMutated(t *testing.T) {
	good, err := MarshalReply(&Reply{
		ReturnDesc: 1,
		Err:        "e",
		Results:    []any{"payload", []byte{1, 2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		for _, v := range []byte{0x00, 0xFF, good[i] ^ 0x80} {
			mut := append([]byte(nil), good...)
			mut[i] = v
			UnmarshalReply(mut) // must not panic; error or clean decode both fine
		}
	}

	bad := append([]byte(nil), good...)
	bad[0] = 'C'
	if _, err := UnmarshalReply(bad); err == nil {
		t.Fatal("wrong magic accepted")
	}

	// A blob length pointing far past the end of the buffer.
	huge := []byte{'R'}
	huge = binary.LittleEndian.AppendUint64(huge, 5)
	huge = binary.LittleEndian.AppendUint16(huge, 0) // no err text
	huge = binary.LittleEndian.AppendUint16(huge, 1) // one result
	huge = append(huge, tagString)
	huge = binary.LittleEndian.AppendUint32(huge, math.MaxUint32)
	huge = append(huge, 'x')
	if _, err := UnmarshalReply(huge); !errors.Is(err, ErrBadWire) {
		t.Fatalf("oversized blob length: err = %v, want ErrBadWire", err)
	}

	// An unknown value tag.
	tagged := append([]byte(nil), good[:11]...) // magic + desc + errLen(=1)
	tagged[9], tagged[10] = 0, 0                // errLen = 0
	tagged = binary.LittleEndian.AppendUint16(tagged, 1)
	tagged = append(tagged, 0xEE)
	if _, err := UnmarshalReply(tagged); !errors.Is(err, ErrBadWire) {
		t.Fatalf("unknown tag: err = %v, want ErrBadWire", err)
	}
}

// Oversized fields must fail loudly at encode time. A silently truncated
// u16 length desynchronizes the decoder — it would read method or error
// bytes as value tags — so ErrTooLarge is the only safe answer.
func TestMarshalTooLarge(t *testing.T) {
	long := strings.Repeat("x", math.MaxUint16+1)
	if _, err := Marshal(&Call{Iface: 1, Method: long}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized method: err = %v, want ErrTooLarge", err)
	}
	manyArgs := make([]any, math.MaxUint16+1)
	for i := range manyArgs {
		manyArgs[i] = true
	}
	if _, err := Marshal(&Call{Iface: 1, Method: "M", Args: manyArgs}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized argc: err = %v, want ErrTooLarge", err)
	}
	if _, err := MarshalReply(&Reply{Err: long}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized err string: err = %v, want ErrTooLarge", err)
	}
	if _, err := MarshalReply(&Reply{Results: manyArgs}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized result count: err = %v, want ErrTooLarge", err)
	}

	// At exactly the limit the wire stays valid.
	edge := strings.Repeat("e", math.MaxUint16)
	wire, err := MarshalReply(&Reply{Err: edge})
	if err != nil {
		t.Fatalf("limit-sized err string rejected: %v", err)
	}
	got, err := UnmarshalReply(wire)
	if err != nil || got.Err != edge {
		t.Fatalf("limit-sized err string round-trip failed: %v", err)
	}
}

// Fuzz: arbitrary bytes must never panic the Call decoder, anything it
// accepts must re-marshal to a wire that decodes to the same Call, and
// DecodeCall into a reused Call must decode exactly what a fresh
// Unmarshal does.
func FuzzUnmarshal(f *testing.F) {
	seed, _ := Marshal(&Call{
		Iface: 0x2001, Method: "Compute", ReturnDesc: 42,
		Args: []any{true, int64(-1), uint64(7), 2.5, "s", []byte{1, 2}},
	})
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{'C'})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Unmarshal(data)
		// Decoding twice into one struct — first over the seed call's
		// state, then over its own — must agree with the fresh decode.
		reused, _ := Unmarshal(seed)
		for pass := 0; pass < 2; pass++ {
			rerr := DecodeCall(data, reused)
			if (rerr == nil) != (err == nil) {
				t.Fatalf("pass %d: DecodeCall err %v, Unmarshal err %v", pass, rerr, err)
			}
			if err != nil {
				continue
			}
			want, _ := Marshal(c)
			got, gerr := Marshal(reused)
			if gerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("pass %d: reused decode drifted (%v):\n  got  %x\n  want %x", pass, gerr, got, want)
			}
		}
		if err != nil {
			return
		}
		wire, err := Marshal(c)
		if err != nil {
			t.Fatalf("accepted call does not re-marshal: %v", err)
		}
		again, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-marshaled wire rejected: %v", err)
		}
		// Compare on the wire: bit-exact, and NaN floats (which defeat
		// DeepEqual) still round-trip their payload bits.
		wire2, err := Marshal(again)
		if err != nil || !bytes.Equal(wire, wire2) {
			t.Fatalf("round-trip drift (%v):\n  first  %x\n  second %x", err, wire, wire2)
		}
	})
}

// Fuzz: the Reply decoder and DecodeReply, same contract.
func FuzzUnmarshalReply(f *testing.F) {
	seed, _ := MarshalReply(&Reply{
		ReturnDesc: 9, Err: "boom",
		Results: []any{false, int64(3), uint64(4), 0.5, "r", []byte{9}},
	})
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{'R'})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalReply(data)
		reused, _ := UnmarshalReply(seed)
		for pass := 0; pass < 2; pass++ {
			rerr := DecodeReply(data, reused)
			if (rerr == nil) != (err == nil) {
				t.Fatalf("pass %d: DecodeReply err %v, UnmarshalReply err %v", pass, rerr, err)
			}
			if err != nil {
				continue
			}
			want, _ := MarshalReply(r)
			got, gerr := MarshalReply(reused)
			if gerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("pass %d: reused decode drifted (%v):\n  got  %x\n  want %x", pass, gerr, got, want)
			}
		}
		if err != nil {
			return
		}
		wire, err := MarshalReply(r)
		if err != nil {
			t.Fatalf("accepted reply does not re-marshal: %v", err)
		}
		again, err := UnmarshalReply(wire)
		if err != nil {
			t.Fatalf("re-marshaled wire rejected: %v", err)
		}
		wire2, err := MarshalReply(again)
		if err != nil || !bytes.Equal(wire, wire2) {
			t.Fatalf("round-trip drift (%v):\n  first  %x\n  second %x", err, wire, wire2)
		}
	})
}
